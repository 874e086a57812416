#!/usr/bin/env python3
"""mlcap benchmark: one workload per process, a closed loop with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --workload paper-train --smoke --seconds 1

``--workload all`` runs every workload in its own process, one after the
other, so each process's peak memory belongs to one workload. ``--trace 1``
is a separate run: it alternates untraced rounds with the same rounds run
with every public mlcap function wrapped in a span, and reports per-layer
metrics plus the tracing overhead. ``--smoke`` runs tiny sizes;
the benchmark's own tests use it.

Lines before the last describe the run: the machine, every metric with its
unit and sample count, and every correctness check. The last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk", "paper-train", "paper-decode")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s", "round_s": "s"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def limit_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use (before numpy loads)."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cpus:
            os.environ[var] = str(cpus)
    return cpus


def blas_info() -> dict:
    """BLAS name, version and the thread count the library reports."""
    import numpy as np

    info = {"blas": "unknown", "blas_version": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def machine_info() -> dict:
    import numpy as np

    mem_mb = None
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) // 1024
    cpu = platform.processor() or "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
    }


def summarize(samples, better: str) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it, taken on the worse side of the median."""
    from tracer import percentile_summary

    if not samples:
        return {"value": 0.0, "n": 0, "tail": None, "tail_value": None}
    if better == "higher":
        p50, low, p = percentile_summary([-x for x in samples])
        return {"value": -p50, "n": len(samples), "tail": None if p is None else round(100 - p, 1),
                "tail_value": None if p is None else -low}
    p50, high, p = percentile_summary(samples)
    return {"value": p50, "n": len(samples), "tail": p, "tail_value": None if p is None else high}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(wl, seed: int, seconds: float):
    """Set up at least ``wl.setup_reps`` times and for at least ``seconds``;
    returns the last state and every set-up time."""
    times, state = [], None
    deadline = perf_counter() + seconds
    while len(times) < wl.setup_reps or perf_counter() < deadline:
        state = None
        gc.collect()
        start = perf_counter()
        state = wl.setup(seed)
        times.append(perf_counter() - start)
    return state, times


def run_round(wl, state, rec, index: int) -> None:
    # The autodiff tape holds reference cycles, so a paper-scale step's
    # arrays would otherwise wait for Python's generation-2 collection, and
    # peak RSS would grow with the number of steps a run happens to fit
    # (1.8 GB after one step, 6 GB after fourteen). Collecting them here,
    # outside the timing, keeps the heap the program has already grown.
    gc.collect()
    rec.round_s = 0.0
    wl.round(state, rec, index)
    rec.add("round_s", rec.round_s)


def warm_up(wl, state, rec) -> None:
    """Round 0, before any timing, so that caches fill and the heap grows
    to the size it keeps: its checks and operations count, its timings are
    dropped."""
    run_round(wl, state, rec, 0)
    rec.samples.clear()


def run_rounds(wl, state, rec, seconds: float) -> None:
    """Rounds back to back for about ``seconds``. After ``wl.min_rounds``,
    which every check needs, a round starts only if at least half of one
    still fits."""
    deadline = perf_counter() + seconds
    index = 1
    while True:
        began = perf_counter()
        run_round(wl, state, rec, index)
        if index >= wl.min_rounds and perf_counter() + (perf_counter() - began) / 2 >= deadline:
            return
        index += 1


def check_reference(wl, state, rec, size_key: str) -> None:
    """Compare reference outputs with the values recorded at the seed commit."""
    from workloads import RTOL, close_enough

    with open(HERE / "golden.json", encoding="utf-8") as fh:
        want = json.load(fh).get(size_key, {}).get(wl.name, {})
    names = [c for c in wl.checks if ".reference." in c]
    rec.attempted += len(names)
    try:
        got = json.loads(json.dumps(wl.reference(state)))
    except Exception as exc:  # a failing reference run fails its checks
        print(f"reference run raised {type(exc).__name__}: {exc}", flush=True)
        got = {}
    for name in names:
        key = name.rsplit(".", 1)[-1]
        ok = key in want and key in got and close_enough(got[key], want[key], RTOL)
        rec.verify(name, ok, f"got {got.get(key)!r} want {want.get(key)!r}")


def timed_run(wl, args, size_key: str) -> dict:
    from workloads import Recorder

    state, setup_times = repeat_setup(wl, args.seed, args.seconds / 10)
    rec = Recorder()
    warm_up(wl, state, rec)
    run_rounds(wl, state, rec, args.seconds)
    peak_mb = peak_rss_mb()  # before the reference run adds its own data
    check_reference(wl, state, rec, size_key)
    table = {name: summarize(samples, better) | {"unit": unit}
             for name, (samples, unit, better) in wl.table(rec).items()}
    table["round_s"] = summarize(rec.samples["round_s"], "lower") | {"unit": "s"}
    table["setup_s"] = summarize(setup_times, "lower") | {"unit": "s"}
    table["peak_rss_mb"] = {"value": peak_mb, "n": 1, "unit": "MB"}
    table["ops_attempted"] = {"value": rec.attempted, "n": 1, "unit": "count"}
    table["ops_failed"] = {"value": rec.failed, "n": 1, "unit": "count"}
    values = {
        "setup_s": table["setup_s"]["value"],
        "peak_rss_mb": table["peak_rss_mb"]["value"],
        "throughput_per_s": table[wl.throughput]["value"],
        "round_s": table["round_s"]["value"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"table": table, "metrics": metrics, "rec": rec, "samples": rec.samples | {"setup_s": setup_times}}


def traced_run(wl, args, size_key: str) -> dict:
    """Untraced and traced rounds in pairs that do the same work, in
    alternating order, so that drift of the host hits both sides alike."""
    from tracer import Tracer
    from workloads import Recorder

    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(args.seed)
    finally:
        tracer.uninstall()
    plain, rec = Recorder(), Recorder(tracer)
    warm_up(wl, state, plain)
    deadline = perf_counter() + args.seconds
    pairs = 0
    while True:
        began = perf_counter()
        pairs += 1
        for traced in ((False, True) if pairs % 2 else (True, False)):
            if not traced:
                run_round(wl, state, plain, pairs)
                continue
            tracer.current_round = pairs
            tracer.install()
            try:
                run_round(wl, state, rec, pairs)
            finally:
                tracer.uninstall()
                tracer.current_round = -1
        if pairs >= wl.min_rounds and perf_counter() + (perf_counter() - began) / 2 >= deadline:
            break
    check_reference(wl, state, rec, size_key)
    layers = tracer.layer_metrics(pairs)
    untraced = statistics.median(plain.samples["round_s"])
    traced = statistics.median(rec.samples["round_s"])
    layers["trace.untraced_round_s"] = (untraced, "s")
    layers["trace.traced_round_s"] = (traced, "s")
    layers["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{wl.name}.npz")
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    for name, ok in plain.checks.items():
        rec.checks[name] = rec.checks.get(name, True) and ok
    table = {name: {"value": v, "n": pairs, "unit": u} for name, (v, u) in layers.items()}
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    return {"table": table, "metrics": metrics, "rec": rec}


def print_table(table: dict) -> None:
    print(f"{'metric':40s} {'value':>16s} {'unit':8s} {'n':>6s}  tail")
    for name, row in table.items():
        tail = "" if row.get("tail") is None else f"p{row['tail']:g}={row['tail_value']:.6g}"
        print(f"{name:40s} {row['value']:16.6g} {row['unit']:8s} {row['n']:6d}  {tail}")


def run_one(args) -> int:
    from workloads import WORKLOADS

    size_key = "smoke" if args.smoke else "full"
    cls = WORKLOADS[args.workload]
    machine = machine_info()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cls(cls.sizes[size_key], workdir)
        result = (traced_run if args.trace else timed_run)(wl, args, size_key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec = result["rec"]
    machine["process_threads"] = len(os.listdir("/proc/self/task"))
    missing = [c for c in cls.checks if c not in rec.checks]
    for name in missing:
        rec.verify(name, False, "was never evaluated")
    correct = rec.failed == 0 and all(rec.checks.values())
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size_key, "machine": machine,
        "table": result["table"], "checks": rec.checks, "samples": result.get("samples", {}),
    }
    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}  size: {size_key}")
    print_table(result["table"])
    print(f"checks: {json.dumps(rec.checks)}")
    print(f"report: {json.dumps(report)}")
    last = {"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
            "metrics": result["metrics"]}
    print(json.dumps(last), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    last = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("report: ")), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        last["correct"] = last["correct"] and result["correct"]
        last["attempted"] += result["attempted"]
        last["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            last["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(last), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mlcap" / "__init__.py").is_file():
        print(f"mlcap sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    limit_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mlcap

    if Path(mlcap.__file__).resolve().parent != ROOT / "src" / "mlcap":
        print(f"imported mlcap from {mlcap.__file__}, not from this checkout", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
