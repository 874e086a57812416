"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from mlcap import beam, model  # noqa: E402
from mlcap.vocab import EOS_ID, PAD_ID  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_and_check(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in last["metrics"].items()}
    checks = json.loads(next(l for l in lines if l.startswith("checks: "))[len("checks: "):])
    assert set(WORKLOADS[workload].checks) <= set(checks)
    assert all(checks.values())
    if trace:
        m = {k: v["value"] for k, v in last["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.startswith("trace.self_s."))
        assert layers + m["trace.uncovered_s"] == pytest.approx(m["trace.timed_wall_s"], rel=1e-9)
        assert m["trace.uncovered_s"] >= 0.0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("desk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def naive_beam_counts(feature, start_id, params, config):
    """Candidates scored and expansion steps, recounted from the documented
    algorithm: every live hypothesis is scored against every emittable id."""
    emittable = [t for t in range(params.dims.vocab) if t not in set(config.exclude_ids)]
    root = beam._root(feature, start_id, params)
    live, candidates, steps = [root], 0, 0
    while live:
        steps += 1
        candidates += len(live) * len(emittable)
        pool = sorted(
            ((h.logprob + float(h.next_logp[t]), h.ids + (t,), h) for h in live for t in emittable),
            key=lambda c: (-c[0], c[1]),
        )[: config.width]
        live = []
        for logprob, ids, parent in pool:
            if ids[-1] != EOS_ID and len(ids) < config.max_len:
                state, logp = model.step_distribution(parent.state, ids[-1], params)
                live.append(beam.Hypothesis(ids, logprob, state, logp.data))
    return candidates, steps


@pytest.mark.parametrize("width,max_len", [(1, 4), (3, 5), (5, 3)])
def test_beam_counters_match_a_recount(width, max_len):
    params = model.init_params(model.Dims(9, 4, 5, 3), np.random.default_rng(width))
    config = beam.BeamConfig(width=width, max_len=max_len, exclude_ids=(PAD_ID, 3))
    feature = np.random.default_rng(11).standard_normal(3)
    tracer = Tracer()
    tracer.install()
    tracer.current_round = 0
    try:
        beam.beam_search(feature, 3, params, config)
    finally:
        tracer.uninstall()
    call, = tracer.beam_calls
    assert call.width == width
    assert (call.candidates, call.steps) == naive_beam_counts(feature, 3, params, config)
    assert 0.0 < call.step_s < call.seconds


def test_uninstall_restores_every_function():
    before = [dict(vars(m)) for m in MODULES]
    tracer = Tracer()
    tracer.install()
    assert beam.beam_search is not before[MODULES.index(beam)]["beam_search"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in MODULES] == before
