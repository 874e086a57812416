#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare with.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: for the full and the smoke sizes of every
workload, the outputs of ``reference()`` on its fixed inputs. It was run at
the seed commit; later commits must reproduce those values, so re-recording
to make a failing check pass would defeat the check.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, limit_threads

limit_threads()
sys.path.insert(0, str(ROOT / "src"))

from workloads import REF_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    golden: dict = {}
    workdir = ROOT / ".perfbench_work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for size_key in ("full", "smoke"):
            for name, cls in WORKLOADS.items():
                wl = cls(cls.sizes[size_key], workdir)
                state = wl.setup(REF_SEED)
                golden.setdefault(size_key, {})[name] = wl.reference(state)
                print(f"recorded {size_key} {name}", flush=True)
                del state
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Nested like the JSON it is, with each recorded output on one line.
    sizes = []
    for size_key, workloads in golden.items():
        blocks = []
        for name, outputs in workloads.items():
            rows = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in outputs.items())
            blocks.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
        sizes.append(f" {json.dumps(size_key)}: {{\n" + ",\n".join(blocks) + "\n }")
    text = "{\n" + ",\n".join(sizes) + "\n}\n"
    (HERE / "golden.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
