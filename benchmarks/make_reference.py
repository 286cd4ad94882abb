#!/usr/bin/env python3
"""Write reference.json: the result hash of every operation of every input.

    python3 benchmarks/make_reference.py [WORKLOAD ...]

Runs one untraced pass per input index (0 .. POOL-1) of each named workload
(all by default) and stores the digests that ``run.py`` checks.  Regenerate
only for a change that is meant to alter results, and say so in its review:
a speed-up must leave every digest as it is.
"""

import json
import sys
import tempfile
from pathlib import Path

import bench_workloads as bw
from bench_trace import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def reference_for(workload, index: int) -> dict:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        nsc = bw.import_nsckit()
        state = workload.setup(nsc, index, Path(workdir))
        with Tracer() as tracer:
            bw.instrument(tracer, nsc)
            run = bw.run_pass(workload, nsc, tracer, state, workload.keys(index), False)
    if run.failures:
        raise SystemExit(f"error: input {index} failed: {run.failures[0]}")
    digests: dict = {}
    for key, op in run.ops:
        digests.setdefault(str(key), {})[op.name] = op.digest
    return digests


def main(names):
    sys.path.insert(0, str(SRC))
    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    data.update(pool=bw.POOL, held_out=bw.HELD_OUT)
    for name in names or list(bw.WORKLOADS):
        data.setdefault("digests", {})[name] = {
            str(i): reference_for(bw.WORKLOADS[name], i) for i in range(bw.POOL)
        }
        print(f"{name}: {bw.POOL} inputs", flush=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
