#!/usr/bin/env python3
"""Spread and drift of benchmark records.

    python3 benchmarks/compare.py A_DIR [B_DIR]

Reads the untraced records (``BENCH_*_trace0.json``) in each directory.  For
every workload and end-to-end metric it prints the median over the records
(one per seed) and the spread: the distance between the first and third
quartile as a share of the median.  A gated metric's spread must stay within
its bound from BENCHMARK.json (``setup_s`` is exempt); metrics that only the
record holds are shown against the ``cycle_s`` bound.  Given a second
directory it also prints the drift of each median from A to B, which must
stay within the bound in the worse direction, and checks that every
operation's digest and counts agree for each (workload, seed) both hold.
Exit status 1 when a gated check fails.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = {}
    for path in sorted(Path(directory).glob("BENCH_*_trace0.json")):
        rec = json.loads(path.read_text())
        records.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return records


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def first_ops(rec):
    ops = {}
    for op in rec["ops"]:
        ops.setdefault((op["key"], op["name"]), (op["digest"], op["counts"]))
    return ops


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in argv]
    ok = True
    for workload in sorted(sets[0]):
        print(workload)
        names = sorted({n for rec in sets[0][workload].values() for n in rec["end_to_end"]})
        for name in names:
            m = gated.get(name, {"better": "lower", "bound": gated["cycle_s"]["bound"]})
            row, fails = [], []
            medians = []
            for records in sets:
                values = [r["end_to_end"][name]["value"] for r in records.get(workload, {}).values()
                          if name in r["end_to_end"]]
                if len(values) < 2:
                    row.append(f"n={len(values)}")
                    medians.append(None)
                    continue
                med, sp = spread(values)
                medians.append(med)
                row.append(f"median {med:.6g} spread {sp:.3f} (n={len(values)})")
                if name in gated and name != "setup_s" and sp > m["bound"]:
                    fails.append("spread")
            if len(medians) == 2 and None not in medians and medians[0]:
                drift = (medians[1] - medians[0]) / medians[0]
                worse = drift if m["better"] == "lower" else -drift
                row.append(f"drift {drift:+.3f}")
                if name in gated and worse > m["bound"]:
                    fails.append("drift")
            tag = "gated" if name in gated else "record"
            flag = " FAIL " + ",".join(fails) if fails else ""
            print(f"  {name:16} [{tag}, bound {m['bound']}] " + " | ".join(row) + flag)
            ok &= not fails
        if len(sets) == 2:
            common = sorted(set(sets[0][workload]) & set(sets[1].get(workload, {})))
            same = [first_ops(sets[0][workload][s]) == first_ops(sets[1][workload][s]) for s in common]
            print(f"  digests and counts identical for {sum(same)} of {len(common)} common seeds")
            ok &= all(same)
        for records in sets:
            bad = [s for s, r in records.get(workload, {}).items() if not r["correct"]]
            if bad:
                print(f"  incorrect records for seeds {bad}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    if not 1 <= len(sys.argv[1:]) <= 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
