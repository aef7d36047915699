#!/usr/bin/env python3
"""Compare perfbench result files.

    python3 perfbench/compare.py BASE.json NEW.json
    python3 perfbench/compare.py BASE.json... -- NEW.json...

Result files are the ones run.py writes to _perfbench/results/.  With
several files a side, each metric's median over that side is compared:
one run of a noisy host says little, so compare runs over several seeds.
All files must come from the same workload and trace mode, recorded on
hosts with the same core counts: a result from a 1-core host says nothing
about a 2-core one, so the comparison is refused (exit 2).  Otherwise
every metric is listed with its relative change, largest first, so the
layer that moved heads the list; an end-to-end metric that got worse by
more than its bound in BENCHMARK.json is marked REGRESSED and makes the
exit code 1.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")


def load(path):
    with open(path) as f:
        return json.load(f)


def refusal(base, new):
    """Why two results must not be compared, or None."""
    for key in ("workload", "trace"):
        if base.get(key) != new.get(key):
            return "different %s: %r vs %r" % (key, base.get(key), new.get(key))
    for key in ("nproc", "available_cores"):
        b, n = base["host"].get(key), new["host"].get(key)
        if b != n:
            return "recorded on different core counts (%s %r vs %r)" % (key, b, n)
    return None


def medians(results):
    """Per metric, the median value over [results] that report it."""
    values = {}
    for r in results:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def changes(base, new, bench):
    """(name, base, new, relative change, regressed) per shared metric;
    [base] and [new] are lists of results."""
    e2e = {m["name"]: m for m in bench.get("end_to_end", [])}
    better = {m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    bm, nm = medians(base), medians(new)
    rows = []
    for name in bm:
        if name not in nm:
            continue
        b, n = bm[name], nm[name]
        rel = (n - b) / abs(b) if b else (0.0 if n == b else float("inf"))
        worse = -rel if better.get(name) == "higher" else rel
        regressed = name in e2e and worse > e2e[name]["bound"]
        rows.append((name, b, n, rel, regressed))
    rows.sort(key=lambda r: -abs(r[3]))
    return rows


def split(args):
    """The base and new file lists of the command line, or None."""
    if "--" in args:
        i = args.index("--")
        base, new = args[:i], args[i + 1:]
    elif len(args) == 2:
        base, new = args[:1], args[1:]
    else:
        return None
    return (base, new) if base and new else None


def main(argv):
    sides = split(argv[1:])
    if sides is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = ([load(p) for p in side] for side in sides)
    for other in base[1:] + new:
        why = refusal(base[0], other)
        if why:
            print("compare: refused: " + why, file=sys.stderr)
            return 2
    bench = load(BENCHMARK) if os.path.exists(BENCHMARK) else {}
    regressed = False
    print("%s (trace %d), %d vs %d runs on %d cores" % (
        base[0]["workload"], base[0]["trace"], len(base), len(new),
        base[0]["host"]["nproc"]))
    for name, b, n, rel, bad in changes(base, new, bench):
        regressed |= bad
        print("%-28s %16.6g %16.6g %+9.2f%%%s" % (
            name, b, n, 100 * rel, "  REGRESSED" if bad else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
