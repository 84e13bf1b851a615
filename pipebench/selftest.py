#!/usr/bin/env python3
"""Self-test of the pipeline benchmark, on tiny inputs (about a minute).

Run from the root of a checkout:

    python3 pipebench/selftest.py

Checks that
  * every workload, untraced and traced, ends its output with a JSON result
    whose metrics are exactly the end-to-end (untraced) or per-layer
    (traced) metrics named in BENCHMARK.json, each with its unit;
  * a byte flipped in one pooled chunk (simulate) and a truncated pinball
    (native) each show up as failed items, which are counted as attempted
    and never timed.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def run(*args):
    """Runs one tiny benchmark invocation; returns (exit code, result, stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
           "--seed", "1", "--seconds", "1"] + list(args)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if p.returncode != 0 or result is None:
        sys.stderr.write(p.stderr[-4000:])
    return p.returncode, result, p.stdout


def timed_items(stdout):
    m = re.search(r"^# items: attempted (\d+) failed (\d+) timed (\d+)$",
                  stdout, re.M)
    return tuple(int(g) for g in m.groups()) if m else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{name} --trace {trace}"
            rc, res, out = run("--workload", name, "--trace", str(trace))
            check(rc == 0 and res is not None, f"{what}: exits 0 with a result")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result has exactly the four keys")
            check(res["correct"] is True and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{what}: all items correct")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = res["metrics"]
            check(set(got) == set(want),
                  f"{what}: metrics are exactly the {kind} set "
                  f"(missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))})")
            for m, unit in want.items():
                v = got.get(m, {})
                ok = (v.get("unit") == unit and
                      isinstance(v.get("value"), (int, float)) and
                      math.isfinite(v["value"]))
                if not ok:
                    check(False, f"{what}: {m} has a finite value in {unit}")
            if kind == "end_to_end":
                check(all(got[m]["value"] > 0 for m in want if m in got),
                      f"{what}: end-to-end metrics are non-zero")

    for name, fault in (("simulate", "chunk-flip"),
                        ("native", "pinball-truncate")):
        what = f"{name} --inject {fault}"
        rc, res, out = run("--workload", name, "--trace", "0",
                           "--inject", fault)
        check(rc == 0 and res is not None, f"{what}: exits 0 with a result")
        if res is None:
            continue
        check(res["failed"] >= 1 and res["correct"] is False,
              f"{what}: corrupted input counts as a failed item")
        counts = timed_items(out)
        check(counts is not None and counts[0] == res["attempted"] and
              counts[1] == res["failed"] and
              counts[2] == counts[0] - counts[1],
              f"{what}: failed items are attempted but never timed")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
