"""Steadiness self-check: two interleaved sets of runs of every workload.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10

Set A uses seeds 1..N and set B seeds 101..100+N.  Runs go one process
at a time, workload by workload inside each round, and the order of the
two sets alternates between rounds so drift of the machine falls on
both.  For every end-to-end metric of ``BENCHMARK.json`` it prints both
medians and quartiles, each set's spread (q3 - q1) / median, and
whether the sets agree: each spread within the metric's bound, set
B's median not worse than set A's by more than the bound, and the same share of failed operations in both sets.  Raw
results go to ``perfbench/out/steady-<stamp>.json``; the exit code is 0
only when every workload agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_BASE = {"A": 1, "B": 101}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode} without a result:\n"
                           f"{proc.stdout}\n{proc.stderr}") from None
    result["wall_s"] = wall
    return result


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the acceptance rule takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(results: dict, spec: dict) -> bool:
    ok = True
    for workload, sets in results.items():
        walls = [r["wall_s"] for r in sets["A"] + sets["B"]]
        print(f"\n== {workload}: {len(sets['A'])} + {len(sets['B'])} runs, "
              f"median wall {statistics.median(walls):.1f} s per run")
        shares = {}
        for name in ("A", "B"):
            attempted = sum(r["attempted"] for r in sets[name])
            failed = sum(r["failed"] for r in sets[name])
            shares[name] = (failed, attempted)
            if not all(r["correct"] for r in sets[name]):
                ok = False
                print(f"   set {name}: a run reported correct=false")
        same_share = (shares["A"][0] * shares["B"][1]
                      == shares["B"][0] * shares["A"][1])
        ok &= same_share
        print(f"   failed/attempted: A {shares['A'][0]}/{shares['A'][1]}, "
              f"B {shares['B'][0]}/{shares['B'][1]} "
              f"-> {'same share' if same_share else 'DIFFERENT SHARE'}")
        print(f"   {'metric':<12}{'bound':>7}  "
              f"{'A median [q1, q3] spread':<42}"
              f"{'B median [q1, q3] spread':<42}{'B/A-1':>8}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for set_name in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[set_name]]
                stats[set_name] = spread(values)
            med_a, med_b = stats["A"][0], stats["B"][0]
            change = med_b / med_a - 1
            worse = change if metric["better"] == "lower" else -change
            spreads_ok = all(stats[s][3] <= bound for s in ("A", "B"))
            agree = spreads_ok and worse <= bound
            ok &= agree
            cells = "".join(
                f"{m:<10.5g}[{q1:.5g}, {q3:.5g}] {sp:6.1%}".ljust(42)
                for m, q1, q3, sp in (stats["A"], stats["B"]))
            print(f"   {name:<12}{bound:>7.2f}  {cells}{change:>+8.1%}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for set_name in order:
                seed = SEED_BASE[set_name] + i
                result = run_once(workload, seed, seconds)
                result["seed"] = seed
                results[workload][set_name].append(result)
                print(f"[{i + 1}/{args.runs}] {workload} set {set_name} "
                      f"seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.5g}"
                                  for k, v in result["metrics"].items())
                      + f" (wall {result['wall_s']:.1f} s)", flush=True)
    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if report(results, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
