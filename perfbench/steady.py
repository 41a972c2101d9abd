"""Check that the benchmark agrees with itself.

    python3 perfbench/steady.py [--runs 10]

Runs two sets of ``--runs`` runs of every workload of ``BENCHMARK.json``
on the same code, each run a fresh ``run.py --trace 0`` process of
``run_seconds``.  Both sets use seeds ``1 .. runs``, and the runs of the
two sets alternate.  For every workload and end-to-end metric it prints
both sets' medians and quartiles and the spread (quartile distance over
the median), and whether the sets agree: each spread within the
metric's bound, and the two medians apart by at most the bound, as a
share of the first, in either direction.  The simulated result must
also repeat exactly per seed, and the share of failed operations must
be the same in every run.
Exits 1 if anything disagrees or any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be >= 2")
    seconds = spec["run_seconds"]
    seeds = range(1, args.runs + 1)

    ok = True
    print(f"{args.runs} runs per set, {seconds} s each, seeds {seeds.start}.."
          f"{seeds.stop - 1}\n")
    print("| workload | metric | median A | Q1..Q3 A | spread A | median B | Q1..Q3 B "
          "| spread B | bound | agree |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for seed in seeds:
            for name, runs in sets.items():
                print(f"{workload} {name} seed {seed}", file=sys.stderr, flush=True)
                runs.append(one_run(workload, seed, seconds))
        notes = []
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in sets[k]] for k in "AB")
            ma, qa1, qa3, sa = summary(a)
            mb, qb1, qb3, sb = summary(b)
            agree = sa <= bound and sb <= bound and abs(mb - ma) <= bound * abs(ma)
            if name.startswith("sim_") and a != b:
                agree = False
                notes.append(f"{name} differs between sets on the same seeds")
            ok &= agree
            print(f"| {workload} | {name} | {ma:.6g} | {qa1:.6g}..{qa3:.6g} | {sa:.2%} "
                  f"| {mb:.6g} | {qb1:.6g}..{qb3:.6g} | {sb:.2%} | {bound:g} "
                  f"| {'yes' if agree else 'NO'} |")
        if len({r["failed"] / r["attempted"] for v in sets.values() for r in v}) != 1:
            notes.append("failed shares differ")
        if not all(r["correct"] for v in sets.values() for r in v):
            notes.append("a run was incorrect")
        ok &= not notes
        for note in notes:
            print(f"| {workload} | {note} |||||||| NO |")
    print(f"\n{'agree' if ok else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
