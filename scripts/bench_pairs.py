#!/usr/bin/env python3
"""Compare two ttnets checkouts on one benchmark workload, in pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload certify --seeds 101-110

Each seed is one pair: ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in each checkout, and the side that runs
first alternates from pair to pair.  T is ``run_seconds`` of the change's
BENCHMARK.json, which also names the end-to-end metrics and which way is
better.  For each metric the script prints both sides' median and
quartiles, the change's number of wins, and whether the change of the
median exceeds the parent's interquartile range.  It exits 1 if any run
fails, reports ``correct: false`` or counts failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``a-b`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list[tuple[str, str]], metrics: list[dict]) -> tuple[list[str], bool]:
    """Report lines for ``pairs`` of (parent, change) result lines, the JSON
    objects ``bench/run.py`` prints last, and whether every run was sound:
    ``correct`` and no failed operation.  ``metrics`` are the
    ``end_to_end`` entries of BENCHMARK.json."""
    results = [(json.loads(parent), json.loads(change)) for parent, change in pairs]
    ok = all(r["correct"] and r["failed"] == 0 for pair in results for r in pair)
    lines = [f"{len(results)} pairs; every run correct with no failed operation: "
             f"{'yes' if ok else 'NO'}"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in results]
        change = [c["metrics"][name]["value"] for _, c in results]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        gain = (pmed - cmed) if lower else (cmed - pmed)
        lines.append(f"{name:14s} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                     f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
                     f"wins {wins}/{len(results)}  "
                     f"median gain beyond parent IQR: {'yes' if gain > pq3 - pq1 else 'no'}")
    return lines, ok


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The result line of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"][::1 if i % 2 == 0 else -1]
        try:
            out = {side: run_once(checkouts[side], args.workload, seed, spec["run_seconds"])
                   for side in order}
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        pairs.append((out["parent"], out["change"]))
        parent, change = (json.loads(out[side])["metrics"] for side in ("parent", "change"))
        print(f"seed {seed} ({order[0]} first): " + "  ".join(
            f"{m['name']} {parent[m['name']]['value']:.6g} -> {change[m['name']]['value']:.6g}"
            for m in spec["end_to_end"]), flush=True)
    lines, ok = summarize(pairs, spec["end_to_end"])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
