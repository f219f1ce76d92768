"""Steadiness report: are two sets of runs the same within the bounds?

Collect a set of runs (one seed each), then compare two sets::

    python3 e2ebench/steadiness.py collect --workload whatif_cold \\
        --seeds 1-10 --out set_a.jsonl
    python3 e2ebench/steadiness.py compare set_a.jsonl set_b.jsonl

For every workload and end-to-end metric of ``BENCHMARK.json`` the
report gives each set's median and its spread (interquartile range as
a share of the median, from ``statistics.quantiles(values, n=4)``), and
the drift of the second median against the first in the metric's worse
direction.  A spread or a drift above the metric's bound is flagged
(``setup_s`` included); a spread above a third of the bound is marked
as thin headroom.  ``compare`` with one file reports spreads
only.  The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args) -> int:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = str(args.seconds or spec["run_seconds"])
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        elapsed = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result.update(workload=args.workload, seed=seed, elapsed_s=elapsed)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        values = {k: round(v["value"], 4)
                  for k, v in result["metrics"].items()}
        host = [ln.strip() for ln in lines if "yardstick" in ln]
        print(f"{args.workload} seed {seed} ({elapsed:.1f} s): {values} "
              f"{host}", flush=True)
    return 0


def _load(path: str) -> dict:
    by_workload: dict = {}
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            metrics = by_workload.setdefault(run["workload"], {})
            for name, metric in run["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return by_workload


def _spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def compare(args) -> int:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    first = _load(args.first)
    second = _load(args.second) if args.second else None
    flagged = False
    for workload in sorted(first):
        print(f"{workload}")
        for name, meta in metrics.items():
            values = first[workload].get(name)
            if not values or len(values) < 2:
                print(f"  {name:<16} missing")
                flagged = True
                continue
            bound = meta["bound"]
            med, spread = _spread(values)
            line = (f"  {name:<16} n={len(values):<3} median {med:12.4f} "
                    f"spread {spread:7.2%} (bound {bound:.0%})")
            note = ""
            if spread > bound:
                note, flagged = "  SPREAD OVER BOUND", True
            elif spread > bound / 3:
                note = "  thin headroom"
            if second is not None:
                other = second.get(workload, {}).get(name)
                if not other or len(other) < 2:
                    note += "  missing in second set"
                    flagged = True
                else:
                    med2, spread2 = _spread(other)
                    worse = (med2 - med) / med if meta["better"] == "lower" \
                        else (med - med2) / med
                    line += (f" | median {med2:12.4f} spread {spread2:7.2%}"
                             f" drift {worse:+7.2%}")
                    if spread2 > bound:
                        note, flagged = note + "  SPREAD 2 OVER BOUND", True
                    if worse > bound:
                        note, flagged = note + "  DRIFT OVER BOUND", True
            print(line + note)
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run one set of seeds")
    p_collect.add_argument("--workload", required=True)
    p_collect.add_argument("--seeds", required=True, help="e.g. 1-10")
    p_collect.add_argument("--seconds", type=int, default=None)
    p_collect.add_argument("--trace", type=int, default=0)
    p_collect.add_argument("--out", required=True)
    p_collect.set_defaults(func=collect)
    p_compare = sub.add_parser("compare", help="report spreads and drift")
    p_compare.add_argument("first")
    p_compare.add_argument("second", nargs="?")
    p_compare.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
