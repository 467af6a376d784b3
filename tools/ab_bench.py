"""Paired A/B runs of the benchmark on two checkouts.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload prebuilt --pairs 10

Each pair runs `<dir>/perfbench/run.py` once on each checkout with the
same seed (seeds --seed, --seed + 1, ...) and the run length that
checkout A's BENCHMARK.json sets (`run_seconds`), one run after the
other; the side that goes first alternates from pair to pair, so that a
drift in the machine's speed falls on both sides alike.  The two sides
are kept apart by position, so the same checkout may be given twice to
measure the noise of the machine.  For every metric the script prints,
per side, the median and the quartiles over the pairs, the relative
change of the medians from A to B, and how many pairs the second
checkout wins (lower is better for every end-to-end metric of this
benchmark).  An end-to-end metric of A's BENCHMARK.json also gets a
verdict against its `bound`: `worse` when B's median is worse than
A's by more than the bound, `unresolved` when A's quartile spread is
wider than the bound and not every B run beats every A run, and `ok`
otherwise.  A run that fails, ends in a line that is not a result
object, reports failed operations or reports a wrong answer stops the
script with exit code 1.  Before the first pair the script removes the
__pycache__ directories under each checkout's src/ (caches that can be
rebuilt), and every run writes no bytecode (PYTHONDONTWRITEBYTECODE=1),
so the import time that setup_s measures does not depend on what
earlier runs left in either checkout.
The standard library's own bytecode cache is still read.
Uses only the standard library.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    """The result object (the last line of run.py's output) of one run."""
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    try:
        result = json.loads(lines[-1])
        failed, correct = result["failed"], result["correct"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise RuntimeError(f"{checkout}: the last line is not a result ({e!r}): "
                           f"{lines[-1][:200]!r}") from None
    if failed:
        raise RuntimeError(f"{checkout}: {failed} failed operations")
    if not correct:
        raise RuntimeError(f"{checkout}: the run reports a wrong answer")
    return metrics


def clear_bytecode(checkout):
    """Remove the __pycache__ directories under the checkout's src/;
    returns how many there were."""
    caches = list(Path(checkout, "src").rglob("__pycache__"))
    for d in caches:
        shutil.rmtree(d)
    return len(caches)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(a, b, bound):
    """`worse`, `unresolved` or `ok` for the runs `b` against the runs `a`
    of a metric where lower is better, with this relative `bound`."""
    ma = statistics.median(a)
    if statistics.median(b) - ma > bound * abs(ma):
        return "worse"
    q1, q3 = quartiles(a)
    if q3 - q1 > bound * abs(ma) and not max(b) < min(a):
        return "unresolved"
    return "ok"


def summarize(runs_a, runs_b, end_to_end=()):
    """Lines of the report: per metric, median [q1, q3] on each side, the
    relative change of the medians, the pairs in which side B is lower,
    and a verdict for each metric of `end_to_end` (BENCHMARK.json's
    entries, each with a name and a bound)."""
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    lines = []
    for name in sorted(runs_a[0]):
        a = [r[name] for r in runs_a]
        b = [r[name] for r in runs_b]
        wins = sum(y < x for x, y in zip(a, b))
        (qa1, qa3), (qb1, qb3) = quartiles(a), quartiles(b)
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else float("nan")
        line = (
            f"{name:16s} A {ma:10.4g} [{qa1:.4g}, {qa3:.4g}]"
            f"  B {mb:10.4g} [{qb1:.4g}, {qb3:.4g}]"
            f"  {change:+7.1%}  B lower in {wins}/{len(a)}"
        )
        if name in bounds:
            line += f"  {verdict(a, b, bounds[name])}"
        lines.append(line)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", help="checkout A, the baseline")
    ap.add_argument("b", help="checkout B, the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = (args.a, args.b)
    bench = json.loads((Path(args.a) / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = ([], [])
    for side in sides:
        removed = clear_bytecode(side)
        if removed:
            print(f"removed {removed} __pycache__ directories under "
                  f"{Path(side, 'src')}", flush=True)
    try:
        for k in range(args.pairs):
            seed = args.seed + k
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                runs[side].append(run_once(sides[side], args.workload, seed, seconds))
            print(f"pair {k + 1}/{args.pairs} (seed {seed}): wall_s "
                  f"A {runs[0][-1].get('wall_s', float('nan')):.3f} "
                  f"B {runs[1][-1].get('wall_s', float('nan')):.3f}", flush=True)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, {args.pairs} pairs, {seconds:g} s per run")
    for line in summarize(*runs, bench.get("end_to_end", ())):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
