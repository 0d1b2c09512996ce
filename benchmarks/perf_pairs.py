"""Alternating parent/change pairs of the host-time benchmark, with a
verdict per end-to-end metric.

Usage::

    python benchmarks/perf_pairs.py --parent DIR --change DIR \\
        --workload victim-train --seed 0 --pairs 10

Each ``DIR`` is a checkout of one commit (a ``git clone`` or ``git
archive``) with ``perfbench/`` and ``BENCHMARK.json`` at its root; the
two ``BENCHMARK.json`` files and the two ``perfbench/`` trees must be
equal, byte for byte (a change that claims a gain may not edit the
benchmark).  Pair ``i`` runs the parent first when ``i`` is even and
the change first when it is odd.  Each run is the file's ``command``
with ``--workload W --seed S --seconds <run_seconds> --trace 0``, in
its own checkout.  Every metric's better direction and bound come from
the file's ``end_to_end`` list.

Verdicts (choosing-metrics guide, sections 6 and 8), per metric:

* ``gain`` -- at least ten pairs, the change wins at least 9 of every
  10 (a tie counts for neither side) and the medians differ, in the
  better direction, by more than the parent's interquartile range;
* ``too few pairs`` -- the same, over fewer than ten pairs;
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound, a fraction of the parent's median;
* ``unresolved`` -- neither, and either side's interquartile range is
  wider than the bound (as a fraction of its median), unless every
  change run reads better than every parent run;
* ``within bound`` -- otherwise.

Exit codes: 0 -- every run correct; 1 -- a run printed ``"correct":
false``, a nonzero ``failed`` or no result line (the pairs stop there);
2 -- a checkout without the benchmark, or differing ``BENCHMARK.json``
or ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

#: The fewest pairs a gain may rest on.
MIN_GAIN_PAIRS = 10


@dataclass(frozen=True)
class Verdict:
    """One metric's pairs, summarised.  Quartiles are ``(q1, median, q3)``."""

    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    outcome: str


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> Verdict:
    """The verdict on ``change[i]`` against ``parent[i]``, pair by pair,
    for a positive metric whose ``better`` is ``"lower"`` or
    ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if min(parent + change) <= 0:
        raise ValueError("metrics are positive times and rates")
    # sign * (p - c) > 0: the change reads better than the parent.
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p, c = _quartiles(parent), _quartiles(change)
    gap = sign * (p[1] - c[1])
    spread = max((q[2] - q[0]) / q[1] for q in (p, c))
    if 10 * wins >= 9 * len(parent) and gap > p[2] - p[0]:
        outcome = "gain" if len(parent) >= MIN_GAIN_PAIRS else "too few pairs"
    elif -gap / p[1] > bound:
        outcome = "regression"
    elif spread > bound and not all(
        sign * (pv - cv) > 0 for pv in parent for cv in change
    ):
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return Verdict(p, c, wins, len(parent), outcome)


def _tree(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every file under ``root``, bytecode
    caches aside."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def _run(checkout: Path, command: list[str]) -> tuple[dict | None, dict, str]:
    """(result line, run record, stdout) of one benchmark run."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record, result = {}, None
    for line in lines:
        if line.startswith('{"run_record"'):
            record = json.loads(line)["run_record"]
    if proc.returncode == 0 and lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
    return result, record, proc.stdout + proc.stderr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/perf_pairs.py")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benches = []
    for checkout in (args.parent, args.change):
        path = checkout / "BENCHMARK.json"
        if not (path.is_file() and (checkout / "perfbench").is_dir()):
            print(f"error: {checkout} has no BENCHMARK.json and perfbench/",
                  file=sys.stderr)
            return 2
        benches.append(json.loads(path.read_text()))
    if benches[0] != benches[1]:
        print("error: the two checkouts' BENCHMARK.json differ", file=sys.stderr)
        return 2
    if _tree(args.parent / "perfbench") != _tree(args.change / "perfbench"):
        print("error: the two checkouts' perfbench/ differ", file=sys.stderr)
        return 2
    bench = benches[0]
    metrics = bench["end_to_end"]
    command = bench["command"] + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    print(f"perf_pairs {args.workload} seed={args.seed} pairs={args.pairs}: "
          f"{' '.join(command)}", flush=True)

    values = {"parent": [], "change": []}
    peak_rss = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result, record, output = _run(getattr(args, side), command)
            if result is None or not result["correct"] or result["failed"]:
                print(f"FAIL pair {pair + 1} {side}: not a correct run\n{output}")
                return 1
            values[side].append({m["name"]: result["metrics"][m["name"]]["value"]
                                 for m in metrics})
            peak_rss[side].append(
                record.get("metrics", {}).get("peak_rss_mb", {}).get("value", 0.0)
            )
        first = "P" if order[0] == "parent" else "C"
        print(f"pair {pair + 1} {first}: " + ", ".join(
            f"{m['name']} {values['parent'][-1][m['name']]:.4g}/"
            f"{values['change'][-1][m['name']]:.4g}" for m in metrics
        ) + f", peak_rss_mb {peak_rss['parent'][-1]:.1f}/"
            f"{peak_rss['change'][-1]:.1f}", flush=True)

    print("metric (better, bound): parent median [q1, q3] -> change median "
          "[q1, q3], ratio, wins, gap vs parent IQR: verdict")
    for m in metrics:
        name = m["name"]
        v = verdict([run[name] for run in values["parent"]],
                    [run[name] for run in values["change"]], m["better"], m["bound"])
        (p1, pm, p3), (c1, cm, c3) = v.parent, v.change
        print(f"  {name} ({m['better']}, {m['bound']}): {pm:.4g} [{p1:.4g}, "
              f"{p3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}], {cm / pm:.3f}x, "
              f"{v.wins}/{v.pairs}, gap {abs(pm - cm):.4g} vs IQR {p3 - p1:.4g}: "
              f"{v.outcome}")
    print(f"  peak_rss_mb: {median(peak_rss['parent']):.1f} -> "
          f"{median(peak_rss['change']):.1f} (medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
