"""CLI for the benchmark-regression gate.

Usage::

    python benchmarks/check_regression.py CURRENT.json BASELINE.json

Compares a fresh ``BENCH_*.json`` artifact against its committed
baseline with the rows of the artifact's schema in
``repro.eval.regression.RULES``; the tolerances are per-schema constants
there.  Every row reads only its named sections, so the host-provenance
``meta`` block newer artifacts carry is ignored against baselines
recorded before it existed.  Refresh a baseline by copying a trusted
run's artifact over the ``*_baseline.json`` file under
``benchmarks/artifacts/`` -- regenerate harness baselines on the same
runner class the workflow uses, since wall-clock baselines do not
transfer between machines.

Exit codes:

* 0 -- no regression;
* 1 -- at least one regression (the report lists each one);
* 2 -- bad input: an unreadable path, malformed JSON, an unknown schema,
  or current and baseline schemas that differ (one ``error:`` line on
  stderr).
"""

import argparse
import sys

from repro.eval.regression import ArtifactError, compare, load_artifact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline artifact")
    args = parser.parse_args(argv)
    try:
        report = compare(load_artifact(args.current), load_artifact(args.baseline))
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
