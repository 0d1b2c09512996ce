"""The alternating-pairs verdict of ``benchmarks/perf_pairs.py`` on
hand-made samples, and its exit codes against stub checkouts."""

import json
import os
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perf_pairs():
    sys.path.insert(0, os.path.join(REPO, "benchmarks"))
    try:
        import perf_pairs
    finally:
        sys.path.pop(0)
    return perf_pairs


PARENT = [17.2, 17.9, 18.2, 17.5, 17.75, 18.0, 17.3, 18.4, 17.6, 17.8]


def test_clear_gain():
    v = _perf_pairs().verdict(PARENT, [x * 0.7 for x in PARENT], "lower", 0.25)
    assert (v.outcome, v.wins, v.pairs) == ("gain", 10, 10)
    assert v.parent == pytest.approx((17.525, 17.775, 17.975))
    assert v.change[1] == pytest.approx(17.775 * 0.7)


def test_gain_needs_nine_tenths_of_the_pairs():
    change = [x * 0.7 for x in PARENT]
    change[0] = change[1] = 19.0  # two pairs lost
    v = _perf_pairs().verdict(PARENT, change, "lower", 0.25)
    assert (v.wins, v.outcome) == (8, "within bound")
    change[1] = PARENT[1]  # a tie counts for neither side
    assert _perf_pairs().verdict(PARENT, change, "lower", 0.25).wins == 8


def test_gain_needs_a_gap_wider_than_the_parents_iqr():
    v = _perf_pairs().verdict(PARENT, [x - 0.1 for x in PARENT], "lower", 0.25)
    assert v.wins == 10
    assert v.outcome == "within bound"


def test_gain_needs_ten_pairs():
    pp = _perf_pairs()
    v = pp.verdict(PARENT[:9], [x * 0.7 for x in PARENT[:9]], "lower", 0.25)
    assert (v.outcome, v.wins, v.pairs) == ("too few pairs", 9, 9)
    assert pp.verdict([2.0], [1.0], "lower", 0.25).outcome == "too few pairs"


def test_higher_is_better_for_rates():
    rates = [830.0, 820.0, 845.0, 810.0, 835.0, 828.0, 842.0, 815.0, 838.0, 825.0]
    pp = _perf_pairs()
    assert pp.verdict(rates, [r * 1.5 for r in rates], "higher", 0.25).outcome == "gain"
    assert pp.verdict(rates, [r * 0.7 for r in rates], "higher", 0.25).outcome == (
        "regression"
    )
    assert pp.verdict(rates, [r * 1.5 for r in rates], "lower", 0.25).outcome == (
        "regression"
    )


def test_regression_past_the_bound_only():
    pp = _perf_pairs()
    assert pp.verdict(PARENT, [x * 1.3 for x in PARENT], "lower", 0.25).outcome == (
        "regression"
    )
    assert pp.verdict(PARENT, [x * 1.1 for x in PARENT], "lower", 0.25).outcome == (
        "within bound"
    )


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [5.4, 9.6, 6.0, 8.8, 5.9, 9.1, 5.5, 9.4, 6.1, 8.9]
    change = [5.6, 9.3, 6.2, 9.0, 6.1, 8.7, 5.4, 9.5, 6.3, 9.2]
    pp = _perf_pairs()
    assert pp.verdict(parent, change, "lower", 0.25).outcome == "unresolved"
    # ... unless every change run beats every parent run.
    assert pp.verdict(parent, [x / 2 for x in change], "lower", 0.25).outcome == (
        "gain"
    )
    assert pp.verdict(parent, [5.3] * 10, "lower", 0.25).outcome == "within bound"


def test_bad_samples():
    pp = _perf_pairs()
    with pytest.raises(ValueError):
        pp.verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        pp.verdict([1.0], [0.0], "lower", 0.25)
    with pytest.raises(ValueError):
        pp.verdict([1.0], [1.0], "faster", 0.25)


#: A stub perfbench/run.py: it prints its arguments and the result
#: line its checkout keeps in result.json.
_STUB = textwrap.dedent("""
    import json, sys
    print(json.dumps({"run_record": {"argv": sys.argv[1:]}}))
    print(open("result.json").read())
""")


def _checkout(root, name, correct=True, run_seconds=20, stub=_STUB):
    """A directory with a BENCHMARK.json, a stub perfbench/run.py and
    the fixed metrics it prints."""
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": run_seconds,
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.25}],
    }))
    (checkout / "perfbench" / "run.py").write_text(stub)
    (checkout / "result.json").write_text(json.dumps({
        "correct": correct, "attempted": 1, "failed": 0,
        "metrics": {"wall_s": {"value": 2.0 if name == "parent" else 1.0,
                               "unit": "s"}},
    }))
    return checkout


def test_cli_runs_alternating_pairs(tmp_path, capsys):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    code = _perf_pairs().main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "victim-train", "--seed", "97", "--pairs", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "--workload victim-train --seed 97 --seconds 20 --trace 0" in out
    assert "pair 1 P: wall_s 2/1" in out
    assert "pair 2 C: wall_s 2/1" in out
    assert "wall_s (lower, 0.25): 2 [2, 2] -> 1 [1, 1], 0.500x, 2/2" in out
    assert out.rstrip().splitlines()[-2].endswith("2/2, gap 1 vs IQR 0: too few pairs")


def test_cli_refuses_incorrect_runs_and_differing_benchmarks(tmp_path):
    """Exit 1 on an incorrect run; exit 2 on a missing checkout or one
    whose BENCHMARK.json or perfbench/ differs from the parent's."""
    pp = _perf_pairs()
    parent = _checkout(tmp_path, "parent")
    wrong = _checkout(tmp_path / "a", "change", correct=False)
    args = ["--workload", "victim-train", "--pairs", "1", "--parent", str(parent)]
    assert pp.main(args + ["--change", str(wrong)]) == 1
    other = _checkout(tmp_path / "b", "change", run_seconds=5)
    assert pp.main(args + ["--change", str(other)]) == 2
    edited = _checkout(tmp_path / "c", "change", stub=_STUB + "# edited\n")
    assert pp.main(args + ["--change", str(edited)]) == 2
    assert pp.main(args + ["--change", str(tmp_path / "missing")]) == 2
