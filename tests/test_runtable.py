"""Checkpoint-resumable run-tables: cells, journal, resume, sharding.

The fleet-orchestration acceptance criteria:

* the cell list is a pure function of the spec (ordering, names,
  derived seeds independent of axis declaration order);
* shards partition the cell list exactly;
* the journal is append-only, fsync'd, and tolerates a torn final
  line (a mid-write crash) -- but only the final line;
* a table killed mid-sweep and resumed emits a results section
  bit-identical to an uninterrupted run, including after a real
  SIGKILL of the CLI subprocess;
* quarantined cells are checkpointed like results and survive resume.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.faults import FaultPlan, FaultSpec
from repro.eval.runtable import (
    RUNTABLE_SCHEMA,
    RUNTABLE_SETS,
    CheckpointJournal,
    JournalFormatError,
    RunTableSpec,
    _merge_artifacts,
    _shard_of,
    main as runtable_main,
    run_table,
    summarize_groups,
)

#: A tiny cheap table: 2x2x2 serving cells, sub-second total.
TINY = RunTableSpec(
    name="tiny",
    runner="serving",
    axes=(("channels", (1, 2)), ("slices", (4, 6))),
    replicates=2,
    base_params=(("tenants", 2), ("ops_per_slice", 3.0)),
)


class TestCells:
    def test_cells_are_deterministic_and_sorted(self):
        names = [cell.name for cell in TINY.cells()]
        assert names == [cell.name for cell in TINY.cells()]
        assert len(names) == len(set(names)) == 8
        assert names[0] == "tiny/channels=1/slices=4/r0"

    def test_axis_declaration_order_is_irrelevant(self):
        flipped = RunTableSpec(
            name="tiny",
            runner="serving",
            axes=(("slices", (4, 6)), ("channels", (1, 2))),
            replicates=2,
            base_params=(("tenants", 2), ("ops_per_slice", 3.0)),
        )
        assert [c.name for c in flipped.cells()] == [
            c.name for c in TINY.cells()
        ]

    def test_seeds_derive_from_cell_names(self):
        cells = TINY.cells()
        assert all(cell.seed is None for cell in cells)
        seeds = {cell.resolved_seed(0) for cell in cells}
        assert len(seeds) == len(cells)  # replicates independent
        assert cells[0].resolved_seed(0) != cells[0].resolved_seed(1)

    def test_overrides_hit_matching_cells_only(self):
        spec = RunTableSpec(
            name="t",
            runner="sec4d",
            axes=(("mode", ("a", "b")),),
            overrides=(("t/mode=b/*", (("extra", 1),)),),
        )
        by_name = {cell.name: cell.kwargs() for cell in spec.cells()}
        assert "extra" not in by_name["t/mode=a/r0"]
        assert by_name["t/mode=b/r0"]["extra"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RunTableSpec(name="x", runner="sec4d", replicates=0)
        with pytest.raises(ValueError):
            RunTableSpec(
                name="x", runner="sec4d",
                axes=(("a", (1,)), ("a", (2,))),
            )
        with pytest.raises(ValueError):
            RunTableSpec(name="x", runner="sec4d", axes=(("a", ()),))

    def test_shards_partition_the_cell_list(self):
        cells = TINY.cells()
        sharded = [
            cell.name
            for i in range(3)
            for cell in _shard_of(cells, i, 3)
        ]
        assert sorted(sharded) == sorted(c.name for c in cells)
        with pytest.raises(ValueError):
            _shard_of(cells, 3, 3)


class TestJournal:
    def test_round_trip_and_torn_tail(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        assert journal.load() == {}
        journal.append({"cell": "a", "result": {"x": 1}})
        journal.append({"cell": "b", "result": None})
        with open(journal.path, "a") as handle:
            handle.write('{"cell": "torn')
        records = journal.load()
        assert set(records) == {"a", "b"}
        # repair=True truncates the torn tail so appends stay valid.
        journal.load(repair=True)
        journal.append({"cell": "c", "result": {}})
        assert set(journal.load()) == {"a", "b", "c"}

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        journal.append({"cell": "a", "result": {}})
        with open(journal.path, "a") as handle:
            handle.write("garbage\n")
        journal.append({"cell": "b", "result": {}})
        with pytest.raises(ValueError, match="corrupt journal"):
            journal.load()

    def test_flipped_value_fails_its_crc(self, tmp_path):
        """One bit flipped inside a value (``42`` -> ``43``) leaves valid
        JSON behind; the line's CRC refuses it."""
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        journal.append({"cell": "a", "result": {"served": 42}})
        journal.append({"cell": "b", "result": {"served": 7}})
        assert journal.load()["a"] == {"cell": "a", "result": {"served": 42}}
        data = (tmp_path / "j.jsonl").read_bytes()
        (tmp_path / "j.jsonl").write_bytes(
            data.replace(b'"served": 42', b'"served": 43')
        )
        with pytest.raises(JournalFormatError, match="CRC mismatch at line 1"):
            journal.load()

    def test_record_without_crc_raises(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        with open(journal.path, "w") as handle:
            handle.write('{"cell": "a", "result": {}}\n')
        journal.append({"cell": "b", "result": {}})
        with pytest.raises(JournalFormatError, match="missing CRC at line 1"):
            journal.load()

    def test_numpy_values_load_as_plain_json(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        journal.append(
            {"cell": "a", "result": {"p99": np.float64(1.5), "n": np.int64(3),
                                     "pair": (1, 2)}}
        )
        assert journal.load() == {
            "a": {"cell": "a", "result": {"p99": 1.5, "n": 3, "pair": [1, 2]}}
        }

    def test_unterminated_complete_record_is_torn(self, tmp_path):
        """A crash after a record's last brace but before its newline:
        the record is dropped, so the next append starts a line of its
        own instead of running onto the fragment."""
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        journal.append({"cell": "a", "result": {}})
        with open(journal.path, "a") as handle:
            handle.write('{"cell": "b", "result": {}}')
        assert set(journal.load(repair=True)) == {"a"}
        journal.append({"cell": "c", "result": {}})
        assert set(journal.load()) == {"a", "c"}

    def test_resume_after_repair_truncate_mid_shard(self, tmp_path):
        """A shard killed mid-write: its journal ends in a torn line.
        Resuming the same shard repairs the tear, re-executes only the
        lost cell, and the shard artifact is bit-identical to an
        uninterrupted run of that shard."""
        reference = run_table(
            TINY, str(tmp_path), workers=2, tag="t", shard=(0, 2)
        )
        journal_path = tmp_path / "crash.shard0of2.journal.jsonl"
        with open(reference.journal_path) as handle:
            lines = handle.read().splitlines(keepends=True)
        assert len(lines) == 4
        # Three durable records plus half of the fourth, as a
        # mid-write SIGKILL would leave them.
        journal_path.write_text(
            "".join(lines[:3]) + lines[3][: len(lines[3]) // 2]
        )
        resumed = run_table(
            TINY, str(tmp_path), workers=2, tag="crash",
            shard=(0, 2), resume=True,
        )
        assert resumed.resumed == 3 and resumed.executed == 1
        assert resumed.artifact["results"] == reference.artifact["results"]
        # The repaired journal is whole again: every line parses.
        for line in journal_path.read_text().splitlines():
            json.loads(line)

    def test_multi_shard_merge_with_torn_final_line(self, tmp_path):
        """Two shards of one table, one journal torn mid-record: after
        resuming the torn shard, the merged shard artifacts equal an
        unsharded sweep of the same table."""
        full = run_table(TINY, str(tmp_path), workers=2, tag="whole")
        shard0 = run_table(
            TINY, str(tmp_path), workers=2, tag="m", shard=(0, 2)
        )
        run_table(TINY, str(tmp_path), workers=2, tag="m", shard=(1, 2))
        with open(shard0.journal_path, "r+") as handle:
            text = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(text[:-17])  # tear the final record mid-json
        torn_records = CheckpointJournal(shard0.journal_path).load()
        assert len(torn_records) == 3  # the torn record is dropped
        resumed = run_table(
            TINY, str(tmp_path), workers=2, tag="m",
            shard=(0, 2), resume=True,
        )
        assert resumed.resumed == 3 and resumed.executed == 1
        merged = _merge_artifacts(
            [
                str(tmp_path / "RUNTABLE_m.shard0of2.json"),
                str(tmp_path / "RUNTABLE_m.shard1of2.json"),
            ]
        )
        assert merged["results"] == full.artifact["results"]


#: Generated journal corruption: fixed draws, no example database.
GENERATED = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Records shaped like run-table checkpoints, one an error result whose
#: traceback holds newlines (escaped on disk).
JOURNAL_RECORDS = [
    {
        "cell": f"tiny/channels={channels}/r{replicate}",
        "runner": "serving",
        "seed": 1000 * channels + replicate,
        "wall_clock_s": 0.125 * (channels + replicate),
        "result": {"served": [channels, replicate], "p99_ns": 1.5e4},
    }
    for channels in (1, 2)
    for replicate in (0, 1)
] + [
    {
        "cell": "tiny/channels=4/r0",
        "runner": "serving",
        "seed": 7,
        "wall_clock_s": 0.5,
        "result": {"error": "Traceback:\n  boom", "attempts": ["timeout"]},
    }
]


@pytest.fixture(scope="module")
def recorded_journal(tmp_path_factory) -> bytes:
    journal = CheckpointJournal(
        str(tmp_path_factory.mktemp("journal") / "recorded.jsonl")
    )
    for record in JOURNAL_RECORDS:
        journal.append(record)
    with open(journal.path, "rb") as handle:
        return handle.read()


@GENERATED
@given(data=st.data())
def test_truncated_journal_loads_a_prefix(recorded_journal, tmp_path, data):
    """A journal cut at any byte loads the records whose lines are
    whole, and ``repair=True`` leaves a file that loads the same."""
    cut = data.draw(st.integers(0, len(recorded_journal)), label="cut")
    kept = recorded_journal[:cut]
    path = tmp_path / "cut.jsonl"
    path.write_bytes(kept)
    journal = CheckpointJournal(str(path))
    expected = {
        record["cell"]: record
        for record in JOURNAL_RECORDS[: kept.count(b"\n")]
    }
    assert journal.load() == expected
    assert journal.load(repair=True) == expected
    assert path.read_bytes() == kept[: kept.rfind(b"\n") + 1]
    assert journal.load() == expected


@GENERATED
@given(data=st.data())
def test_flipped_journal_loads_or_raises_journal_format_error(
    recorded_journal, tmp_path, data
):
    """Flipped bytes load the records as appended (a flip that drops the
    final newline tears that record off) or raise
    :class:`JournalFormatError`, never another exception: each line's
    CRC keeps a flip inside a value from loading as a different
    record."""
    flips = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(recorded_journal) - 1),
                st.integers(1, 255),
            ),
            min_size=1,
            max_size=3,
        ),
        label="flips",
    )
    corrupt = bytearray(recorded_journal)
    for position, mask in flips:
        corrupt[position] ^= mask
    path = tmp_path / "flipped.jsonl"
    path.write_bytes(bytes(corrupt))
    try:
        records = CheckpointJournal(str(path)).load()
    except JournalFormatError:
        return
    originals = {record["cell"]: record for record in JOURNAL_RECORDS}
    for cell, record in records.items():
        assert record == originals[cell]


class TestRunTable:
    def test_artifact_shape_and_determinism(self, tmp_path):
        first = run_table(TINY, str(tmp_path), workers=2, tag="t1")
        second = run_table(TINY, str(tmp_path), workers=2, tag="t2")
        artifact = first.artifact
        assert artifact["schema"] == RUNTABLE_SCHEMA
        assert artifact["results"] == second.artifact["results"]
        assert first.cells == 8 and first.executed == 8
        assert sorted(artifact["results"]) == [
            cell["name"] for cell in artifact["cells"]
        ]
        on_disk = json.load(open(first.artifact_path))
        assert on_disk["results"] == artifact["results"]

    def test_resume_skips_journaled_cells_bit_identically(self, tmp_path):
        full = run_table(TINY, str(tmp_path), workers=2, tag="full")
        # Keep only the first 3 journal records, as a crash would.
        partial = CheckpointJournal(
            str(tmp_path / "part.journal.jsonl")
        )
        with open(full.journal_path) as handle:
            lines = handle.read().splitlines()
        with open(partial.path, "w") as handle:
            handle.write("\n".join(lines[:3]) + "\n")
        resumed = run_table(
            TINY, str(tmp_path), workers=2, tag="part", resume=True
        )
        assert resumed.resumed == 3 and resumed.executed == 5
        assert resumed.artifact["results"] == full.artifact["results"]

    def test_fresh_run_discards_stale_journal(self, tmp_path):
        journal = CheckpointJournal(
            str(tmp_path / "fresh.journal.jsonl")
        )
        journal.append({"cell": "stale", "result": {"bogus": True}})
        result = run_table(
            TINY, str(tmp_path), workers=2, tag="fresh"
        )
        assert result.resumed == 0
        assert "stale" not in result.artifact["results"]

    def test_sharded_runs_cover_the_table(self, tmp_path):
        full = run_table(TINY, str(tmp_path), workers=2, tag="whole")
        merged = {}
        for index in range(2):
            shard = run_table(
                TINY,
                str(tmp_path),
                workers=2,
                tag="whole",
                shard=(index, 2),
            )
            assert shard.cells == 4
            merged.update(shard.artifact["results"])
        assert merged == full.artifact["results"]

    def test_quarantine_is_checkpointed_and_resumable(self, tmp_path):
        spec = RunTableSpec(
            name="q",
            runner="sec4d",
            axes=(("trials", (100, 200)),),
            retries=1,
        )
        faults = FaultPlan(
            cells=(
                ("q/trials=200/r0", FaultSpec("crash", until_attempt=99)),
            )
        )
        first = run_table(
            spec, str(tmp_path), workers=2, faults=faults, tag="q1"
        )
        assert first.quarantined == 1 and first.errors == 1
        bad = first.artifact["results"]["q/trials=200/r0"]
        assert bad["quarantined"] and bad["attempts"] == [
            "worker-lost", "worker-lost"
        ]
        # Resume with no faults: the quarantined record is kept as-is,
        # nothing re-executes.
        resumed = run_table(
            spec, str(tmp_path), workers=2, tag="q1", resume=True
        )
        assert resumed.executed == 0 and resumed.resumed == 2
        assert resumed.artifact["results"] == first.artifact["results"]

    def test_path_escaping_tag_refused_before_the_journal(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="artifact tag"):
            run_table(TINY, str(out), workers=2, tag="../x")
        assert list(tmp_path.iterdir()) == []

    def test_serial_workers_with_faults_refused(self, tmp_path):
        spec, faults = RUNTABLE_SETS["chaos"]()
        with pytest.raises(ValueError, match="workers >= 2"):
            run_table(
                spec, str(tmp_path), workers=1, faults=faults
            )


class TestCLI:
    def test_list_and_bad_shard(self, tmp_path, capsys):
        assert runtable_main(["--set", "demo", "--list"]) == 0
        out = capsys.readouterr().out
        assert "demo/channels=1/defense=None/r0" in out
        with pytest.raises(SystemExit):
            runtable_main(["--set", "demo", "--shard", "nope"])

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        """The issue's headline acceptance criterion, end to end."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        cmd = [
            sys.executable, "-m", "repro.eval", "runtable",
            "--set", "demo", "--out", str(tmp_path), "--workers", "2",
        ]
        subprocess.run(
            cmd + ["--tag", "ref"], env=env, check=True,
            capture_output=True,
        )
        reference = json.load(open(tmp_path / "RUNTABLE_ref.json"))

        victim = subprocess.Popen(
            cmd + ["--tag", "victim"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal = tmp_path / "victim.journal.jsonl"
        deadline = time.time() + 120
        while time.time() < deadline and victim.poll() is None:
            if journal.exists() and journal.read_text().count("\n") >= 1:
                break
            time.sleep(0.005)
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        assert not (tmp_path / "RUNTABLE_victim.json").exists()

        subprocess.run(
            cmd + ["--tag", "victim", "--resume"], env=env, check=True,
            capture_output=True,
        )
        resumed = json.load(open(tmp_path / "RUNTABLE_victim.json"))
        assert resumed["results"] == reference["results"]
        assert resumed["cells"] == reference["cells"]


# ----------------------------------------------------------------------
# Replicate aggregation
# ----------------------------------------------------------------------
class TestSummarize:
    @staticmethod
    def _artifact() -> dict:
        return {
            "results": {
                "t/a=1/r0": {"score": 1.0, "nested": {"depth": 10}},
                "t/a=1/r1": {"score": 2.0, "nested": {"depth": 20}},
                "t/a=1/r2": {"score": 3.0, "nested": {"depth": 30}},
                "t/a=2/r0": {"score": 7.0, "flag": True, "label": "x"},
                "t/a=3/r0": {"error": "boom"},
                "t/a=3/r1": {"score": 4.0},
            }
        }

    def test_mean_and_ci95_over_replicates(self):
        summary = summarize_groups(self._artifact())
        stats = summary["t/a=1"]["score"]
        assert stats["n"] == 3
        assert stats["mean"] == pytest.approx(2.0)
        # Sample std 1.0, t(df=2) = 4.303: half-width 4.303/sqrt(3).
        assert stats["ci95"] == pytest.approx(4.303 / 3**0.5, rel=1e-3)
        assert summary["t/a=1"]["nested.depth"]["mean"] == pytest.approx(20.0)

    def test_single_replicate_has_no_interval(self):
        summary = summarize_groups(self._artifact())
        stats = summary["t/a=2"]["score"]
        assert stats["n"] == 1 and stats["ci95"] is None

    def test_errored_cells_excluded_not_fatal(self):
        summary = summarize_groups(self._artifact())
        # r0 errored; the group aggregates its surviving replicate.
        assert summary["t/a=3"]["score"]["n"] == 1

    def test_non_numeric_leaves_are_not_metrics(self):
        summary = summarize_groups(self._artifact())
        assert set(summary["t/a=2"]) == {"score"}  # no flag, no label

    def test_metric_patterns_filter_paths(self):
        summary = summarize_groups(
            self._artifact(), metrics=["nested.*"]
        )
        assert set(summary["t/a=1"]) == {"nested.depth"}
        assert summary["t/a=2"] == {}

    def test_merge_refuses_conflicting_cells(self, tmp_path):
        for name, score in (("s0", 1.0), ("s1", 2.0)):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"results": {"t/a=1/r0": {"score": score}}})
            )
        with pytest.raises(ValueError, match="refusing to merge"):
            _merge_artifacts(
                [str(tmp_path / "s0.json"), str(tmp_path / "s1.json")]
            )

    def test_cli_summarize(self, tmp_path, capsys):
        path = tmp_path / "RUNTABLE_t.json"
        path.write_text(json.dumps(self._artifact()))
        assert runtable_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "t/a=1  score  n=3  2 +/-" in out
        assert "(single replicate)" in out
        # --list tolerates artifacts that do not exist yet (the docs
        # checker appends it to documented commands).
        missing = str(tmp_path / "nope.json")
        assert runtable_main(["summarize", missing, "--list"]) == 0
        assert "not generated yet" in capsys.readouterr().out
