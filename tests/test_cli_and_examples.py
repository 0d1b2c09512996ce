"""The CLI entry point and example-facing integration seams (cheap paths)."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.eval.__main__ import main
from repro.eval.runtable import CRC_KEY, _crc32


def journal_line(record: dict) -> bytes:
    """One checkpoint-journal line as ``CheckpointJournal.append``
    writes it: the record and its CRC."""
    stamped = {**record, CRC_KEY: _crc32(record)}
    return json.dumps(stamped, sort_keys=True).encode() + b"\n"


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig8" in out

    def test_unknown_experiment(self, capsys):
        assert main(["nonsense"]) == 2

    @pytest.mark.parametrize(
        "name", ["fig1b", "fig5", "table1", "fig7a", "fig7b", "rowclone"]
    )
    def test_cheap_runners(self, name, capsys):
        assert main([name]) == 0
        assert capsys.readouterr().out.strip()

    def test_all_cheap(self, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert "fig7b" in out and "DRAM-Locker" in out

    @pytest.mark.parametrize(
        "argv", [["matrix", "--set", "cheap"], ["runtable", "--set", "demo"]]
    )
    def test_path_escaping_tag_rejected_before_any_cell(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        """``--tag`` names the artifact (and journal) file, so ``../x``
        would write outside ``--out``: exit 2 before anything runs."""
        from repro.eval import harness, runtable

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "run_matrix", no_cells)
        monkeypatch.setattr(runtable, "run_matrix", no_cells)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), "--tag", "../x"])
        assert exc.value.code == 2
        assert "--tag" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shard", ["0/0", "3/2", "x"])
    def test_bad_runtable_shard_is_a_usage_error(
        self, shard, monkeypatch, capsys
    ):
        """A malformed or out-of-range ``--shard`` exits 2 with
        argparse's usage message, before any cell runs."""
        from repro.eval import runtable

        def no_table(*args, **kwargs):
            raise AssertionError("a table ran")

        monkeypatch.setattr(runtable, "run_table", no_table)
        with pytest.raises(SystemExit) as exc:
            main(["runtable", "--set", "demo", "--shard", shard])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.count("usage: ") == 1
        assert "argument --shard: " in err and repr(shard) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "journal",
        [
            journal_line({"cell": "a", "result": 1}) + b"not json\n"
            + journal_line({"cell": "b", "result": 2}),
            journal_line({"result": 1}),
            b"[1, 2]\n",
            b'{"cell": "a", "result": "\xff", "crc32": 0}\n',
            journal_line({"cell": "a", "result": 42}).replace(b"42", b"43"),
            b'{"cell": "a", "result": 1}\n',
            None,  # the journal path is a directory: OSError
        ],
        ids=["bad-middle-line", "no-cell", "not-an-object", "undecodable",
             "crc-mismatch", "no-crc", "unreadable"],
    )
    def test_bad_runtable_journal_exits_2(
        self, journal, tmp_path, monkeypatch, capsys
    ):
        """``runtable --resume`` on a journal that cannot be read or
        parsed: one stderr line and exit 2, before any cell runs."""
        from repro.eval import runtable

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(runtable, "run_matrix", no_cells)
        path = tmp_path / "demo.journal.jsonl"
        if journal is None:
            path.mkdir()
        else:
            path.write_bytes(journal)
        argv = ["runtable", "--set", "demo", "--out", str(tmp_path),
                "--resume"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


class TestServeBadTrace:
    """``python -m repro.serve replay|live`` on a trace file that cannot
    be read or parsed: one stderr line and exit 2 (usage), never a
    traceback and never exit 1, which means "replay diverged"."""

    @staticmethod
    def _write(tmp_path, case):
        import json

        from repro.serving import TRACE_SCHEMA

        if case == "seven-byte-npz":
            path = tmp_path / "trace.npz"
            path.write_bytes(b"garbage")
        elif case == "random-jsonl":
            path = tmp_path / "trace.jsonl"
            path.write_bytes(bytes(range(0x80, 0xC0)))  # 64 non-UTF-8 bytes
        elif case == "header-only-jsonl":
            path = tmp_path / "trace.jsonl"
            path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n")
        else:
            path = tmp_path / "missing.npz"
        return path

    CASES = ["seven-byte-npz", "random-jsonl", "header-only-jsonl", "missing"]

    @pytest.mark.parametrize("case", CASES)
    def test_trace_load_raises_one_typed_error(self, case, tmp_path):
        from repro.serving import Trace, TraceFormatError

        path = self._write(tmp_path, case)
        expected = FileNotFoundError if case == "missing" else TraceFormatError
        with pytest.raises(expected) as error:
            Trace.load(path)
        assert str(path) in str(error.value)
        assert issubclass(TraceFormatError, ValueError)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize(
        "command", [["replay"], ["live", "--speedup", "10"]]
    )
    def test_bad_trace_exits_2_with_one_line(
        self, command, case, tmp_path, capsys
    ):
        from repro.serve import main as serve_main

        path = self._write(tmp_path, case)
        argv = [command[0], str(path), *command[1:]]
        assert serve_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert path.name in lines[0]
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize(
        "command", [["replay"], ["live", "--speedup", "10"]]
    )
    def test_trace_without_serving_config_exits_2_with_one_line(
        self, command, tmp_path, capsys
    ):
        from repro.serve import main as serve_main
        from repro.serving import Trace

        path = tmp_path / "trace.npz"
        Trace(ops=[], slices=1, slice_duration_s=1e-3).save(path)
        assert serve_main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert path.name in lines[0] and "serving config" in lines[0]

    def test_replay_trace_without_serving_config_raises_the_typed_error(self):
        from repro.serving import Trace, TraceFormatError, replay_trace

        trace = Trace(ops=[], slices=1, slice_duration_s=1e-3)
        with pytest.raises(TraceFormatError, match="no embedded serving config"):
            replay_trace(trace)


class TestObsBadInput:
    """``python -m repro.obs export|audit --input`` on a file that cannot
    be read or parsed as jsonl: one stderr line and exit 2, never a
    traceback."""

    CASES = {
        "missing": None,
        "non-utf8": bytes(range(0x80, 0xC0)),
        "non-json-line": b'{"name": "a", "kind": "a"}\nnot json\n',
        "not-an-object": b'{"name": "a", "kind": "a"}\n[1, 2]\n',
    }

    @classmethod
    def _write(cls, tmp_path, case):
        path = tmp_path / f"{case}.jsonl"
        if cls.CASES[case] is not None:
            path.write_bytes(cls.CASES[case])
        return path

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_read_jsonl_raises_one_typed_error(self, case, tmp_path):
        from repro.obs.trace import JsonlFormatError, read_jsonl

        path = self._write(tmp_path, case)
        expected = FileNotFoundError if case == "missing" else JsonlFormatError
        with pytest.raises(expected) as error:
            read_jsonl(str(path))
        assert str(path) in str(error.value)
        assert issubclass(JsonlFormatError, ValueError)

    @pytest.mark.parametrize("case", [*sorted(CASES), "no-key"])
    @pytest.mark.parametrize("command", ["export", "audit"])
    def test_bad_input_exits_2_with_one_line(
        self, command, case, tmp_path, capsys
    ):
        from repro.obs.__main__ import main as obs_main

        if case == "no-key":  # a trace span without a name, an audit
            path = tmp_path / "no-key.jsonl"  # event without a kind
            path.write_text('{"ph": "X"}\n')
        else:
            path = self._write(tmp_path, case)
        assert obs_main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert path.name in lines[0]
        assert "Traceback" not in captured.err


class TestBadArguments:
    """Flag values and inputs no CLI run can use: exit 2, nothing on
    stdout, one usage or ``error:`` message on stderr, never a
    traceback."""

    @staticmethod
    def _assert_usage_error(capsys, code):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(("usage: ", "error: "))
        assert "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize(
        "flags",
        [["--engine", "nope"], ["--defense", "nope"], ["--tenants", "0"],
         ["--tenants", "-2"], ["--tenants", "x"], ["--channels", "0"],
         ["--slices", "0"]],
        ids=lambda flags: " ".join(flags),
    )
    def test_serve_record_flags(self, flags, tmp_path, capsys):
        from repro.serve import main as serve_main

        with pytest.raises(SystemExit) as exc:
            serve_main(["record", *flags, "--out", str(tmp_path / "t.npz")])
        err = self._assert_usage_error(capsys, exc.value.code)
        assert f"argument {flags[0]}: " in err
        assert list(tmp_path.iterdir()) == []

    def test_serve_record_unknown_suffix(self, tmp_path, capsys):
        from repro.serve import main as serve_main

        out = tmp_path / "trace.txt"
        code = serve_main(["record", "--slices", "1", "--out", str(out)])
        err = self._assert_usage_error(capsys, code)
        assert err.count("\n") == 1 and "'.txt'" in err
        assert list(tmp_path.iterdir()) == []

    def test_serve_record_checks_the_suffix_before_recording(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.serve

        def record(*args, **kwargs):
            raise AssertionError("recorded before checking the --out suffix")

        monkeypatch.setattr(repro.serve, "record_serving_trace", record)
        out = tmp_path / "trace.txt"
        code = repro.serve.main(
            ["record", "--channels", "4", "--out", str(out)]
        )
        err = self._assert_usage_error(capsys, code)
        assert err.count("\n") == 1 and "'.txt'" in err
        assert list(tmp_path.iterdir()) == []

    def test_trace_save_raises_the_typed_error(self, tmp_path):
        from repro.serving import Trace, TraceFormatError

        trace = Trace(ops=[], slices=1, slice_duration_s=1e-3)
        with pytest.raises(TraceFormatError, match="unknown trace suffix"):
            trace.save(tmp_path / "trace.txt")

    @pytest.mark.parametrize(
        "flags",
        [["--engine", "nope"], ["--channels", "0"], ["--slices", "0"]],
        ids=lambda flags: " ".join(flags),
    )
    def test_obs_record_flags(self, flags, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        with pytest.raises(SystemExit) as exc:
            obs_main(["record", *flags, "--out", str(tmp_path / "obs")])
        err = self._assert_usage_error(capsys, exc.value.code)
        assert f"argument {flags[0]}: " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("listing", [[], ["--list"]], ids=["", "list"])
    @pytest.mark.parametrize("case", ["missing", "not-json", "not-an-object"])
    def test_runtable_summarize_bad_artifact(
        self, case, listing, tmp_path, capsys
    ):
        path = tmp_path / f"{case}.json"
        if case == "not-json":
            path.write_text("not json\n")
        elif case == "not-an-object":
            path.write_text("[1, 2]\n")
        code = main(["runtable", "summarize", *listing, str(path)])
        if case == "missing" and listing:
            # ``--list`` reports a table not run yet; it is not an error.
            assert code == 0
            assert capsys.readouterr().out == f"{path}: not generated yet\n"
            return
        err = self._assert_usage_error(capsys, code)
        assert err.count("\n") == 1 and str(path) in err


EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_without_running(path):
    """Every example imports against the current package (ruff does not
    resolve imports) and runs nothing until called as a script."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
