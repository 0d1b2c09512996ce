"""The CLI entry point and example-facing integration seams (cheap paths)."""

import pytest

from repro.eval.__main__ import main


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
