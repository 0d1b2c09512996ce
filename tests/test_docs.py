"""The docs cannot drift from the code: every fenced ``python`` block
in ``docs/*.md`` must execute, and every ``python -m repro.eval``
command in a fenced ``bash`` block must run (list-mode, so the check
stays seconds-scale).  CI runs this module as its docs job.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = os.path.join(REPO, "docs")

DOC_FILES = sorted(
    name for name in os.listdir(DOCS) if name.endswith(".md")
)

_FENCE = re.compile(r"```(\w+)\n(.*?)```", re.S)


def _blocks(path: str, language: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return [
        body for lang, body in _FENCE.findall(text) if lang == language
    ]


@pytest.fixture()
def pristine_registries():
    """Docs snippets register demo attacks/defenses/runners; none of
    that may leak into the rest of the suite."""
    from repro.attacks import registry
    from repro.defenses import builders
    from repro.eval import runners

    saved = (
        dict(registry.ATTACKS),
        dict(builders.DEFENDED_HAMMER_DEFENSES),
        dict(runners.SCENARIO_RUNNERS),
    )
    try:
        yield
    finally:
        registry.ATTACKS.clear()
        registry.ATTACKS.update(saved[0])
        builders.DEFENDED_HAMMER_DEFENSES.clear()
        builders.DEFENDED_HAMMER_DEFENSES.update(saved[1])
        runners.SCENARIO_RUNNERS.clear()
        runners.SCENARIO_RUNNERS.update(saved[2])


def test_docs_exist_and_are_linked():
    assert "ARCHITECTURE.md" in DOC_FILES
    assert "DEFENSES.md" in DOC_FILES
    assert "EXTENDING.md" in DOC_FILES
    assert "FLEET.md" in DOC_FILES
    assert "OBSERVABILITY.md" in DOC_FILES
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for name in (
        "docs/ARCHITECTURE.md",
        "docs/DEFENSES.md",
        "docs/EXTENDING.md",
        "docs/FLEET.md",
        "docs/OBSERVABILITY.md",
    ):
        assert name in readme, f"README does not link {name}"


@pytest.mark.parametrize("doc", DOC_FILES)
def test_python_snippets_execute(doc, pristine_registries):
    """Blocks of one file share a namespace (later blocks may build on
    earlier definitions), in order, like a reader following along."""
    blocks = _blocks(os.path.join(DOCS, doc), "python")
    namespace: dict = {}
    for index, block in enumerate(blocks):
        code = compile(block, f"{doc}[python #{index}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs


def _checkable(command: str) -> list[str] | None:
    """Rewrite one documented shell command into a fast, side-effect
    free invocation, or None when it is not a repro CLI call."""
    try:
        argv = shlex.split(command)
    except ValueError:
        return None
    if argv[:3] != ["python", "-m", "repro.eval"]:
        return None
    argv[0] = sys.executable
    cleaned: list[str] = []
    skip_value = False
    for arg in argv:
        if skip_value:
            skip_value = False
            continue
        if arg in ("--out", "--workers", "--tag"):
            skip_value = True
            continue
        cleaned.append(arg)
    if (
        "matrix" in cleaned or "runtable" in cleaned
    ) and "--list" not in cleaned:
        cleaned.append("--list")
    return cleaned


@pytest.mark.parametrize("doc", DOC_FILES)
def test_cli_invocations_run(doc):
    commands = [
        line.strip()
        for block in _blocks(os.path.join(DOCS, doc), "bash")
        for line in block.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    checkable = [argv for argv in map(_checkable, commands) if argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for argv in checkable:
        proc = subprocess.run(
            argv, cwd=REPO, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (
            f"{doc}: `{' '.join(argv)}` failed:\n{proc.stderr}"
        )
