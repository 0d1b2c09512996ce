"""Benchmark-regression gates over BENCH_*.json artifacts.

Every gate is a row of :data:`RULES`, keyed by the artifact's ``schema`` and
read by one interpreter, :func:`compare` (CLI: ``benchmarks/check_regression.py``).
Tolerances are per-schema constants in the rows; each schema's comment says
why its rows are exact or ratios.  Row kinds:

* ``flag`` -- the value must be true; ``text`` (pass) and ``fail`` lines
  format ``{field}``s from the node, and no ``text`` records no pass.
* ``equal`` -- the value must equal the baseline's; ``default`` stands in
  for a missing cell or key, else only values the baseline has are gated.
* ``bound`` -- the value must pass ``op`` (``>=`` floor, ``<=`` ceiling,
  ``<`` budget) against baseline x (1 -/+ ``tol``), a constant ``ref``, or
  the current value at path ``ref``; ``optional`` skips absent values.
* ``present`` -- a cell or section (with a ``key``: a value) the baseline
  has must be in the current artifact.

``at`` is a dotted path: a final ``*`` gates each cell of a section, a final
``?`` skips the row when the section is absent, and other missing sections
read as empty.  ``key`` is a dotted key in the node or a function of it;
``when`` picks the nodes gated.  A gated value that is missing or not a
number is a violation naming its cell and key.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

__all__ = [
    "ATTACK_SEARCH_SCHEMA", "BAKEOFF_ACCURACY_BUDGET_PCT", "BAKEOFF_SCHEMA",
    "DEFENDED_HAMMER_SCHEMA", "HARNESS_SCHEMA", "OBS_SCHEMA", "RULES", "RUNTABLE_BENCH_SCHEMA",
    "SERVING_LIVE_SCHEMA", "SERVING_SCHEMA", "ArtifactError", "RegressionReport", "Rule",
    "compare", "host_meta", "load_artifact", "protected_accuracies", "save_artifact",
    "bound", "equal", "flag", "present",
]

HARNESS_SCHEMA = "dram-locker-bench/1"  # python -m repro.eval matrix
ATTACK_SEARCH_SCHEMA = "dram-locker-attack-search-bench/1"  # benchmarks/bench_attack_search.py
DEFENDED_HAMMER_SCHEMA = "dram-locker-defended-hammer-bench/1"  # bench_defended_hammer.py
SERVING_SCHEMA = "dram-locker-serving-bench/1"  # bench_serving.py
SERVING_LIVE_SCHEMA = "dram-locker-serving-live-bench/1"  # bench_serving_live.py
RUNTABLE_BENCH_SCHEMA = "dram-locker-runtable-bench/1"  # bench_runtable.py
BAKEOFF_SCHEMA = "dram-locker-bakeoff-bench/1"  # bench_bakeoff.py
OBS_SCHEMA = "dram-locker-obs-bench/1"  # bench_obs.py

#: The bake-off chaos cell's post-recovery accuracy must land within this many
#: percentage points of clean; the recorder refuses and the gate fails beyond it.
BAKEOFF_ACCURACY_BUDGET_PCT = 0.5


class ArtifactError(ValueError):
    """An unreadable or malformed artifact, an unknown schema, or a mixed pair."""


def load_artifact(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ArtifactError(f"artifact {path} is not a JSON object")
    return document


def _json_fallback(value: Any) -> Any:
    item = getattr(value, "item", None)
    if callable(item):
        return item()  # numpy scalars
    return str(value)


def save_artifact(path: str, document: dict) -> str:
    """Publish ``document`` as JSON at ``path`` and return ``path``.

    Atomic: the document is dumped to ``<path>.tmp`` and renamed over
    ``path``, so the file is either the old complete one or the new
    complete one, never a torn write.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True, default=_json_fallback)
            handle.write("\n")
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):  # the dump failed half-way
            os.unlink(tmp_path)
    return path


def host_meta() -> dict:
    """Provenance block stamped into every benchmark/harness artifact.

    Deliberately contains **no wall-clock timestamp**: two artifacts
    produced on the same host from the same tree must stay
    byte-identical (the run-table resume-identity gate depends on it).
    """
    try:
        import numpy

        numpy_version = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dep in CI
        numpy_version = "unknown"
    try:
        sha = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def _protected_accuracy(payload: dict):
    """The ``final_accuracy`` of a ``"protected": true`` attack, or a figure runner's
    under ``stats["with DRAM-Locker"]``; None for errored and open results."""
    if "error" in payload:
        return None
    if payload.get("protected") and payload.get("final_accuracy") is not None:
        return payload["final_accuracy"]
    locked = _get(payload, "stats.with DRAM-Locker")
    return locked.get("final_accuracy") if isinstance(locked, dict) else None


def protected_accuracies(artifact: dict) -> dict[str, float]:
    """Every protected-accuracy metric a harness artifact carries, by name."""
    found = {name: _protected_accuracy(payload) for name, payload in
             artifact.get("results", {}).items() if isinstance(payload, dict)}
    return {name: float(value) for name, value in found.items() if value is not None}


@dataclass
class RegressionReport:
    """Outcome of one artifact-vs-baseline comparison."""

    violations: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"{len(self.checks)} check(s), {len(self.violations)} violation(s)"]
        lines += [f"  ok: {check}" for check in self.checks]
        lines += [f"  REGRESSION: {violation}" for violation in self.violations]
        return "\n".join(lines)


@dataclass(frozen=True)
class Rule:
    """One gate row (see the module docstring); ``text`` names its value in messages."""

    kind: str
    at: str
    key: str | Callable[[dict], Any] = ""
    text: str | None = None
    fail: str | None = None
    when: Callable[[dict], Any] | None = None
    default: Any = None
    op: str = ">="
    tol: float = 0.0
    ref: float | str | None = None
    optional: bool = False
    unit: str = ""


flag, equal, bound, present = (partial(Rule, k) for k in ("flag", "equal", "bound", "present"))
_OPS = {">=": (operator.ge, "floor"), "<=": (operator.le, "ceiling"), "<": (operator.lt, "budget")}


def _latencies(chaos: dict) -> list | None:
    """Every injection's detection latency, or None when any is missing."""
    latencies = chaos.get("detection_latency_ns") or []
    return latencies if latencies and None not in latencies else None


_ENGINE_CHECK = dict(text="events engine bit-identical to bulk reference",
                     fail="events engine diverged from the bulk reference",
                     when=lambda cell: cell.get("engine_check") is not None)

RULES: dict[str, tuple[Rule, ...]] = {
    # Wall seconds only compare on the baseline's runner class; accuracy is what the locker keeps.
    HARNESS_SCHEMA: (
        flag("results.*", lambda result: "error" not in result, None, "scenario failed: {error}"),
        bound("timing", "total_s", "runtime", op="<=", tol=0.10, optional=True, unit="s"),
        present("results.*", _protected_accuracy, "protected accuracy"),
        bound("results.*", _protected_accuracy, "protected accuracy", tol=0.10, optional=True),
    ),
    # Engine equivalence is correctness, so exact; speedup ratios transfer across runner classes.
    ATTACK_SEARCH_SCHEMA: (
        flag("families.*", "results_identical", None, "suffix engine diverged from full-forward"),
        present("families.*"),
        bound("families.*", "speedup", tol=0.35, unit="x"),
        flag("pool?", "results_identical", None, "persistent worker pool changed matrix results"),
    ),
    # As attack-search, for the bulk engine against the scalar reference.
    DEFENDED_HAMMER_SCHEMA: (
        flag("defenses.*", "results_identical", None, "bulk engine diverged from scalar reference"),
        present("defenses.*"),
        bound("defenses.*", "speedup", tol=0.35, unit="x"),
    ),
    # Simulated SLA stats, flip counts and engine checks are exact; scaling is a throughput ratio.
    SERVING_SCHEMA: (
        flag("cells.*", "engine_check.identical", **_ENGINE_CHECK),
        present("cells.*"),
        equal("cells.*", "sla_fingerprint"),
        present("scaling.*"),
        bound("scaling.*", "ratio", "channel-scaling ratio", tol=0.25, unit="x"),
        equal("cells.*", "victim_flip_events", "protected victim flip events", default=0,
              when=lambda cell: cell.get("protected")),
        present("victim?"),
        flag("victim?", lambda victim: victim.get("skipped") or victim.get("accuracy_unchanged"),
             "accuracy {post_attack_accuracy}% vs clean {clean_accuracy}%, skipped={skipped}"),
    ),
    # Trace replays are deterministic simulation, so every row is exact or self-relative.
    SERVING_LIVE_SCHEMA: (
        flag("replay.cells.*", "identical", "matches closed loop", "diverged from closed loop"),
        present("replay.cells.*"),
        present("overload.cells.*"),
        *(equal("overload.cells.*", key) for key in ("sla_fingerprint", "shed")),
        flag("overload.cells.*", "holds_p99", "sojourn p99 {sojourn_p99_ns}ns holds target "
             "{p99_target_ns}ns", when=lambda cell: "holds_p99" in cell),
        bound("overload.cells.*", "sojourn_p99_ns", "admitted sojourn p99", op="<=",
              ref="overload.cells.open.sojourn_p99_ns", optional=True, unit="ns",
              when=lambda cell: "p99_target_ns" in cell),
        present("colocated?"),
        equal("colocated?", "victim_flip_events", default=0),
        present("live?"),
        flag("live?", "conserved", "conserved offered={offered} == served={served} + shed={shed}"),
    ),
    # Recovery and fault containment are deterministic; overhead is a noisy ~0.2 s wall ratio.
    RUNTABLE_BENCH_SCHEMA: (
        flag("checkpoint", "results_identical", "journalled results identical to plain run_matrix",
             "journalled results diverged from plain run_matrix"),
        flag("recovery", "resume_identical", "SIGKILL at {journal_lines_at_kill} journal line(s) + "
             "--resume is bit-identical", "resumed artifact diverged from uninterrupted run"),
        flag("recovery", "journal_lines_at_kill", None,
             "victim run was killed before journalling any cell (resume path not exercised)"),
        *(equal("chaos", key) for key in ("quarantined", "errors", "recovered")),
        present("chaos.channel_fault?"),
        flag("chaos.channel_fault?",
             lambda fault: fault.get("conserved") and not fault.get("victim_flip_events"),
             "conserved {offered_ops} = {served_ops} + {shed_ops} ops, {victim_flip_events} flips"),
        bound("checkpoint", "overhead_ratio", "overhead", op="<=", tol=0.75, optional=True),
    ),
    # Detect-and-recover, engines, SLA stats and locker flips are exact; the frontier is a ratio.
    BAKEOFF_SCHEMA: (
        present("chaos?"),
        flag("chaos?", "all_injections_detected",
             "{injections_detected}/{injected_corruptions} injected corruption(s) detected"),
        bound("chaos?", "accuracy_delta_pct", op="<=", ref=BAKEOFF_ACCURACY_BUDGET_PCT, unit="pp"),
        flag("chaos?", _latencies, "detection latency recorded for every injection",
             "detection latency missing for at least one injection"),
        bound("chaos?", lambda chaos: max(_latencies(chaos) or [None]), "worst detection latency",
              op="<=", tol=0.25, optional=True, unit="ns"),
        flag("serving_cells.*", "engine_check.identical", **_ENGINE_CHECK),
        present("serving_cells.*"),
        equal("serving_cells.*", "sla_fingerprint"),
        equal("serving_cells.*", "victim_flip_events", "locker victim flip events", default=0,
              when=lambda cell: cell.get("defense") == "DRAM-Locker"),
        present("frontier.*"),
        bound("frontier.*", "worst_defended_accuracy", tol=0.10, optional=True),
    ),
    # Telemetry must be inert (exact); the disabled path has a budget, the enabled one a ratio.
    OBS_SCHEMA: (
        flag("cells.*", "payload_identical", "enabled payload bit-identical to disabled run",
             "telemetry changed the simulation payload"),
        bound("cells.*", "disabled_pct", "disabled-path overhead", op="<", ref=1.0, unit="%"),
        present("cells.*"),
        *(equal("cells.*", key) for key in ("updates", "audit_events")),
        bound("cells.*", "enabled_ratio", "enabled-path ratio", op="<=", tol=0.50, optional=True),
    ),
}


def _get(node, path: str):
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    return node


def _nodes(document: dict, at: str) -> dict[str, dict]:
    """The nodes a row gates, by dotted path, in name order."""
    parent, _, last = at.rpartition(".")
    if last == "*":
        section = _get(document, parent)
        cells = sorted(section.items()) if isinstance(section, dict) else []
        return {f"{parent}.{name}": cell if isinstance(cell, dict) else {} for name, cell in cells}
    node = _get(document, at.rstrip("?"))
    if node is None and at.endswith("?"):
        return {}
    return {at.rstrip("?"): node if isinstance(node, dict) else {}}


def _value(rule: Rule, node: dict | None):
    if node is None:
        return None
    return rule.key(node) if callable(rule.key) else _get(node, rule.key) if rule.key else node


def _gate(rule: Rule, where: str, node: dict, base_node, current: dict):
    """``(passed, line)`` for one flag, equal or bound node; no line records nothing."""
    value, label = _value(rule, node), rule.text or rule.key
    if rule.kind == "flag":
        text = rule.text if value else rule.fail or rule.text
        fields = defaultdict(lambda: None, node)
        return bool(value), text and f"{where}: {text.format_map(fields)}"
    base = _value(rule, base_node)
    if rule.kind == "equal":
        value, base = (rule.default if side is None else side for side in (value, base))
        if base is None:
            return True, None  # the baseline does not record this value
        if value == base:
            return True, f"{where}: {label} matches baseline"
        return False, f"{where}: {label} diverged from baseline ({value!r} != {base!r})"
    if rule.ref is None and base_node is None:
        return True, None  # a cell new in this run has nothing to regress from
    ref = base if rule.ref is None else rule.ref
    ref = _get(current, ref) if isinstance(rule.ref, str) else ref
    if rule.optional and (value is None or ref is None):
        return True, None
    if not all(isinstance(side, (int, float)) and not isinstance(side, bool)
               for side in (value, ref)):
        return False, f"{where}: {label} missing or non-numeric ({value!r} vs {ref!r})"
    passes, word = _OPS[rule.op]
    limit, unit = ref * (1.0 - rule.tol if rule.op == ">=" else 1.0 + rule.tol), rule.unit
    against = f"baseline {ref:.4g}{unit}" if rule.ref is None else rule.ref
    line = f"{where}: {label} {value:.4g}{unit} vs {against} ({word} {limit:.2f}{unit})"
    return passes(value, limit), line


def compare(current: dict, baseline: dict) -> RegressionReport:
    """Gate ``current`` against ``baseline`` with the rows of its schema.  A pair
    of an unknown or of two schemas raises :class:`ArtifactError`: it would skip
    every baseline-relative row and pass vacuously."""
    schema = current.get("schema")
    if schema not in RULES:
        raise ArtifactError(f"unknown artifact schema {schema!r}")
    if baseline.get("schema") != schema:
        raise ArtifactError(f"current schema {schema!r} != baseline {baseline.get('schema')!r}")
    report = RegressionReport()
    for rule in RULES[schema]:
        nodes, base_nodes = _nodes(current, rule.at), _nodes(baseline, rule.at)
        if rule.kind == "present":
            report.violations += [
                f"{where}{': ' + rule.text if rule.key else ''} missing from current artifact"
                for where, base_node in base_nodes.items()
                if _value(rule, base_node) is not None and _value(rule, nodes.get(where)) is None
            ]
            continue
        for where, node in nodes.items():
            if rule.when is None or rule.when(node):
                ok, line = _gate(rule, where, node, base_nodes.get(where), current)
                if line:
                    (report.checks if ok else report.violations).append(line)
    return report
