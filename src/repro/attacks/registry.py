"""The attack registry: one dispatch point for every weight attack.

Defenses are dispatched through name -> factory tables
(:mod:`repro.defenses.builders`); attacks get the same treatment
here so the evaluation matrix can enumerate them declaratively.  An
:class:`AttackSpec` binds a name to

* a **builder** -- ``(AttackContext, **params) -> Attack`` -- that
  instantiates the attack against a victim model, optionally routed
  through the DRAM simulator (``store``/``driver``), and
* a **summarizer** that flattens the attack's native result object into
  the uniform payload the harness records (``accuracies``,
  ``executed_flips``, ``final_accuracy``, ``metrics``).

Modules register themselves at import time with the
:func:`register_attack` decorator; importing :mod:`repro.attacks` pulls
every family in.  Extending the matrix with a new attack is therefore:
write the class, decorate a builder, done -- the harness's ``attack``
runner, the canned ``attacks`` scenario set, and the registry tests
pick it up by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from ..engines import SEARCH_ENGINES, resolve_engine
from ..nn.data import Dataset
from ..nn.quant import QuantizedModel
from ..nn.storage import WeightStore
from .hammer import HammerDriver

__all__ = [
    "Attack",
    "AttackContext",
    "AttackSpec",
    "ATTACKS",
    "register_attack",
    "build_attack",
    "run_attack",
    "available_attacks",
]


@runtime_checkable
class Attack(Protocol):
    """What the registry requires of an attack object."""

    def run(self, iterations: int) -> Any:
        """Execute up to ``iterations`` attack steps; return a result."""
        ...


@dataclass
class AttackContext:
    """Everything a builder may need to aim an attack at a victim.

    ``store``/``driver`` route flips through the DRAM simulator (both
    ``None`` means a pure software attack); ``before_execute`` is the
    tenant-traffic hook whose privileged accesses open DRAM-Locker's
    unlock-SWAP windows.  ``engine`` selects the candidate-evaluation
    engine for the bit-search families ("suffix" = activation-cached,
    "full" = per-candidate full-forward reference); an explicit
    ``engine=`` attack param overrides it per scenario.
    """

    qmodel: QuantizedModel
    dataset: Dataset
    store: WeightStore | None = None
    driver: HammerDriver | None = None
    before_execute: Callable[[str, int, int], None] | None = None
    seed: int = 0
    attack_batch: int = 64
    engine: str = "suffix"

    def __post_init__(self) -> None:
        # One uniform unknown-engine error, no matter which layer
        # (controller, session, harness, context) sees the name first.
        resolve_engine(self.engine, allowed=SEARCH_ENGINES, kind="search")


AttackBuilder = Callable[..., Attack]
Summarizer = Callable[[Any], dict]


def summarize_generic(result: Any) -> dict:
    """Uniform payload for result objects with the BFA-style fields."""
    accuracies = list(getattr(result, "accuracies", []))
    flips = getattr(result, "flips", None) or getattr(result, "records", [])
    metrics: dict[str, Any] = {}
    if getattr(result, "asr", None) is not None:
        metrics["asr"] = list(result.asr)
        metrics["final_asr"] = result.asr[-1] if result.asr else 0.0
    if hasattr(result, "rounds"):
        metrics["rounds"] = [dict(r) for r in result.rounds]
    if flips and hasattr(flips[0], "activations_blocked"):
        metrics["blocked_activations"] = sum(
            f.activations_blocked for f in flips
        )
    if getattr(result, "page_faults", 0):
        # Only a faulting run carries the key, so every other payload
        # keeps its bytes.
        metrics["page_faults"] = result.page_faults
    executed = getattr(result, "executed_flips", None)
    if executed is None and hasattr(result, "executed_redirects"):
        executed = result.executed_redirects
    return {
        "iterations": len(accuracies),
        "accuracies": accuracies,
        "final_accuracy": accuracies[-1] if accuracies else None,
        "executed_flips": int(executed or 0),
        "metrics": metrics,
    }


@dataclass(frozen=True)
class AttackSpec:
    """One registered attack family."""

    name: str
    builder: AttackBuilder
    description: str = ""
    targeted: bool = False
    summarize: Summarizer = field(default=summarize_generic)

    def build(self, ctx: AttackContext, **params: Any) -> Attack:
        return self.builder(ctx, **params)


#: The registry.  Populated by :func:`register_attack` at import time.
ATTACKS: dict[str, AttackSpec] = {}


def register_attack(
    name: str,
    *,
    description: str = "",
    targeted: bool = False,
    summarize: Summarizer = summarize_generic,
) -> Callable[[AttackBuilder], AttackBuilder]:
    """Class decorator-style registration of an attack builder."""

    def decorate(builder: AttackBuilder) -> AttackBuilder:
        if name in ATTACKS:
            raise ValueError(f"attack {name!r} registered twice")
        ATTACKS[name] = AttackSpec(
            name=name,
            builder=builder,
            description=description,
            targeted=targeted,
            summarize=summarize,
        )
        return builder

    return decorate


def available_attacks() -> list[str]:
    return sorted(ATTACKS)


def build_attack(name: str, ctx: AttackContext, **params: Any) -> Attack:
    spec = ATTACKS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown attack {name!r}; available: {available_attacks()}"
        )
    return spec.build(ctx, **params)


def run_attack(
    name: str, ctx: AttackContext, iterations: int, **params: Any
) -> dict:
    """Build, run, and summarize one attack into the uniform payload."""
    attack = build_attack(name, ctx, **params)
    spec = ATTACKS[name]
    result = spec.summarize(attack.run(iterations))
    result["attack"] = name
    result["targeted"] = spec.targeted
    return result
