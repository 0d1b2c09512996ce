"""Canonical execution-engine names and the one validator for them.

The ``engine=`` knob appears at every layer of the stack -- the memory
controller's drive (:class:`~repro.controller.MemoryController`), the
attack search sessions (:class:`~repro.attacks.session.SearchSession`),
the harness runners, and the serving engine -- and each used to carry
its own copy of the accepted names and its own error wording.  This
module is now the single source of truth:

* :data:`EXECUTION_ENGINES` -- the controller drives.  ``"scalar"``
  executes one request at a time; ``"bulk"`` run-length-compresses
  same-row streams and fuses quiet ACT runs across refresh ticks
  where the defense plan allows it.  ``"events"`` runs the same
  controller code as ``"bulk"``; in the serving layer it defers a
  slice's streams onto a clock-ordered event queue.  All three are
  bit-identical by contract (``docs/ARCHITECTURE.md``, pinned by
  ``tests/test_engine_equivalence.py``).
* :data:`SEARCH_ENGINES` -- the attack-session bit-search drives
  (``"suffix"`` array fast path vs ``"full"`` reference walk), the same
  equivalence discipline one layer up.
* :func:`resolve_engine` -- validation with one uniform error message,
  so an unknown engine name fails identically no matter which layer
  first sees it.

``ENGINES`` remains an alias of :data:`EXECUTION_ENGINES` because that
is the name the controller has always exported.
"""

from __future__ import annotations

__all__ = [
    "EXECUTION_ENGINES",
    "SEARCH_ENGINES",
    "ENGINES",
    "resolve_engine",
]

#: Controller execution drives, cheapest-to-drive first.  Equivalence
#: contract: identical payloads for identical request streams.
EXECUTION_ENGINES: tuple[str, ...] = ("scalar", "bulk", "events")

#: Attack-session bit-search drives (``SearchSession``).
SEARCH_ENGINES: tuple[str, ...] = ("suffix", "full")

#: Historical alias -- the controller's public name for its drives.
ENGINES = EXECUTION_ENGINES


def resolve_engine(
    name: str,
    *,
    allowed: tuple[str, ...] = EXECUTION_ENGINES,
    kind: str = "execution",
) -> str:
    """Validate an engine name against its family and return it.

    Every layer funnels through here, so an unknown name raises the
    same ``ValueError`` wording whether the controller, an attack
    session, the harness, or the serving facade sees it first.

    Args:
        name: The engine name to validate.
        allowed: The accepted family (:data:`EXECUTION_ENGINES` or
            :data:`SEARCH_ENGINES`).
        kind: Human label for the family, used in the error message.

    Returns:
        ``name`` unchanged, when valid.

    Raises:
        ValueError: With the uniform wording
        ``unknown <kind> engine <name>; choose from <allowed>``.
    """
    if name not in allowed:
        raise ValueError(
            f"unknown {kind} engine {name!r}; choose from {allowed}"
        )
    return name
