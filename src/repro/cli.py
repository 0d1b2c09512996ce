"""Argument types shared by the package's command-line entry points
(``python -m repro.serve`` and ``python -m repro.obs``): a value they
cannot use is an argparse usage error (exit 2), never a traceback."""

from __future__ import annotations

import argparse

__all__ = ["positive_int"]


def positive_int(text: str) -> int:
    """The ``type=`` of a count flag (``--tenants``, ``--channels``,
    ``--slices``): anything but an integer >= 1 is a usage error
    (argparse reports ``int``'s ``ValueError`` itself)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value
