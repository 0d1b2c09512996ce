"""The cross-channel event queue behind the serving layer's
``engine="events"`` drive.

A :class:`~repro.controller.MemoryController` runs the same code under
``engine="events"`` as under ``engine="bulk"``; the name keeps one
meaning, one layer up.  The serving engine submits a time slice's
streams to a shared :class:`SystemEventQueue` and drains it once per
slice -- the **SLA-histogram epoch**, after which tenant percentiles
are current -- in slowest-channel-first order.  The drain is
payload-identical to immediate execution because it keeps per-channel
and per-sink order (see the class docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["SystemEventQueue"]


@dataclass
class _QueuedStream:
    """One submitted stream awaiting clock-ordered execution."""

    seq: int
    channels: tuple[int, ...]
    sink_id: int
    execute: Callable[[], None]


class SystemEventQueue:
    """Cross-channel scheduler: leap to the globally slowest channel.

    Channels are independent state machines (own clock, own RNG
    streams), so any cross-channel interleaving that preserves each
    channel's stream order yields identical per-channel end state.  The
    SLA percentile trackers additionally fold values in first-seen
    order, so each *sink's* observation order must also be preserved.
    The queue therefore enforces exactly two FIFO constraints -- per
    channel and per sink -- and among the eligible streams always runs
    the one whose channel clock is the global minimum (ties broken by
    submission order).  The globally oldest pending stream is always
    eligible, so the drain cannot deadlock.

    Payload bit-identity to immediate execution follows: per-channel
    request order is unchanged (device, locker, defense, and RNG state
    evolve identically) and per-sink observation order is unchanged
    (histograms and summaries fold identically).
    """

    def __init__(self, clock: Callable[[int], float]):
        """``clock(channel)`` returns that channel's current ``now_ns``."""
        self._clock = clock
        self._items: list[_QueuedStream] = []
        self._seq = 0

    def submit(
        self,
        channels: Sequence[int],
        sink,
        execute: Callable[[], None],
    ) -> None:
        """Enqueue one stream touching ``channels``, observed by ``sink``.

        Multi-channel streams (e.g. inference sweeps spanning channels
        under row interleaving) are atomic: they hold their place in
        every involved channel's FIFO and execute as one unit.
        """
        self._items.append(
            _QueuedStream(self._seq, tuple(channels), id(sink), execute)
        )
        self._seq += 1

    def __len__(self) -> int:
        """Streams currently pending."""
        return len(self._items)

    def drain(self) -> int:
        """Run every pending stream in slowest-channel-first order.

        Returns the number of streams executed.
        """
        items = self._items
        executed = 0
        while items:
            heads: dict[int, int] = {}
            sink_heads: dict[int, int] = {}
            for item in items:
                for channel in item.channels:
                    if item.seq < heads.get(channel, item.seq + 1):
                        heads[channel] = item.seq
                if item.seq < sink_heads.get(item.sink_id, item.seq + 1):
                    sink_heads[item.sink_id] = item.seq
            best = None
            best_key = None
            for item in items:
                if sink_heads[item.sink_id] != item.seq:
                    continue
                if any(
                    heads[channel] != item.seq for channel in item.channels
                ):
                    continue
                key = (
                    min(self._clock(channel) for channel in item.channels),
                    item.seq,
                )
                if best_key is None or key < best_key:
                    best, best_key = item, key
            assert best is not None, "event queue deadlocked"
            items.remove(best)
            best.execute()
            executed += 1
        return executed
