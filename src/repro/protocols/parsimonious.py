"""Parsimonious flooding (Baumann, Crescenzi, Fraigniaud — PODC 2009, ref [3]).

Each agent transmits only during the ``active_window`` steps following the
step at which it became informed, then falls silent forever.  In static or
dense networks this saves energy at little cost; over a sparse mobile
Suburb, silence can strand the message — which is exactly what the
``protocol_baselines`` experiment measures against the paper's flooding.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol, _is_integer

__all__ = ["ParsimoniousFlooding", "BatchParsimoniousState"]


class BatchParsimoniousState(BatchBroadcastState):
    """``B`` independent parsimonious-flooding runs in lock-step.

    Each agent transmits during the ``active_window`` steps after the one
    in which it was informed.  Deterministic given the informed history
    (no randomness).  Window bookkeeping is the ``informed_at`` tensor the
    base class already maintains; a replica retires (stalls) once every
    informed agent's transmission window has closed.
    """

    name = "parsimonious"

    def __init__(self, *args, active_window: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        if not _is_integer(active_window) or active_window < 1:
            raise ValueError(
                f"active_window must be an integer of at least 1, got {active_window!r}"
            )
        self.active_window = int(active_window)

    def can_progress_mask(self) -> np.ndarray:
        # An agent informed at s transmits during steps s+1 .. s+window.
        open_window = self.informed & (
            self.informed_at + self.active_window >= self.step_count + 1
        )
        return ~self.complete_mask() & np.any(open_window, axis=1)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        age = self.step_count - self.informed_at
        window = self.informed & (age >= 1) & (age <= self.active_window)
        source_mask = window & active[:, None]
        query_mask = ~self.informed & active[:, None]
        if not source_mask.any() or not query_mask.any():
            return np.zeros((self.batch_size, self.n), dtype=bool)
        hits = snapshot.any_within(source_mask, query_mask, self.radius)
        return self._mark_informed(hits)


class ParsimoniousFlooding(BroadcastProtocol):
    """Flooding where transmitters stay active only ``active_window``
    steps: one replica of :class:`BatchParsimoniousState`."""

    name = "parsimonious"
    batch_state = BatchParsimoniousState
    options = ("active_window",)
