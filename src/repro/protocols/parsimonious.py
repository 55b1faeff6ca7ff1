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


class ParsimoniousFlooding(BroadcastProtocol):
    """Flooding where transmitters stay active only ``active_window`` steps."""

    name = "parsimonious"

    def __init__(self, *args, active_window: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        if not _is_integer(active_window) or active_window < 1:
            raise ValueError(
                f"active_window must be an integer of at least 1, got {active_window!r}"
            )
        self.active_window = int(active_window)

    def _active_mask(self) -> np.ndarray:
        """Agents still within their transmission window at the current step."""
        age = self.step_count - self.informed_at
        return self.informed & (age >= 1) & (age <= self.active_window)

    def can_progress(self) -> bool:
        if self.is_complete():
            return False
        # Progress is impossible once every informed agent's window closes
        # before the next step (an agent informed at s transmits during
        # steps s+1 .. s+active_window).
        informed_times = self.informed_at[self.informed]
        return bool(np.any(informed_times + self.active_window >= self.step_count + 1))

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        active = self._active_mask()
        if not np.any(active):
            return np.empty(0, dtype=np.intp)
        uninformed = np.nonzero(~self.informed)[0]
        if uninformed.size == 0:
            return np.empty(0, dtype=np.intp)
        hits = self.engine.any_within(positions[active], positions[uninformed], self.radius)
        return self._mark_informed(uninformed[hits])


class BatchParsimoniousState(BatchBroadcastState):
    """``B`` independent parsimonious-flooding runs in lock-step.

    Deterministic given the informed history (no randomness), so parity
    with the scalar protocol reduces to the shared exact neighbor kernels.
    Window bookkeeping is the ``informed_at`` tensor the base class
    already maintains; a replica retires (stalls) once every informed
    agent's transmission window has closed — the batch counterpart of
    :meth:`ParsimoniousFlooding.can_progress`.
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
