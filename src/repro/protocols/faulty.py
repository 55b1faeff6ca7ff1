"""Flooding under crash faults.

Robustness probe (an extension beyond the paper): at every step each agent
independently crashes with probability ``crash_prob``; crashed agents stop
transmitting and receiving forever but keep moving (a dead radio on a live
vehicle).  Completion means informing every *surviving* agent.  The paper's
mechanism predicts graceful degradation: the Central Zone has massive path
redundancy, while the Suburb depends on individual Lemma-16 emissaries, so
crashes should hurt the corner tail first — measurable with the zone
recorders.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol

__all__ = ["CrashFaultFlooding", "BatchCrashFaultState"]


class BatchCrashFaultState(BatchBroadcastState):
    """``B`` independent crash-fault flooding runs in lock-step.

    The exchange restricts both sides of the batched infection test to
    live agents; the crash strikes stay per replica — one ``uniform(n)``
    call per active replica per step, after the exchange.  Completion
    means informing every *surviving* agent, so :meth:`complete_mask` is
    overridden accordingly.
    """

    name = "crash-flooding"
    uses_rng = True

    def __init__(self, *args, crash_prob: float = 0.001, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= crash_prob <= 1.0:
            raise ValueError(f"crash_prob must be in [0, 1], got {crash_prob}")
        self.crash_prob = float(crash_prob)
        self.crashed = np.zeros((self.batch_size, self.n), dtype=bool)

    @property
    def alive(self) -> np.ndarray:
        """``(B, n)`` mask of non-crashed agents."""
        return ~self.crashed

    def complete_mask(self) -> np.ndarray:
        """Every surviving agent informed (crashed agents are out of scope)."""
        return np.all(self.informed | self.crashed, axis=1)

    def can_progress_mask(self) -> np.ndarray:
        return ~self.complete_mask() & np.any(self.informed & self.alive, axis=1)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        alive = self.alive
        source_mask = self.informed & alive & active[:, None]
        query_mask = ~self.informed & alive & active[:, None]
        if source_mask.any() and query_mask.any():
            newly = self._mark_informed(
                snapshot.any_within(source_mask, query_mask, self.radius)
            )
        else:
            newly = np.zeros((self.batch_size, self.n), dtype=bool)
        # Crashes strike after the exchange, per replica.
        for b in np.nonzero(active)[0]:
            strikes = self.rngs[b].uniform(size=self.n) < self.crash_prob
            self.crashed[b] |= strikes
        return newly

    def _add_metrics(self, out: list, suburb) -> None:
        missing = self.alive & ~self.informed
        for b in range(self.batch_size):
            out[b]["crashed"] = int(np.count_nonzero(self.crashed[b]))
            out[b]["uninformed_survivors"] = int(np.count_nonzero(missing[b]))
            if suburb is not None:
                out[b]["uninformed_survivors_suburb"] = int(
                    np.count_nonzero(missing[b] & suburb[b])
                )
                out[b]["uninformed_survivors_cz"] = int(
                    np.count_nonzero(missing[b] & ~suburb[b])
                )


class CrashFaultFlooding(BroadcastProtocol):
    """Flooding where agents crash-stop independently each step: one
    replica of :class:`BatchCrashFaultState`."""

    name = "crash-flooding"
    batch_state = BatchCrashFaultState
    options = ("crash_prob",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.crashed = self.state.crashed[0]
