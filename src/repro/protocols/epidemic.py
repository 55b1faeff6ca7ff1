"""SIR epidemic broadcast.

Agents are Susceptible / Infected (transmitting) / Recovered (informed but
silent).  Each infected agent recovers independently with probability
``recovery_prob`` per step after transmitting, giving a geometric active
lifetime of mean ``1 / recovery_prob`` steps.  Unlike flooding, the process
can *die out* before full coverage — the classic epidemic-threshold
behaviour that the baselines experiment contrasts with flooding's
guaranteed completion.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.base import BatchBroadcastState, BroadcastProtocol

__all__ = ["SIREpidemic", "BatchSIRState"]


class BatchSIRState(BatchBroadcastState):
    """``B`` independent SIR runs in lock-step.

    The infection test is one batched query over the infected masks; the
    recovery coin-flips stay per replica — one ``uniform(#infected)`` call
    per active replica per step, after the transmissions.  A replica
    retires once its infected set empties (die-out).
    """

    name = "sir"
    uses_rng = True

    def __init__(self, *args, recovery_prob: float = 0.1, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= recovery_prob <= 1.0:
            raise ValueError(f"recovery_prob must be in [0, 1], got {recovery_prob}")
        self.recovery_prob = float(recovery_prob)
        self.recovered = np.zeros((self.batch_size, self.n), dtype=bool)

    @property
    def infected(self) -> np.ndarray:
        """``(B, n)`` mask of currently transmitting agents."""
        return self.informed & ~self.recovered

    def can_progress_mask(self) -> np.ndarray:
        return ~self.complete_mask() & np.any(self.infected, axis=1)

    def _exchange(self, snapshot, active: np.ndarray) -> np.ndarray:
        infected = self.infected
        source_mask = infected & active[:, None]
        query_mask = ~self.informed & active[:, None]
        if source_mask.any() and query_mask.any():
            newly = self._mark_informed(
                snapshot.any_within(source_mask, query_mask, self.radius)
            )
        else:
            newly = np.zeros((self.batch_size, self.n), dtype=bool)
        # Recovery after this step's transmissions, per replica.
        for b in np.nonzero(active)[0]:
            idx = np.nonzero(infected[b])[0]
            if idx.size:
                recover = self.rngs[b].uniform(size=idx.size) < self.recovery_prob
                self.recovered[b, idx[recover]] = True
        return newly

    def _add_metrics(self, out: list, suburb) -> None:
        for b in range(self.batch_size):
            out[b]["recovered"] = int(np.count_nonzero(self.recovered[b]))


class SIREpidemic(BroadcastProtocol):
    """SIR dynamics over the MANET snapshots: one replica of
    :class:`BatchSIRState`."""

    name = "sir"
    batch_state = BatchSIRState
    options = ("recovery_prob",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recovered = self.state.recovered[0]

    @property
    def active_count(self) -> int:
        """Number of currently transmitting agents."""
        return int(np.count_nonzero(self.informed & ~self.recovered))
