"""Theorem 18's conditioned-state construction."""

import math
from types import SimpleNamespace

import numpy as np

from repro.experiments.thm18_lower import _conditioned_state


class _LateCornerSampler:
    """Stationary-sampler stand-in: every draw lands at the far corner,
    outside the annulus E, except draw number ``hit``, which lands in the
    corner square F."""

    def __init__(self, side, hit):
        self.side = side
        self.hit = hit
        self.calls = 0

    def sample(self, count, rng):
        self.calls += 1
        corner = 0.0 if self.calls == self.hit else self.side
        positions = np.full((count, 2), corner)
        return SimpleNamespace(
            positions=positions,
            destinations=positions.copy(),
            targets=positions.copy(),
            on_second_leg=np.zeros(count, dtype=bool),
        )


def test_trapped_agent_placed_after_ten_thousand_misses():
    # F holds about 3/n of the stationary mass, so at the full scale's
    # n = 8000 a state needs more than 10,000 redraws once in 40.  The cap
    # grows with n: the 10,000th redraw still counts, and the loop stops
    # at the first hit.
    n = 200
    side = math.sqrt(n)
    d = side / n ** (1.0 / 3.0)
    sampler = _LateCornerSampler(side, hit=10_001)
    state = _conditioned_state(n, side, d, sampler, np.random.default_rng(0))
    assert sampler.calls == 10_001
    assert (state.positions[0] <= d).all()
    assert (state.positions[1:] > 3.0 * d).all()
