"""Theorem 18's conditioned-state construction and conditioned trials."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from protocol_oracles import OracleFlooding
from repro.core import theory
from repro.experiments.thm18_lower import _conditioned_state, _fraction_trials
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.mobility.stationary import PalmStationarySampler
from repro.protocols.flooding import FloodingProtocol


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


def _one_trial_at_a_time(protocol_cls, n, side, d, radius, fraction, speed, bound, trials, seed):
    """Reference for ``_fraction_trials``: each conditioned trial on its own
    scalar mobility model and ``protocol_cls`` flooding, sharing its
    generator."""
    sampler = PalmStationarySampler(side)
    steps = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial, int(1e6 * fraction)])
        state = _conditioned_state(n, side, d, sampler, rng)
        source = int(np.argmax(np.max(state.positions, axis=1)))
        model = ManhattanRandomWaypoint(n, side, speed, rng=rng, init=state)
        protocol = protocol_cls(n, side, radius, source, rng=rng)
        informed_at = math.inf
        for step in range(1, int(8 * bound) + 201):
            protocol.step(model.step())
            if protocol.informed[0]:
                informed_at = step
                break
        steps.append(informed_at)
    return steps


@pytest.mark.parametrize("protocol_cls", [OracleFlooding, FloodingProtocol])
def test_fraction_trials_match_a_scalar_loop(protocol_cls):
    # Lock-step replicas retire the round their trapped agent is informed;
    # every trial must still report the step a one-trial loop reports,
    # with the flooding oracle or the scalar protocol.
    n, trials, seed = 300, 4, 5
    side = math.sqrt(n)
    d = side / n ** (1.0 / 3.0)
    radius = 0.9 * d
    for fraction in (0.1, 0.05):
        speed = fraction * radius
        bound = theory.flooding_lower_bound(n, side, radius, speed, d_constant=1.0)
        args = (n, side, d, radius, fraction, speed, bound, trials, seed)
        expected = _one_trial_at_a_time(protocol_cls, *args)
        assert all(math.isfinite(step) for step in expected), expected
        assert len(set(expected)) > 1, expected
        assert _fraction_trials(args) == expected, fraction
