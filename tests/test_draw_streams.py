"""Random draws pinned to the historical generator calls.

The engine and tier parity tests compare two engines, or two kernel tiers,
with each other; a draw change that moves the scalar and the batch models
the same way passes all of them.  This module pins the draws themselves:
each oracle below is the historical ``rng.uniform`` / ``rng.integers``
code, and every case requires bit-equal outputs *and* equal generator
states for every replica, over several numpy bit generators.
"""

import types

import numpy as np
import pytest

from repro.geometry.paths import choose_corners, leg_lengths, path_corner, position_along_path
from repro.kernels import kernel_backend, provider_kernels, use_kernel_tier
from repro.mobility.kinematics import (
    advance_legs,
    countdown_pauses,
    redraw_destinations,
    redraw_manhattan_trips,
    replica_slices,
    split_completed_legs,
)
from repro.mobility.mrwp import BatchManhattanRandomWaypoint
from repro.mobility.pause import BatchManhattanRandomWaypointWithPause
from repro.mobility.rwp import BatchRandomWaypoint
from repro.mobility.speed_range import BatchRandomSpeedManhattanWaypoint
from repro.mobility.stationary import KinematicState, PalmStationarySampler
from repro.protocols.base import BatchBroadcastState

BIT_GENERATORS = [
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64,
]
SIDE = 7.5


# ----------------------------------------------------------------------
# Oracles: the historical draw code, kept verbatim as the reference.
# ----------------------------------------------------------------------
def oracle_redraw_manhattan_trips(pos, dest, target, on_second_leg, idx, side, rngs, n):
    dests = np.empty((idx.size, 2), dtype=np.float64)
    choices = np.empty(idx.size, dtype=np.int64)
    for b, lo, hi in replica_slices(idx, n, len(rngs)):
        rng = rngs[b]
        dests[lo:hi] = rng.uniform(0.0, side, size=(hi - lo, 2))
        choices[lo:hi] = rng.integers(0, 2, size=hi - lo)
    dest[idx] = dests
    target[idx] = path_corner(pos[idx], dests, choices)
    on_second_leg[idx] = False


def oracle_mrwp_step(model, rngs, dt, active):
    """The historical MRWP carry-over loop, with the historical redraws."""
    budget = np.repeat(active, model.n) * (model.speed * dt)
    for _ in range(100_000):
        idx = np.nonzero(budget > model._eps)[0]
        if idx.size == 0:
            break
        done = advance_legs(model._pos, model._target, budget, idx, model._eps)
        if done.size == 0:
            break
        _corner_done, trip_done = split_completed_legs(
            done, model._on_second_leg, model._target, model._dest, model.turn_counts
        )
        if trip_done.size:
            oracle_redraw_manhattan_trips(
                model._pos, model._dest, model._target, model._on_second_leg,
                trip_done, model.side, rngs, model.n,
            )
            model.turn_counts[trip_done] += 1
            model.arrival_counts[trip_done] += 1


def oracle_redraw_destinations(dest, idx, side, rngs, n):
    for b, lo, hi in replica_slices(idx, n, len(rngs)):
        dest[idx[lo:hi]] = rngs[b].uniform(0.0, side, size=(hi - lo, 2))


def oracle_pause_step(model, rngs, dt, active):
    """The historical pause-MRWP loop: pause burn, redraws of the pauses
    that ended, Manhattan legs at the scalar speed, then a pause (or, with
    no pause time, a redraw) per finished trip."""
    budget = np.repeat(active, model.n) * dt
    eps_t = model._eps / max(model.speed, 1.0)
    for _ in range(100_000):
        ended = countdown_pauses(model._pause_left, budget, min_budget=eps_t)
        if ended.size:
            oracle_redraw_manhattan_trips(
                model._pos, model._dest, model._target, model._on_second_leg,
                ended, model.side, rngs, model.n,
            )
        idx = np.nonzero((model._pause_left <= 0) & (budget > eps_t))[0]
        if idx.size == 0:
            break
        done = advance_legs(model._pos, model._target, budget, idx, model._eps, speed=model.speed)
        if done.size == 0:
            break
        _corner_done, trip_done = split_completed_legs(
            done, model._on_second_leg, model._target, model._dest
        )
        if trip_done.size:
            if model.pause_time > 0:
                model._pause_left[trip_done] = model.pause_time
            else:
                oracle_redraw_manhattan_trips(
                    model._pos, model._dest, model._target, model._on_second_leg,
                    trip_done, model.side, rngs, model.n,
                )


def oracle_speed_range_step(model, rngs, dt, active):
    """The historical random-speed loop: Manhattan legs at each agent's
    speed; the finished trips of every replica are redrawn, and then each
    replica draws their ``uniform(v_min, v_max)`` speeds."""
    budget = np.repeat(active, model.n) * dt
    eps_t = model._eps / model.v_max
    for _ in range(100_000):
        idx = np.nonzero(budget > eps_t)[0]
        if idx.size == 0:
            break
        done = advance_legs(
            model._pos, model._target, budget, idx, model._eps, speed=model._trip_speed
        )
        if done.size == 0:
            break
        _corner_done, trip_done = split_completed_legs(
            done, model._on_second_leg, model._target, model._dest
        )
        if trip_done.size:
            oracle_redraw_manhattan_trips(
                model._pos, model._dest, model._target, model._on_second_leg,
                trip_done, model.side, rngs, model.n,
            )
            for b, lo, hi in replica_slices(trip_done, model.n, len(rngs)):
                model._trip_speed[trip_done[lo:hi]] = rngs[b].uniform(
                    model.v_min, model.v_max, size=hi - lo
                )


def oracle_rwp_step(model, rngs, dt, active):
    """The historical straight-line RWP loop: pause burn for any budget,
    one Euclidean leg per trip, then a new destination, a pause and one
    more arrival per finished trip."""
    budget = np.repeat(active, model.n) * dt
    for _ in range(100_000):
        countdown_pauses(model._pause_left, budget)
        if model.speed <= 0:
            break
        idx = np.nonzero((model._pause_left <= 0) & (budget * model.speed > model._eps))[0]
        if idx.size == 0:
            break
        done = advance_legs(
            model._pos, model._dest, budget, idx, model._eps, speed=model.speed,
            metric="euclidean",
        )
        if done.size == 0:
            break
        oracle_redraw_destinations(model._dest, done, model.side, rngs, model.n)
        model._pause_left[done] = model.pause_time
        model.arrival_counts[done] += 1


def oracle_draw_uniform_blocks(rngs, group_rep, k):
    out = np.empty((k, group_rep.size))
    counts = np.bincount(group_rep, minlength=len(rngs))
    pos = 0
    for b in np.nonzero(counts)[0]:
        count = int(counts[b])
        out[:, pos:pos + count] = rngs[b].uniform(size=(k, count))
        pos += count
    return out


def oracle_choose_corners(start, end, rng):
    path_choice = rng.integers(0, 2, size=start.shape[0])
    return path_corner(start, end, path_choice), path_choice


def oracle_palm_sample(sampler, n, rng):
    starts, dests = sampler.sample_trips(n, rng)
    path_choice = rng.integers(0, 2, size=n)
    length = np.sum(np.abs(dests - starts), axis=1)
    travelled = rng.uniform(0.0, 1.0, size=n) * length
    positions = position_along_path(starts, dests, path_choice, travelled)
    first, _second = leg_lengths(starts, dests, path_choice)
    on_second_leg = travelled > first
    corners = path_corner(starts, dests, path_choice)
    targets = np.where(on_second_leg[:, None], dests, corners)
    return KinematicState(positions, dests.copy(), targets, on_second_leg)


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def twin_rngs(bit_generator, batch_size, seed=2024):
    """Two independent lists of identically seeded generators."""
    children = np.random.SeedSequence(seed).spawn(batch_size)
    return tuple([np.random.Generator(bit_generator(c)) for c in children] for _ in range(2))


def assert_bits_equal(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def same_state(a, b) -> bool:
    """Recursive equality of ``bit_generator.state`` dicts (arrays inside)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def assert_same_states(rngs_a, rngs_b):
    for b, (ra, rb) in enumerate(zip(rngs_a, rngs_b)):
        assert same_state(ra.bit_generator.state, rb.bit_generator.state), f"replica {b}"


def flat_indices(counts, n):
    """Ascending flat ``B * n`` indices with ``counts[b]`` agents in replica ``b``."""
    rng = np.random.default_rng(sum(counts) + len(counts))
    parts = [b * n + np.sort(rng.choice(n, size=c, replace=False)) for b, c in enumerate(counts)]
    return np.concatenate(parts).astype(np.intp) if parts else np.empty(0, dtype=np.intp)


# Per-replica agent counts: B in {1, 3, 8}, with empty replicas, an empty
# index set, a single agent and odd counts.
COUNT_CASES = [
    [0],
    [1],
    [7],
    [10],
    [0, 0, 0],
    [3, 0, 5],
    [1, 1, 1],
    [0, 9, 0, 0, 1, 4, 0, 11],
    [2, 5, 0, 3, 7, 1, 0, 6],
]
N = 12


@pytest.fixture(params=BIT_GENERATORS, ids=lambda bg: bg.__name__)
def bit_generator(request):
    return request.param


def _trip_state(batch_size, seed=5):
    rng = np.random.default_rng(seed)
    total = batch_size * N
    return (
        rng.uniform(0.0, SIDE, size=(total, 2)),
        rng.uniform(0.0, SIDE, size=(total, 2)),
        rng.uniform(0.0, SIDE, size=(total, 2)),
        rng.random(total) < 0.5,
    )


def _copy_all(arrays):
    return [a.copy() for a in arrays]


class TestRedrawManhattanTrips:
    @pytest.mark.parametrize("counts", COUNT_CASES, ids=str)
    def test_matches_uniform_and_integers(self, bit_generator, counts):
        rngs, ref_rngs = twin_rngs(bit_generator, len(counts))
        state = _trip_state(len(counts))
        got, want = _copy_all(state), _copy_all(state)
        idx = flat_indices(counts, N)
        redraw_manhattan_trips(*got, idx, SIDE, rngs, N)
        oracle_redraw_manhattan_trips(*want, idx, SIDE, ref_rngs, N)
        for actual, expected in zip(got, want):
            assert_bits_equal(actual, expected)
        assert_same_states(rngs, ref_rngs)

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_alternating_single_draws(self, bit_generator, batch_size):
        """k=1 calls leave half a 64-bit word buffered between calls."""
        rngs, ref_rngs = twin_rngs(bit_generator, batch_size)
        state = _trip_state(batch_size)
        got, want = _copy_all(state), _copy_all(state)
        picker = np.random.default_rng(11)
        for step in range(9):
            counts = [int(c) for c in picker.integers(0, 2, size=batch_size)]
            if step % 3 == 2:
                counts = [3 * c for c in counts]  # odd multi-agent draws in between
            idx = flat_indices(counts, N)
            redraw_manhattan_trips(*got, idx, SIDE, rngs, N)
            oracle_redraw_manhattan_trips(*want, idx, SIDE, ref_rngs, N)
            for actual, expected in zip(got, want):
                assert_bits_equal(actual, expected)
            assert_same_states(rngs, ref_rngs)


class TestRedrawDestinations:
    @pytest.mark.parametrize("counts", COUNT_CASES, ids=str)
    def test_matches_uniform(self, bit_generator, counts):
        rngs, ref_rngs = twin_rngs(bit_generator, len(counts))
        dest = _trip_state(len(counts))[1]
        got, want = dest.copy(), dest.copy()
        idx = flat_indices(counts, N)
        for _ in range(3):
            redraw_destinations(got, idx, SIDE, rngs, N)
            oracle_redraw_destinations(want, idx, SIDE, ref_rngs, N)
            assert_bits_equal(got, want)
            assert_same_states(rngs, ref_rngs)


class TestDrawUniformBlocks:
    @pytest.mark.parametrize("counts", COUNT_CASES, ids=str)
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_uniform(self, bit_generator, counts, k):
        rngs, ref_rngs = twin_rngs(bit_generator, len(counts))
        group_rep = np.repeat(np.arange(len(counts)), counts)
        stub = types.SimpleNamespace(batch_size=len(counts), rngs=rngs)
        for _ in range(2):
            got = BatchBroadcastState._draw_uniform_blocks(stub, group_rep, k)
            want = oracle_draw_uniform_blocks(ref_rngs, group_rep, k)
            assert_bits_equal(got, want)
            assert_same_states(rngs, ref_rngs)


class TestChooseCorners:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_matches_integers(self, bit_generator, n):
        (rng,), (ref_rng,) = twin_rngs(bit_generator, 1)
        start, end = _trip_state(1)[:2]
        start, end = start[:n], end[:n]
        for _ in range(3):  # odd n leaves a buffered half-word for the next call
            corner, choice = choose_corners(start, end, rng)
            ref_corner, ref_choice = oracle_choose_corners(start, end, ref_rng)
            assert_bits_equal(corner, ref_corner)
            assert_bits_equal(choice, ref_choice)
            assert_same_states([rng], [ref_rng])


class TestPalmSampler:
    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_matches_integers(self, bit_generator, n):
        (rng,), (ref_rng,) = twin_rngs(bit_generator, 1)
        sampler = PalmStationarySampler(SIDE)
        for _ in range(3):
            got = sampler.sample(n, rng)
            want = oracle_palm_sample(sampler, n, ref_rng)
            for name in ("positions", "destinations", "targets", "on_second_leg"):
                assert_bits_equal(getattr(got, name), getattr(want, name))
            assert_same_states([rng], [ref_rng])


MRWP_STATE = ("_pos", "_dest", "_target", "_on_second_leg", "turn_counts", "arrival_counts")
PAUSE_STATE = ("_pos", "_dest", "_target", "_on_second_leg", "_pause_left")
SPEED_STATE = ("_pos", "_dest", "_target", "_on_second_leg", "_trip_speed")
RWP_STATE = ("_pos", "_dest", "_pause_left", "arrival_counts")

needs_provider = pytest.mark.skipif(
    kernel_backend() is None, reason="no compiled kernel provider on this host"
)


def check_compiled_steps(monkeypatch, build, oracle_step, names, rngs, ref_rngs):
    """Step ``build(rngs)`` on the compiled tier and ``build(ref_rngs)``
    through ``oracle_step`` on the same random active masks and ``dt``
    cycle; after every step the ``names`` arrays must be bit-equal and
    every generator in the same state, and every step must have been one
    trip-mode call the kernel did not decline."""
    table = provider_kernels()
    original = table["advance_legs_dense"]
    trip_results = []

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        if kwargs.get("trips") is not None:
            trip_results.append(out)
        return out

    monkeypatch.setitem(table, "advance_legs_dense", spy)
    model, ref = build(rngs), build(ref_rngs)
    picker = np.random.default_rng(17)
    for step in range(8):
        active = picker.random(len(rngs)) < 0.7
        dt = (1.0, 0.5, 0.25)[step % 3]
        with use_kernel_tier("compiled"):
            model.step(dt, active=active)
        oracle_step(ref, ref_rngs, dt, active)
        for name in names:
            assert_bits_equal(getattr(model, name), getattr(ref, name))
        assert_same_states(rngs, ref_rngs)
    assert len(trip_results) == 8 and all(out is not None for out in trip_results)


@pytest.mark.skipif(kernel_backend() is None, reason="no compiled kernel provider on this host")
class TestCompiledMrwpStep:
    """The compiled tier's one-call MRWP step draws from each replica's bit
    generator directly; it must leave the historical loop's state."""

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_matches_uniform_and_integers(self, monkeypatch, bit_generator, batch_size):
        table = provider_kernels()
        original = table["advance_legs_dense"]
        trip_results = []

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            if kwargs.get("trips") is not None:
                trip_results.append(out)
            return out

        monkeypatch.setitem(table, "advance_legs_dense", spy)
        rngs, ref_rngs = twin_rngs(bit_generator, batch_size)
        model = BatchManhattanRandomWaypoint(N, SIDE, 1.3 * SIDE, rngs, init="uniform")
        ref = BatchManhattanRandomWaypoint(N, SIDE, 1.3 * SIDE, ref_rngs, init="uniform")
        picker = np.random.default_rng(17)
        for step in range(8):
            active = picker.random(batch_size) < 0.7
            dt = (1.0, 0.5, 0.25)[step % 3]
            with use_kernel_tier("compiled"):
                model.step(dt, active=active)
            oracle_mrwp_step(ref, ref_rngs, dt, active)
            for name in MRWP_STATE:
                assert_bits_equal(getattr(model, name), getattr(ref, name))
            assert_same_states(rngs, ref_rngs)
        assert len(trip_results) == 8 and all(out is not None for out in trip_results)


@needs_provider
class TestCompiledPauseStep:
    """The pause-MRWP trip mode against the historical loop: pauses that
    end mid-step, several trips a step at ``1.3 * SIDE`` per time unit,
    and pauses that outlast a step."""

    @pytest.mark.parametrize(
        "speed,pause_time", [(1.3 * SIDE, 0.0), (1.3 * SIDE, 0.3), (0.4 * SIDE, 2.0)],
        ids=["no-pause", "short-pause", "long-pause"],
    )
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_matches_uniform_and_integers(
        self, monkeypatch, bit_generator, batch_size, speed, pause_time
    ):
        def build(rngs):
            return BatchManhattanRandomWaypointWithPause(
                N, SIDE, speed, rngs, pause_time=pause_time
            )

        check_compiled_steps(
            monkeypatch, build, oracle_pause_step, PAUSE_STATE,
            *twin_rngs(bit_generator, batch_size),
        )


@needs_provider
class TestCompiledSpeedRangeStep:
    """The random-speed trip mode against the historical loop, whose
    speeds come from ``rng.uniform``; ``v_min == v_max`` still draws."""

    @pytest.mark.parametrize(
        "v_min,v_max", [(0.2 * SIDE, 1.5 * SIDE), (0.9 * SIDE, 0.9 * SIDE)],
        ids=["range", "one-speed"],
    )
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_matches_uniform_and_integers(
        self, monkeypatch, bit_generator, batch_size, v_min, v_max
    ):
        def build(rngs):
            return BatchRandomSpeedManhattanWaypoint(N, SIDE, v_min, v_max, rngs, init="uniform")

        check_compiled_steps(
            monkeypatch, build, oracle_speed_range_step, SPEED_STATE,
            *twin_rngs(bit_generator, batch_size),
        )


@needs_provider
class TestCompiledRwpStep:
    """The straight-line RWP trip mode against the historical loop, with
    and without pauses at the way-points."""

    @pytest.mark.parametrize("pause_time", [0.0, 0.3], ids=["no-pause", "pause"])
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_matches_uniform(self, monkeypatch, bit_generator, batch_size, pause_time):
        def build(rngs):
            return BatchRandomWaypoint(N, SIDE, 1.3 * SIDE, rngs, pause_time=pause_time)

        check_compiled_steps(
            monkeypatch, build, oracle_rwp_step, RWP_STATE,
            *twin_rngs(bit_generator, batch_size),
        )
