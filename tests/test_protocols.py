"""Tests of the broadcast protocols."""

import numpy as np
import pytest

from repro.protocols import (
    BATCH_PROTOCOL_REGISTRY,
    PROTOCOL_REGISTRY,
    BatchFloodingState,
    BatchGossipState,
    BatchParsimoniousState,
    FloodingProtocol,
    GossipProtocol,
    ParsimoniousFlooding,
    ProbabilisticFlooding,
    SIREpidemic,
)

SIDE = 10.0
N = 50


def cluster_positions(rng=None, n=N):
    """Everyone within one hop of everyone (distance << R)."""
    rng = rng or np.random.default_rng(0)
    return 5.0 + rng.uniform(-0.1, 0.1, size=(n, 2))


def line_positions(n=N, spacing=1.0):
    """A line of agents spaced exactly `spacing` apart."""
    x = np.arange(n) * spacing
    return np.stack([x % SIDE + 0.0 * x, np.zeros(n)], axis=1)


class TestBaseValidation:
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            FloodingProtocol(0, SIDE, 1.0, 0)
        with pytest.raises(ValueError):
            FloodingProtocol(5, SIDE, 0.0, 0)
        with pytest.raises(ValueError):
            FloodingProtocol(5, SIDE, 1.0, 5)

    def test_initial_state(self):
        protocol = FloodingProtocol(N, SIDE, 1.0, 3)
        assert protocol.informed_count == 1
        assert protocol.informed[3]
        assert protocol.informed_at[3] == 0.0
        assert not protocol.is_complete()

    def test_registry_complete(self):
        assert set(PROTOCOL_REGISTRY) == {
            "flooding",
            "gossip",
            "push-pull",
            "parsimonious",
            "probabilistic",
            "sir",
            "crash-flooding",
        }


def _build(registry, name, n=10, radius=1.0, source=2):
    """One protocol of ``registry`` with ``source`` as its (only) source."""
    rngs = [np.random.default_rng(0)]
    if registry is PROTOCOL_REGISTRY:
        return registry[name](n, 5.0, radius, source, rng=rngs[0])
    return registry[name](n, 5.0, radius, [source], rngs=rngs)


REGISTRIES = [PROTOCOL_REGISTRY, BATCH_PROTOCOL_REGISTRY]
REGISTRY_IDS = ["scalar", "batch"]


class TestConstructorArguments:
    """Sources are integer agent indices, the radius is positive and
    finite, and ``n`` is a positive integer; anything else raises at
    construction instead of flooding from a truncated index or failing
    at the first query.  The scalar views inherit the batch check."""

    @pytest.mark.parametrize("registry", REGISTRIES, ids=REGISTRY_IDS)
    @pytest.mark.parametrize("name", sorted(PROTOCOL_REGISTRY))
    @pytest.mark.parametrize("source", [2.7, 2.0, True, np.bool_(True), -1, 10], ids=repr)
    def test_rejects_bad_sources(self, registry, name, source):
        with pytest.raises(ValueError, match="sources"):
            _build(registry, name, source=source)

    @pytest.mark.parametrize("registry", REGISTRIES, ids=REGISTRY_IDS)
    @pytest.mark.parametrize("name", sorted(PROTOCOL_REGISTRY))
    @pytest.mark.parametrize(
        "radius", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0], ids=repr
    )
    def test_rejects_bad_radii(self, registry, name, radius):
        with pytest.raises(ValueError, match="radius"):
            _build(registry, name, radius=radius)

    @pytest.mark.parametrize("registry", REGISTRIES, ids=REGISTRY_IDS)
    @pytest.mark.parametrize("n", [0, -3, 10.0, True], ids=repr)
    def test_rejects_bad_agent_counts(self, registry, n):
        with pytest.raises(ValueError, match="n must be"):
            _build(registry, "flooding", n=n, source=0)

    @pytest.mark.parametrize("registry", REGISTRIES, ids=REGISTRY_IDS)
    @pytest.mark.parametrize("name", sorted(PROTOCOL_REGISTRY))
    def test_accepts_numpy_integers(self, registry, name):
        protocol = _build(registry, name, n=np.int64(10), source=np.int32(2))
        assert protocol.n == 10 and type(protocol.n) is int
        assert np.flatnonzero(protocol.informed).tolist() == [2]

    def test_reported_cases(self):
        with pytest.raises(ValueError, match="sources"):
            BatchFloodingState(10, 5.0, 1.0, [2.7])
        with pytest.raises(ValueError, match="sources"):
            BatchFloodingState(10, 5.0, 1.0, [True])
        with pytest.raises(ValueError, match="sources"):
            FloodingProtocol(10, 5.0, 1.0, 2.7)
        with pytest.raises(ValueError, match="radius"):
            BatchFloodingState(10, 5.0, float("nan"), [1])
        with pytest.raises(ValueError, match="radius"):
            FloodingProtocol(10, 5.0, float("inf"), 1)


class TestScalarView:
    """A scalar protocol is one replica of its batch state."""

    @pytest.mark.parametrize("name", sorted(PROTOCOL_REGISTRY))
    def test_rows_are_views_of_the_state(self, name):
        protocol = _build(PROTOCOL_REGISTRY, name)
        state = protocol.state
        assert type(state) is BATCH_PROTOCOL_REGISTRY[name] and state.batch_size == 1
        assert not hasattr(protocol, "batch_size")
        rows = ["informed", "informed_at"] + {
            "sir": ["recovered"], "crash-flooding": ["crashed"]
        }.get(name, [])
        for row in rows:
            assert np.shares_memory(getattr(protocol, row), getattr(state, row)), row
            assert getattr(protocol, row).shape == (10,)

    @pytest.mark.parametrize("name", sorted(PROTOCOL_REGISTRY))
    def test_step_returns_the_newly_informed_row(self, name):
        protocol = _build(PROTOCOL_REGISTRY, name)
        before = protocol.informed.copy()
        newly = protocol.step(cluster_positions(n=10))
        assert newly.dtype == np.intp
        assert newly.tolist() == np.flatnonzero(protocol.informed & ~before).tolist()

    def test_multi_hop_newly_informed_are_ascending(self):
        n = 8
        positions = np.stack([np.arange(n, dtype=float)[::-1], np.zeros(n)], axis=1)
        protocol = FloodingProtocol(n, SIDE, 1.0, 4, multi_hop=True)
        assert protocol.step(positions).tolist() == [0, 1, 2, 3, 5, 6, 7]


class TestFlooding:
    def test_one_hop_per_step(self):
        """On a static line with spacing == R, exactly one new agent per step."""
        n = 8
        positions = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        protocol = FloodingProtocol(n, SIDE, 1.0, 0)
        for t in range(1, n):
            newly = protocol.step(positions)
            assert newly.tolist() == [t]
        assert protocol.is_complete()
        assert protocol.informed_at.tolist() == list(range(n))

    def test_multi_hop_floods_component_in_one_step(self):
        n = 8
        positions = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        protocol = FloodingProtocol(n, SIDE, 1.0, 0, multi_hop=True)
        newly = protocol.step(positions)
        assert newly.size == n - 1
        assert protocol.is_complete()

    def test_cluster_informed_in_one_step(self):
        protocol = FloodingProtocol(N, SIDE, 1.0, 0)
        protocol.step(cluster_positions())
        assert protocol.is_complete()

    def test_no_spread_when_isolated(self):
        positions = np.array([[0.0, 0.0], [9.0, 9.0]])
        protocol = FloodingProtocol(2, SIDE, 1.0, 0)
        newly = protocol.step(positions)
        assert newly.size == 0
        assert protocol.can_progress()  # flooding never gives up

    def test_informed_set_monotone(self, rng):
        protocol = FloodingProtocol(N, SIDE, 1.5, 0)
        prev = protocol.informed.copy()
        for _ in range(10):
            positions = rng.uniform(0, SIDE, (N, 2))
            protocol.step(positions)
            assert np.all(protocol.informed[prev])  # once informed, always informed
            prev = protocol.informed.copy()


class TestGossip:
    def test_fanout_limits_spread(self):
        """k=1 gossip informs at most (informed count) new agents per step."""
        protocol = GossipProtocol(N, SIDE, 1.0, 0, rng=np.random.default_rng(0), fanout=1)
        positions = cluster_positions()
        informed_before = protocol.informed_count
        newly = protocol.step(positions)
        assert newly.size <= informed_before

    def test_gossip_eventually_completes_in_clique(self):
        protocol = GossipProtocol(N, SIDE, 1.0, 0, rng=np.random.default_rng(1), fanout=2)
        positions = cluster_positions()
        for _ in range(200):
            protocol.step(positions)
            if protocol.is_complete():
                break
        assert protocol.is_complete()

    def test_gossip_slower_than_flooding(self):
        positions = cluster_positions()
        flood = FloodingProtocol(N, SIDE, 1.0, 0)
        gossip = GossipProtocol(N, SIDE, 1.0, 0, rng=np.random.default_rng(2), fanout=1)
        flood_steps = 0
        while not flood.is_complete():
            flood.step(positions)
            flood_steps += 1
        gossip_steps = 0
        while not gossip.is_complete() and gossip_steps < 500:
            gossip.step(positions)
            gossip_steps += 1
        assert gossip_steps >= flood_steps

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            GossipProtocol(N, SIDE, 1.0, 0, fanout=0)


class TestParsimonious:
    def test_window_expires(self):
        """After the active window closes with no contact, spread stops."""
        positions_apart = np.array([[0.0, 0.0], [5.0, 0.0]])
        positions_close = np.array([[0.0, 0.0], [0.5, 0.0]])
        protocol = ParsimoniousFlooding(2, SIDE, 1.0, 0, active_window=2)
        protocol.step(positions_apart)  # window step 1: no contact
        protocol.step(positions_apart)  # window step 2: no contact
        assert not protocol.can_progress()
        newly = protocol.step(positions_close)  # too late
        assert newly.size == 0

    def test_within_window_informs(self):
        positions_close = np.array([[0.0, 0.0], [0.5, 0.0]])
        protocol = ParsimoniousFlooding(2, SIDE, 1.0, 0, active_window=2)
        newly = protocol.step(positions_close)
        assert newly.tolist() == [1]

    def test_relay_chain(self):
        """Newly informed agents get a fresh window — chains still work."""
        n = 5
        positions = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        protocol = ParsimoniousFlooding(n, SIDE, 1.0, 0, active_window=1)
        for _ in range(n - 1):
            protocol.step(positions)
        assert protocol.is_complete()

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ParsimoniousFlooding(5, SIDE, 1.0, 0, active_window=0)


def _scalar(cls):
    return lambda **option: cls(5, SIDE, 1.0, 0, rng=np.random.default_rng(0), **option)


def _batch(cls):
    rngs = [np.random.default_rng(b) for b in range(2)]
    return lambda **option: cls(5, SIDE, 1.0, [0, 1], rngs=rngs, **option)


COUNT_OPTIONS = [
    ("fanout", _scalar(GossipProtocol)),
    ("fanout", _batch(BatchGossipState)),
    ("active_window", _scalar(ParsimoniousFlooding)),
    ("active_window", _batch(BatchParsimoniousState)),
]
COUNT_OPTION_IDS = ["gossip", "batch-gossip", "parsimonious", "batch-parsimonious"]


class TestCountOptions:
    """``fanout`` and ``active_window`` are counts: no silent truncation."""

    @pytest.mark.parametrize("option,build", COUNT_OPTIONS, ids=COUNT_OPTION_IDS)
    @pytest.mark.parametrize("value", [2.7, True, float("nan"), 0], ids=str)
    def test_rejects_non_counts(self, option, build, value):
        with pytest.raises(ValueError, match=option):
            build(**{option: value})

    @pytest.mark.parametrize("option,build", COUNT_OPTIONS, ids=COUNT_OPTION_IDS)
    def test_accepts_numpy_integers(self, option, build):
        protocol = build(**{option: np.int64(2)})
        assert getattr(protocol, option) == 2
        assert type(getattr(protocol, option)) is int


class TestProbabilistic:
    def test_p_one_equals_flooding(self, rng):
        positions = rng.uniform(0, SIDE, (N, 2))
        flood = FloodingProtocol(N, SIDE, 1.5, 0)
        prob = ProbabilisticFlooding(N, SIDE, 1.5, 0, rng=np.random.default_rng(3), p=1.0)
        for _ in range(5):
            flood.step(positions)
            prob.step(positions)
            assert np.array_equal(flood.informed, prob.informed)

    def test_small_p_slows(self):
        positions = cluster_positions()
        prob = ProbabilisticFlooding(N, SIDE, 1.0, 0, rng=np.random.default_rng(4), p=0.01)
        prob.step(positions)
        # With p=0.01 the lone source usually stays silent the first step.
        assert prob.informed_count in (1, N)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ProbabilisticFlooding(5, SIDE, 1.0, 0, p=0.0)
        with pytest.raises(ValueError):
            ProbabilisticFlooding(5, SIDE, 1.0, 0, p=1.5)


class TestSIR:
    def test_recovery_stops_progress(self):
        protocol = SIREpidemic(2, SIDE, 1.0, 0, rng=np.random.default_rng(5), recovery_prob=1.0)
        positions_apart = np.array([[0.0, 0.0], [5.0, 0.0]])
        protocol.step(positions_apart)  # source transmits once, then recovers
        assert protocol.active_count == 0
        assert not protocol.can_progress()

    def test_zero_recovery_equals_flooding(self, rng):
        positions = rng.uniform(0, SIDE, (N, 2))
        flood = FloodingProtocol(N, SIDE, 1.5, 0)
        sir = SIREpidemic(N, SIDE, 1.5, 0, rng=np.random.default_rng(6), recovery_prob=0.0)
        for _ in range(5):
            flood.step(positions)
            sir.step(positions)
            assert np.array_equal(flood.informed, sir.informed)

    def test_informed_includes_recovered(self):
        protocol = SIREpidemic(2, SIDE, 1.0, 0, rng=np.random.default_rng(7), recovery_prob=1.0)
        positions_close = np.array([[0.0, 0.0], [0.5, 0.0]])
        protocol.step(positions_close)
        assert protocol.informed_count == 2  # agent 1 informed before recovery

    def test_invalid_recovery(self):
        with pytest.raises(ValueError):
            SIREpidemic(5, SIDE, 1.0, 0, recovery_prob=1.5)
