"""Seed-for-seed parity of both engines with the protocol oracles.

Every protocol in ``PROTOCOL_REGISTRY`` runs on ``engine="scalar"`` (a
one-replica view of its batch state) and ``engine="batch"``, and both
must reproduce the independent historical implementation in
``tests/protocol_oracles.py`` trial for trial — flooding times, coverage
curves, stall flags, per-agent informed steps, and the protocol-specific
extras (crashed/recovered counts, zone-resolved misses).  The sweep covers
every protocol x oracle engine x neighbor path, every protocol x mobility
model, and the retirement
semantics that only the non-flooding protocols exercise: parsimonious
window-close, SIR die-out before coverage, and crash-fault completion
over survivors only.
"""

import math

import numpy as np
import pytest

from protocol_oracles import OracleGossip, OraclePushPull, oracle_trials
from repro.geometry.neighbors import available_backends
from repro.kernels import kernel_backend, use_kernel_tier
from repro.protocols import BATCH_PROTOCOL_REGISTRY, PROTOCOL_REGISTRY
from repro.protocols.gossip import BatchGossipState
from repro.protocols.pushpull import BatchPushPullState
from repro.simulation import run_trials, standard_config

#: One canonical option set per protocol (non-defaults so the knobs are
#: exercised too).
PROTOCOL_OPTIONS = {
    "flooding": {},
    "gossip": {"fanout": 2},
    "push-pull": {},
    "parsimonious": {"active_window": 2},
    "probabilistic": {"p": 0.3},
    "sir": {"recovery_prob": 0.1},
    "crash-flooding": {"crash_prob": 0.01},
}


def fingerprint(result):
    extras = tuple(
        sorted((k, v) for k, v in result.extras.items() if k not in ("config", "n_agents"))
    )
    return (
        result.flooding_time,
        result.completed,
        result.stalled,
        result.n_steps,
        result.source,
        tuple(np.asarray(result.informed_history).tolist()),
        result.cz_completion_time,
        result.suburb_completion_time,
        result.source_in_central_zone,
        extras,
    )


def assert_parity(config, trials=3, oracle_backends=("auto",)):
    """Both engines equal the oracle on each of the ``oracle_backends``
    engines trial for trial; returns the batch engine's results."""
    scalar = [fingerprint(r) for r in run_trials(config.with_options(engine="scalar"), trials)]
    batch = run_trials(config.with_options(engine="batch"), trials)
    for backend in oracle_backends:
        oracle = [fingerprint(r) for r in oracle_trials(config, trials, backend)]
        assert scalar == oracle, backend
        assert [fingerprint(r) for r in batch] == oracle, backend
    return batch


class TestRegistryCoverage:
    def test_every_protocol_has_a_batched_state(self):
        assert set(BATCH_PROTOCOL_REGISTRY) == set(PROTOCOL_REGISTRY)

    def test_batch_registry_names_match_classes(self):
        for name, cls in BATCH_PROTOCOL_REGISTRY.items():
            assert cls.name == name


class TestProtocolParity:
    """Every protocol x oracle engine x neighbor path, and every protocol x
    mobility model."""

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_parity_across_neighbor_paths(self, protocol, neighbor_path):
        """Against the oracle on every engine this environment builds
        (``numpy-grid`` stands in for a host without scipy)."""
        config = standard_config(
            80,
            seed=37,
            protocol=protocol,
            protocol_options=dict(PROTOCOL_OPTIONS[protocol]),
            kernels=neighbor_path,
            max_steps=400,
        )
        assert_parity(config, oracle_backends=available_backends())

    @pytest.mark.parametrize("mobility", ["mrwp", "rwp", "random-walk"])
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_parity_across_mobility_models(self, protocol, mobility):
        config = standard_config(
            70,
            seed=41,
            protocol=protocol,
            protocol_options=dict(PROTOCOL_OPTIONS[protocol]),
            mobility=mobility,
            max_steps=400,
        )
        assert_parity(config)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_parity_through_replicated_mobility_fallback(self, protocol):
        config = standard_config(
            60,
            seed=43,
            protocol=protocol,
            protocol_options=dict(PROTOCOL_OPTIONS[protocol]),
            mobility="random-direction",
            max_steps=200,
        )
        assert_parity(config)

    def test_parity_is_independent_of_batch_size(self):
        """Stochastic protocols sliced into sub-batches draw identically."""
        config = standard_config(
            70, seed=47, protocol="gossip", protocol_options={"fanout": 1},
            engine="batch", max_steps=400,
        )
        whole = [fingerprint(r) for r in run_trials(config, 6)]
        sliced = [fingerprint(r) for r in run_trials(config.with_options(batch_size=2), 6)]
        assert whole == sliced


class TestRetirementSemantics:
    """Stalled/died-out replicas retire exactly where the oracle's loop stops."""

    def test_parsimonious_window_close_stalls_batch_like_scalar(self):
        # Sparse network + minimal window: most trials strand the message.
        config = standard_config(
            100, radius_factor=0.6, seed=5,
            protocol="parsimonious", protocol_options={"active_window": 1},
            max_steps=400,
        )
        batch = assert_parity(config, 6)
        stalled = [r for r in batch if r.stalled]
        assert stalled, "workload must exercise the window-close stall"
        for r in stalled:
            assert not r.completed
            assert math.isinf(r.flooding_time)
            assert r.final_coverage < 1.0
            # The replica retired before the horizon: no steps after stall.
            assert r.n_steps < config.max_steps

    def test_sir_die_out_before_coverage(self):
        config = standard_config(
            100, radius_factor=0.7, seed=3,
            protocol="sir", protocol_options={"recovery_prob": 0.9},
            max_steps=400,
        )
        batch = assert_parity(config, 6)
        died_out = [r for r in batch if r.stalled]
        assert died_out, "workload must exercise SIR die-out"
        for r in died_out:
            assert r.extras["recovered"] == r.informed_history[-1]  # all informed recovered
            assert r.final_coverage < 1.0

    def test_crash_fault_completion_over_survivors_only(self):
        config = standard_config(
            100, seed=9,
            protocol="crash-flooding", protocol_options={"crash_prob": 0.02},
            max_steps=400,
        )
        batch = assert_parity(config, 6)
        survivors_only = [
            r for r in batch if r.completed and r.informed_history[-1] < 100
        ]
        assert survivors_only, "workload must exercise completion with uninformed crashed agents"
        for r in survivors_only:
            # Completed over survivors: counts never reach n, yet the run
            # completes with a finite time equal to its last step.
            assert r.extras["crashed"] > 0
            assert r.flooding_time == r.n_steps
            assert r.extras["uninformed_survivors"] == 0

    def test_retired_replicas_freeze_generators(self):
        """A batch mixing fast-stalling and long-running replicas must
        reproduce the one-trial streams — i.e. retired replicas stop
        drawing while the rest keep lock-stepping."""
        config = standard_config(
            90, radius_factor=0.8, seed=61,
            protocol="sir", protocol_options={"recovery_prob": 0.5},
            max_steps=400,
        )
        batch = assert_parity(config, 8)
        n_steps = {r.n_steps for r in batch}
        assert len(n_steps) > 1, "workload must mix retirement steps"


TIERS = ["numpy"] + (["compiled"] if kernel_backend() is not None else [])

#: (oracle class, batch class, options) of the cut-sampling protocols.
CUT_PROTOCOLS = {
    "gossip-1": (OracleGossip, BatchGossipState, {"fanout": 1}),
    "gossip-3": (OracleGossip, BatchGossipState, {"fanout": 3}),
    "push-pull": (OraclePushPull, BatchPushPullState, {}),
}


class TestCutSamplingFromHandBuiltStates:
    """Batch gossip and push-pull equal their oracles step for step from
    hand-built informed sets, on both kernel tiers.

    Each replica holds an uninformed agent with several informed
    neighbours (it pulls, or is pushed to by one of many senders) and an
    informed agent with several uninformed neighbours (it pushes along
    its run of cut neighbours, or is pulled from); replica 1 retires after
    the second round while the others keep stepping.
    """

    SIDE, N, RADIUS, BATCH = 6.0, 48, 1.0, 3

    def build(self, rng):
        positions = rng.uniform(0, self.SIDE, (self.BATCH, self.N, 2))
        informed = rng.uniform(size=(self.BATCH, self.N)) < 0.25
        ring = np.stack([np.cos(np.arange(5)), np.sin(np.arange(5))], axis=1)
        for b in range(self.BATCH):
            # Agent 0 (uninformed) among informed agents 1-5; agent 6
            # (informed) among uninformed agents 7-11.
            positions[b, 0] = (1.5, 1.5)
            positions[b, 1:6] = (1.5, 1.5) + 0.8 * ring
            positions[b, 6] = (4.5, 4.5)
            positions[b, 7:12] = (4.5, 4.5) + 0.8 * ring
            informed[b, :12] = False
            informed[b, 1:7] = True
        return positions, informed

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("protocol", sorted(CUT_PROTOCOLS))
    def test_batch_equals_oracle(self, protocol, tier):
        oracle_cls, batch_cls, options = CUT_PROTOCOLS[protocol]
        rng = np.random.default_rng(71)
        positions, informed = self.build(rng)
        seeds = [101, 202, 303]
        with use_kernel_tier(tier):
            batch = batch_cls(
                self.N, self.SIDE, self.RADIUS, np.full(self.BATCH, 1),
                rngs=[np.random.default_rng(s) for s in seeds], **options,
            )
            batch.informed[:] = informed
            batch.informed_at[informed] = 0.0
            oracles = []
            for b, seed in enumerate(seeds):
                protocol_b = oracle_cls(
                    self.N, self.SIDE, self.RADIUS, 1,
                    rng=np.random.default_rng(seed), **options,
                )
                protocol_b.informed[:] = informed[b]
                protocol_b.informed_at[informed[b]] = 0.0
                oracles.append(protocol_b)
            # Both hubs straddle the cut with five neighbours each.
            rep, source, query = batch.query.bind(positions).contacts_within(
                informed, ~informed, self.RADIUS
            )
            for b in range(self.BATCH):
                mine = rep == b
                assert np.count_nonzero(mine & (query == 0)) >= 5
                assert np.count_nonzero(mine & (source == 6)) >= 5
            active = np.ones(self.BATCH, dtype=bool)
            for step in range(6):
                if step == 2:
                    active[1] = False
                newly = batch.step(positions, active=active)
                for b in np.nonzero(active)[0]:
                    expected = np.zeros(self.N, dtype=bool)
                    expected[oracles[b].step(positions[b])] = True
                    assert np.array_equal(newly[b], expected), (step, b)
                assert not newly[~active].any()
                moved = positions + rng.uniform(-0.3, 0.3, positions.shape)
                positions = np.where(
                    active[:, None, None], np.clip(moved, 0.0, self.SIDE), positions
                )
        for b, protocol_b in enumerate(oracles):
            assert np.array_equal(batch.informed[b], protocol_b.informed), b
            assert np.array_equal(batch.informed_at[b], protocol_b.informed_at), b
            assert batch.rngs[b].bit_generator.state == protocol_b.rng.bit_generator.state


class TestFinalMetrics:
    """End-of-run zone counts classify only the uninformed agents, once."""

    @staticmethod
    def _counting_zones(n, side, radius):
        """Zones whose ``in_suburb`` records how many points each call
        classifies; also returns the unwrapped method."""
        from repro.core.flooding import build_zone_partition

        zones = build_zone_partition(n, side, radius, threshold_factor=0.2)
        classify = zones.in_suburb
        sizes = []

        def in_suburb(points):
            sizes.append(len(points))
            return classify(points)

        zones.in_suburb = in_suburb
        return zones, classify, sizes

    @pytest.mark.parametrize("name", ["flooding", "sir", "crash-flooding"])
    @pytest.mark.parametrize("informed_frac", [0.0, 0.6, 1.0])
    def test_counts_match_a_classification_of_every_agent(self, name, informed_frac):
        rng = np.random.default_rng(17)
        config = standard_config(300, radius_factor=1.0, threshold_factor=0.2)
        batch, n, side, radius = 4, config.n, config.side, config.radius
        cls = BATCH_PROTOCOL_REGISTRY[name]
        rngs = [np.random.default_rng(s) for s in range(batch)]
        state = cls(n, side, radius, np.zeros(batch, dtype=np.intp), rngs=rngs)
        state.informed[:] = rng.random((batch, n)) < informed_frac
        state.informed[1] = False
        if name == "crash-flooding":
            state.crashed[:] = rng.random((batch, n)) < 0.3
        if name == "sir":
            state.recovered[:] = state.informed & (rng.random((batch, n)) < 0.5)
        positions = rng.uniform(0.0, side, size=(batch, n, 2))
        zones, classify, sizes = self._counting_zones(n, side, radius)
        got = state.final_metrics(positions, zones)
        suburb = classify(positions.reshape(-1, 2)).reshape(batch, n)
        missing = ~state.informed
        assert sizes == ([int(missing.sum())] if missing.any() else [])
        assert suburb.any() and (~suburb).any()
        for b, metrics in enumerate(got):
            want = {
                "uninformed_suburb": int(np.count_nonzero(missing[b] & suburb[b])),
                "uninformed_cz": int(np.count_nonzero(missing[b] & ~suburb[b])),
            }
            if name == "sir":
                want["recovered"] = int(np.count_nonzero(state.recovered[b]))
            if name == "crash-flooding":
                survivors = missing[b] & ~state.crashed[b]
                want["crashed"] = int(np.count_nonzero(state.crashed[b]))
                want["uninformed_survivors"] = int(np.count_nonzero(survivors))
                want["uninformed_survivors_suburb"] = int(np.count_nonzero(survivors & suburb[b]))
                want["uninformed_survivors_cz"] = int(np.count_nonzero(survivors & ~suburb[b]))
            assert list(metrics.items()) == list(want.items())

    def test_without_zones_nothing_is_classified(self):
        rngs = [np.random.default_rng(s) for s in range(2)]
        state = BATCH_PROTOCOL_REGISTRY["crash-flooding"](
            50, 5.0, 1.0, np.zeros(2, dtype=np.intp), rngs=rngs
        )
        metrics = state.final_metrics(np.zeros((2, 50, 2)))
        assert [sorted(m) for m in metrics] == [["crashed", "uninformed_survivors"]] * 2
