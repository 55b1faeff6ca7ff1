"""Independent per-protocol oracles: the historical scalar protocols.

The protocols of ``repro.protocols`` have one implementation each, a batch
state, and the scalar engine runs one-replica views of it.  The classes
below are the scalar exchange code the protocols ran before that, kept
unchanged as the reference.  Their neighbor answers come from
``make_engine(backend).bind(...)`` and the engines' coordinate API, never
from the batch neighbor query or the compiled kernels, so a parity test
against them compares two independent implementations.  The oracle's
``backend`` (``"grid"``, ``"kdtree"``, ``"brute"`` or ``"auto"``) is a
test-side choice: the library has no such setting.

:func:`oracle_trials` runs ``run_flooding`` once per seed child with the
protocol swapped for its oracle, so its results line up with
``run_trials`` trial for trial, on either engine.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np

from repro.geometry.neighbors import NeighborEngine, make_engine
from repro.protocols.base import _is_integer, group_segments, sample_indices
from repro.simulation import runner

__all__ = ["ORACLES", "OracleProtocol", "build_oracle", "oracle_trials"]


class OracleProtocol:
    """Per-agent message state of one run.

    Args:
        n: number of agents.
        side: region side (for the neighbor engine).
        radius: transmission radius ``R``.
        source: index of the initially informed agent.
        rng: generator for randomized protocols.
        backend: neighbor-engine backend name (``"auto"`` by default).
    """

    name = "abstract"

    def __init__(
        self,
        n: int,
        side: float,
        radius: float,
        source: int,
        rng: np.random.Generator = None,
        backend: str = "auto",
    ):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if not 0 <= source < n:
            raise ValueError(f"source must be in [0, {n}), got {source}")
        self.n = int(n)
        self.side = float(side)
        self.radius = float(radius)
        self.source = int(source)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.engine: NeighborEngine = make_engine(backend, self.side)
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[self.source] = True
        self.informed_at = np.full(self.n, np.inf)
        self.informed_at[self.source] = 0.0
        self.step_count = 0
        self._all_idx = np.arange(self.n, dtype=np.intp)

    @property
    def informed_count(self) -> int:
        return int(np.count_nonzero(self.informed))

    def is_complete(self) -> bool:
        return self.informed_count == self.n

    def can_progress(self) -> bool:
        return not self.is_complete()

    def _mark_informed(self, idx: np.ndarray) -> np.ndarray:
        """Record agents ``idx`` as informed at the current step; returns ``idx``."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size:
            self.informed[idx] = True
            self.informed_at[idx] = self.step_count
        return idx

    def step(self, positions: np.ndarray) -> np.ndarray:
        """One communication round; returns the newly informed indices."""
        self.step_count += 1
        return self._exchange(positions)

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def final_metrics(self, positions: np.ndarray, zones=None) -> dict:
        out = {}
        if zones is not None:
            missing = ~self.informed
            suburb = zones.in_suburb(positions)
            out["uninformed_suburb"] = int(np.count_nonzero(missing & suburb))
            out["uninformed_cz"] = int(np.count_nonzero(missing & ~suburb))
        return out


class OracleFlooding(OracleProtocol):
    """Flooding with incremental informed/uninformed index lists; hops
    ``>= 2`` of a multi-hop round send from the fresh frontier only."""

    name = "flooding"

    def __init__(self, *args, multi_hop: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.multi_hop = bool(multi_hop)
        self._informed_idx = None
        self._uninformed_idx = None

    def _index_lists(self) -> tuple:
        """Incremental index lists, re-derived from the mask when they
        drifted (external surgery, count-preserving included)."""
        count = self.informed_count
        if (
            self._informed_idx is None
            or self._informed_idx.size != count
            or self._uninformed_idx.size != self.n - count
            or not self.informed[self._informed_idx].all()
        ):
            self._informed_idx = np.nonzero(self.informed)[0]
            self._uninformed_idx = np.nonzero(~self.informed)[0]
        return self._informed_idx, self._uninformed_idx

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        informed_idx, uninformed = self._index_lists()
        if uninformed.size == 0:
            return np.empty(0, dtype=np.intp)
        snapshot = self.engine.bind(positions, self.radius)
        frontier = informed_idx
        newly_all = []
        while uninformed.size:
            hits = snapshot.any_within(frontier, uninformed)
            newly = uninformed[hits]
            if newly.size == 0:
                break
            self._mark_informed(newly)
            newly_all.append(newly)
            uninformed = uninformed[~hits]
            if not self.multi_hop:
                break
            frontier = newly
        self._uninformed_idx = uninformed
        if not newly_all:
            return np.empty(0, dtype=np.intp)
        newly_cat = np.concatenate(newly_all) if len(newly_all) > 1 else newly_all[0]
        self._informed_idx = np.concatenate([informed_idx, newly_cat])
        return newly_cat


class OracleGossip(OracleProtocol):
    """Push gossip: ``fanout`` neighbor-index picks per cut-incident sender."""

    name = "gossip"

    def __init__(self, *args, fanout: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        if not _is_integer(fanout) or fanout < 1:
            raise ValueError(f"fanout must be an integer of at least 1, got {fanout!r}")
        self.fanout = int(fanout)

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        uninformed_idx = np.nonzero(~self.informed)[0]
        if uninformed_idx.size == 0:
            return np.empty(0, dtype=np.intp)
        informed_idx = np.nonzero(self.informed)[0]
        snapshot = self.engine.bind(positions, self.radius)
        s_cut, t_cut = snapshot.contacts_within(informed_idx, uninformed_idx)
        if s_cut.size == 0:
            return np.empty(0, dtype=np.intp)
        # Canonical order: senders ascending, cut-neighbors ascending.
        order = np.argsort(s_cut * self.n + t_cut)
        s_cut = s_cut[order]
        t_cut = t_cut[order]
        senders, cut_degree, offsets = group_segments(s_cut)
        # Total degree: every agent within R (minus the sender itself).
        degree = snapshot.count_within(self._all_idx, senders) - 1
        r = self.rng.uniform(size=(self.fanout, senders.size))
        picks = sample_indices(r, degree)
        # A sender's neighbors are canonically ordered cut-first, so a
        # picked index below the cut-degree informs that cut-neighbor.
        hit = (picks >= 0) & (picks < cut_degree[None, :])
        targets = t_cut[(offsets[None, :] + picks)[hit]]
        return self._mark_informed(np.unique(targets))


class OraclePushPull(OracleProtocol):
    """Push-pull gossip: every cut-incident agent contacts one neighbor."""

    name = "push-pull"

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        uninformed_idx = np.nonzero(~self.informed)[0]
        if uninformed_idx.size == 0:
            return np.empty(0, dtype=np.intp)
        informed_idx = np.nonzero(self.informed)[0]
        snapshot = self.engine.bind(positions, self.radius)
        s_cut, t_cut = snapshot.contacts_within(informed_idx, uninformed_idx)
        if s_cut.size == 0:
            return np.empty(0, dtype=np.intp)
        # Both endpoints of every cut contact initiate; agents without a
        # cut-neighbor cannot move the message, so their picks are skipped.
        init = np.concatenate([s_cut, t_cut])
        neighbor = np.concatenate([t_cut, s_cut])
        order = np.argsort(init * self.n + neighbor)
        init = init[order]
        neighbor = neighbor[order]
        initiators, cut_degree, offsets = group_segments(init)
        degree = snapshot.count_within(self._all_idx, initiators) - 1
        r = self.rng.uniform(size=initiators.size)
        pick = np.floor(r * degree).astype(np.intp)
        np.minimum(pick, np.maximum(degree - 1, 0), out=pick)
        cross = pick < cut_degree
        partner = neighbor[offsets[cross] + pick[cross]]
        who = initiators[cross]
        who_informed = self.informed[who]
        # Informed initiators push to their picked uninformed neighbor;
        # uninformed initiators pull and inform themselves.
        newly = np.unique(np.concatenate([partner[who_informed], who[~who_informed]]))
        return self._mark_informed(newly)


class OracleParsimonious(OracleProtocol):
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
        age = self.step_count - self.informed_at
        return self.informed & (age >= 1) & (age <= self.active_window)

    def can_progress(self) -> bool:
        if self.is_complete():
            return False
        # An agent informed at s transmits during steps s+1 .. s+active_window.
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


class OracleProbabilistic(OracleProtocol):
    """Flooding with per-step transmission probability ``p``."""

    name = "probabilistic"

    def __init__(self, *args, p: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.p = float(p)

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        transmitting = self.informed & (self.rng.uniform(size=self.n) < self.p)
        if not np.any(transmitting):
            return np.empty(0, dtype=np.intp)
        uninformed = np.nonzero(~self.informed)[0]
        if uninformed.size == 0:
            return np.empty(0, dtype=np.intp)
        hits = self.engine.any_within(positions[transmitting], positions[uninformed], self.radius)
        return self._mark_informed(uninformed[hits])


class OracleSIR(OracleProtocol):
    """SIR dynamics: transmitters recover after transmitting."""

    name = "sir"

    def __init__(self, *args, recovery_prob: float = 0.1, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= recovery_prob <= 1.0:
            raise ValueError(f"recovery_prob must be in [0, 1], got {recovery_prob}")
        self.recovery_prob = float(recovery_prob)
        self.recovered = np.zeros(self.n, dtype=bool)

    @property
    def infected(self) -> np.ndarray:
        return self.informed & ~self.recovered

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.infected))

    def can_progress(self) -> bool:
        return not self.is_complete() and self.active_count > 0

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        infected = self.infected
        newly = np.empty(0, dtype=np.intp)
        if np.any(infected):
            uninformed = np.nonzero(~self.informed)[0]
            if uninformed.size:
                hits = self.engine.any_within(
                    positions[infected], positions[uninformed], self.radius
                )
                newly = self._mark_informed(uninformed[hits])
            # Recovery happens after this step's transmissions.
            active_idx = np.nonzero(infected)[0]
            recover = self.rng.uniform(size=active_idx.size) < self.recovery_prob
            self.recovered[active_idx[recover]] = True
        return newly

    def final_metrics(self, positions: np.ndarray, zones=None) -> dict:
        out = super().final_metrics(positions, zones)
        out["recovered"] = int(np.count_nonzero(self.recovered))
        return out


class OracleCrashFault(OracleProtocol):
    """Flooding where agents crash-stop independently each step."""

    name = "crash-flooding"

    def __init__(self, *args, crash_prob: float = 0.001, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= crash_prob <= 1.0:
            raise ValueError(f"crash_prob must be in [0, 1], got {crash_prob}")
        self.crash_prob = float(crash_prob)
        self.crashed = np.zeros(self.n, dtype=bool)

    @property
    def alive(self) -> np.ndarray:
        return ~self.crashed

    def is_complete(self) -> bool:
        """Every surviving agent informed."""
        return bool(np.all(self.informed[self.alive]))

    def can_progress(self) -> bool:
        if self.is_complete():
            return False
        # Progress requires at least one live transmitter.
        return bool(np.any(self.informed & self.alive))

    def _exchange(self, positions: np.ndarray) -> np.ndarray:
        transmitters = self.informed & self.alive
        newly = np.empty(0, dtype=np.intp)
        if np.any(transmitters):
            receivers = np.nonzero(~self.informed & self.alive)[0]
            if receivers.size:
                hits = self.engine.any_within(
                    positions[transmitters], positions[receivers], self.radius
                )
                newly = self._mark_informed(receivers[hits])
        # Crashes strike after the exchange.
        strikes = self.rng.uniform(size=self.n) < self.crash_prob
        self.crashed |= strikes
        return newly

    def final_metrics(self, positions: np.ndarray, zones=None) -> dict:
        out = super().final_metrics(positions, zones)
        out["crashed"] = int(np.count_nonzero(self.crashed))
        missing = self.alive & ~self.informed
        out["uninformed_survivors"] = int(np.count_nonzero(missing))
        if zones is not None:
            suburb = zones.in_suburb(positions)
            out["uninformed_survivors_suburb"] = int(np.count_nonzero(missing & suburb))
            out["uninformed_survivors_cz"] = int(np.count_nonzero(missing & ~suburb))
        return out


ORACLES = {
    cls.name: cls
    for cls in (
        OracleFlooding, OracleGossip, OraclePushPull, OracleParsimonious,
        OracleProbabilistic, OracleSIR, OracleCrashFault,
    )
}


def build_oracle(
    config, source: int, rng: np.random.Generator, backend: str = "auto"
) -> OracleProtocol:
    """The oracle of ``config.protocol`` on the ``backend`` engine, built as
    ``runner.build_protocol`` builds the protocol (flooding inherits
    ``config.multi_hop``)."""
    options = dict(config.protocol_options)
    if config.protocol == "flooding":
        options.setdefault("multi_hop", config.multi_hop)
    return ORACLES[config.protocol](
        config.n, config.side, config.radius, source,
        rng=rng, backend=backend, **options,
    )


def oracle_trials(config, n_trials: int, backend: str = "auto") -> list:
    """``run_trials(config, n_trials)`` with every protocol an oracle on the
    ``backend`` engine: one ``run_flooding`` per child of
    ``SeedSequence(config.seed)``, so mobility, sources, observers and
    result assembly are the scalar engine's own."""
    children = np.random.SeedSequence(config.seed).spawn(n_trials)
    build = functools.partial(build_oracle, backend=backend)
    with mock.patch.object(runner, "build_protocol", build):
        return [runner.run_flooding(config, seed_seq=child) for child in children]
