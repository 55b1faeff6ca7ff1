"""Zone completion times against an independent oracle.

Both engines record when each replica's Central Zone and Suburb complete
through the same code (:func:`repro.simulation.metrics.zones_left`, and
on the compiled tier its ``zone_counts`` scan), and so do the protocol
oracles of ``tests/protocol_oracles.py``, which run inside
``run_flooding``.  Engine parity therefore cannot catch a zone bug.  The
oracle here records every step's positions and informed mask through a
``run_flooding`` observer and takes a zone's completion time to be the
first step at which ``count(in zone & informed) == count(in zone)``,
with each agent's zone read from ``CellGrid.cell_indices`` and the
partition's ``cz_mask``.
"""

import math

import numpy as np
import pytest

from repro.core.flooding import build_zone_partition
from repro.kernels import kernel_backend, provider_kernels
from repro.simulation import runner, standard_config
from repro.simulation.batch import run_protocol_batch

TRIALS = 8

#: (protocol, options, mobility, radius factor).  Flooding and gossip
#: complete; crash-flooding completes over the survivors, so a replica
#: can retire with a zone that holds a crashed agent still open; SIR at
#: the smaller radius dies out with the Suburb open.
CASES = {
    "flooding-mrwp": ("flooding", {}, "mrwp", 1.0),
    "gossip-rwp": ("gossip", {"fanout": 1}, "rwp", 1.0),
    "crash-flooding-mrwp": ("crash-flooding", {"crash_prob": 0.01}, "mrwp", 1.0),
    "sir-mrwp": ("sir", {"recovery_prob": 0.5}, "mrwp", 0.6),
}

#: Definition 4's 3/8 leaves the Central Zone without a cell at n = 300;
#: 0.2 gives it 121 of the 289 cells at radius factor 1.
THRESHOLDS = {"three-eighths": 3.0 / 8.0, "one-fifth": 0.2}


class SnapshotRecorder:
    """Observer that keeps a copy of every step's positions and informed mask."""

    def __init__(self):
        self.positions = []
        self.informed = []

    def start(self, positions, protocol):
        self.positions.append(np.array(positions, dtype=np.float64))
        self.informed.append(np.array(protocol.informed, dtype=bool))

    def observe(self, t, positions, protocol, newly):
        self.start(positions, protocol)


def oracle_times(zones, recorder):
    """``(cz, suburb)`` completion steps from the recorded snapshots."""
    times = [math.inf, math.inf]
    for step, (positions, informed) in enumerate(zip(recorder.positions, recorder.informed)):
        ij = zones.grid.cell_indices(positions)
        in_cz = zones.cz_mask[ij[:, 0], ij[:, 1]]
        for zone, in_zone in enumerate((in_cz, ~in_cz)):
            total = np.count_nonzero(in_zone)
            if math.isinf(times[zone]) and np.count_nonzero(in_zone & informed) == total:
                times[zone] = float(step)
    return tuple(times)


def make_config(case, threshold, kernels):
    protocol, options, mobility, radius_factor = CASES[case]
    return standard_config(
        300, radius_factor=radius_factor, protocol=protocol, protocol_options=options,
        mobility=mobility, threshold_factor=THRESHOLDS[threshold], kernels=kernels,
        max_steps=400, seed=3,
    )


def oracle_run(config):
    """Scalar-engine results and the oracle's times, trial by trial."""
    zones = build_zone_partition(config.n, config.side, config.radius, config.threshold_factor)
    results, times, source_zones = [], [], []
    for child in np.random.SeedSequence(config.seed).spawn(TRIALS):
        recorder = SnapshotRecorder()
        result = runner.run_flooding(config, seed_seq=child, extra_observers=[recorder])
        results.append(result)
        times.append(oracle_times(zones, recorder))
        source = recorder.positions[0][result.source]
        source_zones.append(bool(zones.in_central_zone(source[None])[0]))
    return zones, results, times, source_zones


@pytest.fixture(params=["numpy", "compiled"])
def tier(request):
    if request.param == "compiled" and kernel_backend() is None:
        pytest.skip("no compiled kernel provider builds on this host")
    return request.param


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("case", CASES)
def test_both_engines_match_the_oracle(case, threshold, tier):
    config = make_config(case, threshold, tier)
    _zones, scalar, times, source_zones = oracle_run(config)
    children = np.random.SeedSequence(config.seed).spawn(TRIALS)
    batch = run_protocol_batch(config, children)
    # One batch of eight replicas that retire at different steps.
    assert len({result.n_steps for result in batch}) > 1
    for result in scalar + batch:
        assert result.extras["kernel_tier"] == ("numpy" if tier == "numpy" else "cext")
    for engine in (scalar, batch):
        got = [(r.cz_completion_time, r.suburb_completion_time) for r in engine]
        assert got == times
        assert [r.source_in_central_zone for r in engine] == source_zones


def test_cases_reach_every_zone_outcome():
    """The oracle comparison above is not vacuous: across its cases a
    Central Zone without agents completes at step 0, both zones complete
    at different steps, a replica retires with one zone complete and the
    other open, and a replica stalls with a zone open."""
    outcomes = {}
    for case in CASES:
        for threshold in THRESHOLDS:
            zones, results, times, _ = oracle_run(make_config(case, threshold, "numpy"))
            outcomes[case, threshold] = (zones, results, times)
    zones, _, times = outcomes["flooding-mrwp", "three-eighths"]
    assert zones.n_central_cells == 0 and {cz for cz, _ in times} == {0.0}
    zones, _, times = outcomes["flooding-mrwp", "one-fifth"]
    assert 0 < zones.n_central_cells < zones.grid.n_cells
    assert all(0.0 < cz < suburb < math.inf for cz, suburb in times)
    _, results, times = outcomes["crash-flooding-mrwp", "one-fifth"]
    assert any(
        r.completed and math.isfinite(cz) and math.isinf(suburb)
        for r, (cz, suburb) in zip(results, times)
    )
    _, results, times = outcomes["sir-mrwp", "one-fifth"]
    assert any(r.stalled and math.isinf(suburb) for r, (_cz, suburb) in zip(results, times))


def test_scalar_engine_stops_watching_complete_zones(monkeypatch):
    """On the compiled tier the scalar engine asks ``zone_counts`` about
    one ``(1, n, 2)`` snapshot a step, with the zones still open, and
    stops asking once both have completed."""
    if kernel_backend() is None:
        pytest.skip("no compiled kernel provider builds on this host")
    table = provider_kernels()
    kernel = table["zone_counts"]
    calls = []

    def counted(positions, informed, ell, m, cz_mask, open_zones):
        calls.append((positions.shape, int(open_zones[0])))
        return kernel(positions, informed, ell, m, cz_mask, open_zones)

    monkeypatch.setitem(table, "zone_counts", counted)
    # Gossip's first trial completes both zones a step before it informs
    # its last agent.
    config = make_config("gossip-rwp", "one-fifth", "compiled")
    child = np.random.SeedSequence(config.seed).spawn(TRIALS)[0]
    result = runner.run_flooding(config, seed_seq=child)
    last = max(result.cz_completion_time, result.suburb_completion_time)
    assert math.isfinite(last) and last < result.n_steps
    assert len(calls) == last + 1
    assert all(shape == (1, config.n, 2) for shape, _ in calls)
    assert calls[0][1] == 3 and calls[-1][1] != 3
