"""Compiled kernel tier: registry, parity, and end-to-end invisibility.

The tier's core contract is the same one the neighbor-path suites
enforce: ``kernels`` is a *performance* knob.  Every compiled kernel is
bit-exact against its numpy path, so compiled and numpy runs of the same
seeds must be indistinguishable down to the informed-at step of every
agent — and every test here must stay green whether or not a compiled
provider (the bundled C extension) is actually available.  The
reference table is the library's glue over the pure-Python spec,
``kernel_oracles.py``, which the C provider mirrors.
"""

import multiprocessing
import os
import platform
import shutil
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import kernel_oracles
from repro.kernels import (
    CENTRAL_ZONE,
    KERNEL_NAMES,
    SUBURB,
    KERNEL_TIERS,
    EuclideanTrips,
    ManhattanTrips,
    PauseTrips,
    SpeedRangeTrips,
    TripWork,
    _reset_probe_cache_for_tests,
    compile_events,
    get_kernel,
    kernel_backend,
    kernel_tier_label,
    provider_kernels,
    resolve_kernel_tier,
    use_kernel_tier,
)
from repro.kernels import _cext, _glue
from repro.kernels._glue import _CELL_MARGIN, _contacts_capacity, make_kernels
from repro.core.cells import CellGrid
from repro.core.zones import ZonePartition
from repro.mobility import kinematics
from repro.mobility.kinematics import (
    DenseLegScratch,
    advance_legs,
    advance_legs_dense,
    redraw_manhattan_trips,
    split_completed_legs,
)
from repro.mobility.pause import _advance_pause_mrwp
from repro.mobility.rwp import _advance_rwp
from repro.mobility.speed_range import _advance_random_speed
from repro.mobility.stationary import PalmStationarySampler
from repro.simulation import run_sweep, run_trials, standard_config
from repro.simulation.metrics import zones_left

HAVE_PROVIDER = kernel_backend() is not None

needs_provider = pytest.mark.skipif(
    not HAVE_PROVIDER, reason="no compiled kernel provider on this host"
)


def reference_kernels():
    """The kernel table of the pure-Python spec (always available — it
    *is* the spec), through the library's glue."""
    return make_kernels(kernel_oracles)


def _tables():
    """Every kernel table under test: the reference table, plus the
    provider's when it builds."""
    tables = [("reference", reference_kernels())]
    if HAVE_PROVIDER:
        tables.append((kernel_backend(), provider_kernels()))
    return tables


TABLES = _tables()
TABLE_IDS = [name for name, _ in TABLES]
#: Every entry of the kernel table: the provider's when one exists, else
#: the reference's (both come from ``make_kernels``).  ``palm_states`` is
#: in the table but not in ``KERNEL_NAMES``.
TABLE_NAMES = list(TABLES[-1][1])


# ----------------------------------------------------------------------
# Registry, probes, and escape hatches
# ----------------------------------------------------------------------
class TestRegistry:
    def test_escape_hatches_force_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        _reset_probe_cache_for_tests()
        try:
            assert kernel_backend() is None
            assert resolve_kernel_tier("auto") == "numpy"
            assert kernel_tier_label("auto") == "numpy"
            with pytest.raises(RuntimeError, match="no compiled kernel provider"):
                provider_kernels()
            with pytest.raises(RuntimeError, match="compiled"):
                resolve_kernel_tier("compiled")
            # An explicit compiled demand surfaces through the runner too.
            config = standard_config(40, seed=3, kernels="compiled")
            with pytest.raises(RuntimeError, match="compiled"):
                run_trials(config, 1)
        finally:
            monkeypatch.delenv("REPRO_NO_CEXT")
            _reset_probe_cache_for_tests()

    def test_provider_builds_where_a_compiler_exists(self):
        # A C source that does not compile must fail here: otherwise every
        # provider test skips and "auto" quietly runs the numpy tier.
        if os.environ.get("REPRO_NO_CEXT") == "1":
            pytest.skip("the compiled provider is blocked (REPRO_NO_CEXT=1)")
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on the PATH")
        # Probe afresh, whatever an earlier test left in the cache.
        _reset_probe_cache_for_tests()
        assert kernel_backend() == "cext", _cext.build_error()

    def test_probe_results_are_cached(self):
        first = kernel_backend()
        assert kernel_backend() is first or kernel_backend() == first
        if first is not None:
            assert provider_kernels() is provider_kernels()

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="kernel tier"):
            resolve_kernel_tier("bogus")

    def test_tier_label_matches_backend(self):
        label = kernel_tier_label("auto")
        backend = kernel_backend()
        if backend is None:
            assert label == "numpy"
        else:
            assert label == "cext"
        assert kernel_tier_label("numpy") == "numpy"


class TestTierScoping:
    def test_default_tier_is_numpy(self):
        assert all(get_kernel(name) is None for name in TABLE_NAMES)

    def test_table_holds_every_benchmarked_name(self):
        assert set(KERNEL_NAMES) <= set(TABLE_NAMES)
        assert "palm_states" in TABLE_NAMES and "palm_states" not in KERNEL_NAMES

    def test_numpy_tier_never_dispatches(self):
        with use_kernel_tier("numpy") as tier:
            assert tier == "numpy"
            assert all(get_kernel(name) is None for name in TABLE_NAMES)

    @needs_provider
    def test_compiled_tier_scopes_and_restores(self):
        with use_kernel_tier("compiled") as tier:
            assert tier == "compiled"
            assert all(callable(get_kernel(name)) for name in provider_kernels())
            with use_kernel_tier("numpy"):
                assert get_kernel("union_fixpoint") is None
            assert callable(get_kernel("union_fixpoint"))
        assert get_kernel("union_fixpoint") is None

    def test_auto_resolves_to_best_available(self):
        expected = "compiled" if HAVE_PROVIDER else "numpy"
        assert resolve_kernel_tier("auto") == expected
        with use_kernel_tier("auto") as tier:
            assert tier == expected


class TestConfigKnob:
    def test_default_and_validation(self):
        config = standard_config(50)
        assert config.kernels == "auto"
        with pytest.raises(ValueError, match="kernels"):
            standard_config(50, kernels="bogus")
        for tier in KERNEL_TIERS:
            if tier == "compiled" and not HAVE_PROVIDER:
                continue
            assert standard_config(50, kernels=tier).kernels == tier


class TestDataPointer:
    """The C adapters pass each array's data pointer, read from the
    ndarray struct on CPython and from ``arr.ctypes.data`` elsewhere."""

    def test_address_matches_ctypes_data_on_every_probe_kind(self):
        stack = np.zeros((3, 4, 2))
        extra = (
            stack, stack[1], stack[:, ::2], np.asfortranarray(np.ones((3, 4), dtype=bool)),
            np.zeros(7, dtype=np.uint8)[3:], np.uintp([1, 2]),
        )
        for arr in (*_cext._probe_arrays(), *extra):
            assert _cext._addr(arr) == arr.ctypes.data

    def test_struct_read_is_used_on_cpython(self):
        if platform.python_implementation() != "CPython":
            assert _cext._addr is _cext._ctypes_addr
            return
        assert _cext._reads_data_pointer(_cext._DATA_OFFSET)
        assert _cext._addr is _cext._struct_addr

    def test_probe_rejects_a_wrong_offset(self):
        for offset in (_cext._DATA_OFFSET - 8, _cext._DATA_OFFSET + 8):
            assert not _cext._reads_data_pointer(offset)


# ----------------------------------------------------------------------
# Per-kernel parity against independent numpy oracles
# ----------------------------------------------------------------------
def _sorted_contacts(pos, src_mask, qry_mask, radius):
    """Brute-force (replica, source, query) contacts, sorted in that order."""
    expect = []
    for b in range(pos.shape[0]):
        d = pos[b, :, None, :] - pos[b, None, :, :]
        close = (d ** 2).sum(-1) <= radius * radius
        for s in np.nonzero(src_mask[b])[0]:
            for q in np.nonzero(qry_mask[b])[0]:
                if close[s, q]:
                    expect.append((b, s, q))
    return np.array(expect, dtype=np.intp).reshape(-1, 3).T


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=TABLE_IDS)
class TestPairKernelParity:
    def _oracle_any_within(self, pos, src_mask, qry_mask, radius):
        batch, n, _ = pos.shape
        out = np.zeros((batch, n), dtype=bool)
        for b in range(batch):
            d = pos[b, :, None, :] - pos[b, None, :, :]
            hit = ((d ** 2).sum(-1) <= radius * radius) & src_mask[b][None, :]
            out[b] = hit.any(axis=1) & qry_mask[b]
        return out

    def test_any_within_randomized(self, table, rng):
        for _ in range(25):
            batch = int(rng.integers(1, 4))
            n = int(rng.integers(1, 40))
            side = float(rng.uniform(0.5, 8.0))
            radius = float(rng.uniform(0.05, side))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < rng.uniform(0, 1)
            qry = rng.random((batch, n)) < rng.uniform(0, 1)
            got = table["batch_any_within"](pos, src, qry, radius, side)
            assert got is not None
            expect = self._oracle_any_within(pos, src, qry, radius)
            np.testing.assert_array_equal(got, expect)

    def test_contacts_randomized(self, table, rng):
        for _ in range(15):
            batch = int(rng.integers(1, 3))
            n = int(rng.integers(2, 30))
            side = float(rng.uniform(1.0, 6.0))
            radius = float(rng.uniform(0.2, side / 2))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < 0.6
            qry = rng.random((batch, n)) < 0.6
            got = table["batch_contacts"](pos, src, qry, radius, side)
            assert got is not None
            for got_col, expect_col in zip(got, _sorted_contacts(pos, src, qry, radius)):
                np.testing.assert_array_equal(got_col, expect_col)

    @staticmethod
    def _oracle_counts(pos, src_mask, qry_mask, radius):
        """Inclusive brute-force count of each query's sources; 0 off-query."""
        batch, n, _ = pos.shape
        out = np.zeros((batch, n), dtype=np.intp)
        for b in range(batch):
            d = pos[b, :, None, :] - pos[b, None, :, :]
            close = ((d ** 2).sum(-1) <= radius * radius) & src_mask[b][None, :]
            out[b] = np.where(qry_mask[b], close.sum(axis=1), 0)
        return out

    def test_counts_randomized(self, table, rng):
        for _ in range(25):
            batch = int(rng.integers(1, 4))
            n = int(rng.integers(1, 40))
            side = float(rng.uniform(0.5, 8.0))
            radius = float(rng.uniform(0.05, side))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < rng.uniform(0, 1)
            qry = rng.random((batch, n)) < rng.uniform(0, 1)
            got = table["batch_contacts"](pos, src, qry, radius, side, counts=True)
            assert got.dtype == np.intp and got.shape == (batch, n)
            np.testing.assert_array_equal(got, self._oracle_counts(pos, src, qry, radius))

    def test_counts_include_points_exactly_r_apart(self, table):
        # Lattice neighbors sit exactly R = 1 apart and count; diagonal
        # neighbors (sqrt 2) do not.
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), -1).reshape(1, -1, 2)
        everyone = np.ones(grid.shape[:2], dtype=bool)
        got = table["batch_contacts"](grid, everyone, everyone, 1.0, 5.0, counts=True)
        np.testing.assert_array_equal(got, self._oracle_counts(grid, everyone, everyone, 1.0))
        assert got.max() == 5

    def test_adversarial_masks(self, table, rng):
        pos = rng.uniform(0, 5.0, size=(2, 6, 2))
        full = np.ones((2, 6), dtype=bool)
        none = np.zeros((2, 6), dtype=bool)
        # Empty frontier: no sources.
        assert not table["batch_any_within"](pos, none, full, 1.0, 5.0).any()
        # All-frozen replicas: no queries.
        assert not table["batch_any_within"](pos, full, none, 1.0, 5.0).any()
        rep, s_idx, q_idx = table["batch_contacts"](pos, none, full, 1.0, 5.0)
        assert rep.size == 0 and s_idx.size == 0 and q_idx.size == 0
        for src, qry in ((none, full), (full, none)):
            counts = table["batch_contacts"](pos, src, qry, 1.0, 5.0, counts=True)
            assert counts.dtype == np.intp and counts.shape == (2, 6)
            assert not counts.any()

    def test_single_agent(self, table, rng):
        pos = rng.uniform(0, 3.0, size=(1, 1, 2))
        mask = np.ones((1, 1), dtype=bool)
        got = table["batch_any_within"](pos, mask, mask, 0.5, 3.0)
        # The lone agent is within radius zero of itself.
        assert got[0, 0]
        counts = table["batch_contacts"](pos, mask, mask, 0.5, 3.0, counts=True)
        assert counts.tolist() == [[1]]

    def test_out_of_domain_returns_none(self, table, rng):
        pos32 = rng.uniform(0, 3.0, size=(1, 4, 2)).astype(np.float32)
        mask = np.ones((1, 4), dtype=bool)
        assert table["batch_any_within"](pos32, mask, mask, 0.5, 3.0) is None
        assert table["batch_any_within"](
            rng.uniform(0, 3.0, size=(1, 4, 2)), mask, mask, -1.0, 3.0
        ) is None
        for counts in (False, True):
            assert table["batch_contacts"](pos32, mask, mask, 0.5, 3.0, counts=counts) is None
        # Masks that are not (B, n) go to numpy.
        pos = rng.uniform(0, 3.0, size=(1, 4, 2))
        flat = mask.reshape(-1)
        assert table["batch_any_within"](pos, flat, mask, 0.5, 3.0) is None
        for counts in (False, True):
            assert table["batch_contacts"](pos, mask, flat, 0.5, 3.0, counts=counts) is None

    def _assert_matches_oracles(self, table, pos, src, qry, radius, side):
        """All three pair queries against the brute-force oracles."""
        got = table["batch_any_within"](pos, src, qry, radius, side)
        np.testing.assert_array_equal(got, self._oracle_any_within(pos, src, qry, radius))
        counts = table["batch_contacts"](pos, src, qry, radius, side, counts=True)
        np.testing.assert_array_equal(counts, self._oracle_counts(pos, src, qry, radius))
        pairs = table["batch_contacts"](pos, src, qry, radius, side)
        for got_col, expect_col in zip(pairs, _sorted_contacts(pos, src, qry, radius)):
            np.testing.assert_array_equal(got_col, expect_col)
        return got, counts, pairs

    def test_retired_replicas_between_live_ones(self, table, rng):
        # Replicas 1 and 3 are retired: all-False masks, and NaN positions
        # that the reference core could not bin (int(nan) raises).
        batch, n, side, radius = 5, 40, 4.0, 0.6
        pos = rng.uniform(0, side, size=(batch, n, 2))
        src = rng.random((batch, n)) < 0.4
        qry = ~src
        for b in (1, 3):
            src[b] = qry[b] = False
            pos[b] = np.nan
        _any, counts, (rep, _s, _q) = self._assert_matches_oracles(
            table, pos, src, qry, radius, side
        )
        assert not counts[[1, 3]].any() and not np.isin(rep, [1, 3]).any()
        assert np.array_equal(np.unique(rep), [0, 2, 4])

    def test_source_only_replica_next_to_query_only_replica(self, table, rng):
        # Replica 1 has sources and no queries, replica 2 queries and no
        # sources at replica 1's positions: replica 1's grid must not
        # answer replica 2's queries.
        batch, n, side, radius = 4, 30, 3.0, 0.7
        pos = rng.uniform(0, side, size=(batch, n, 2))
        pos[2] = pos[1]
        src = rng.random((batch, n)) < 0.5
        qry = ~src
        src[1], qry[1] = True, False
        src[2], qry[2] = False, True
        got, counts, (rep, _s, _q) = self._assert_matches_oracles(
            table, pos, src, qry, radius, side
        )
        assert not got[1:3].any() and not counts[1:3].any()
        assert not np.isin(rep, [1, 2]).any()

    def test_agents_on_cell_boundaries_and_exactly_r_apart(self, table, rng):
        # Multiples of R (exactly R apart, across a cell boundary) and
        # multiples of the grid's cell side (on the boundaries), in two
        # replicas with different orders and masks.
        radius, side = 0.5, 4.0
        cell = radius * (1.0 + _CELL_MARGIN)
        lattice = np.arange(9) * radius
        edges = np.arange(8) * cell
        pts = np.concatenate([
            np.stack(np.meshgrid(lattice, lattice), -1).reshape(-1, 2),
            np.stack(np.meshgrid(edges, edges), -1).reshape(-1, 2),
        ])
        pos = np.stack([pts, pts[rng.permutation(len(pts))]])
        everyone = np.ones(pos.shape[:2], dtype=bool)
        self._assert_matches_oracles(table, pos, everyone, everyone, radius, side)
        src = rng.random(everyone.shape) < 0.5
        _any, _counts, pairs = self._assert_matches_oracles(
            table, pos, src, ~src, radius, side
        )
        # (1.0, 1.0) and (1.5, 1.0) sit in cells 1 and 2 of their row.
        a = int(np.flatnonzero((pts == (1.0, 1.0)).all(1))[0])
        b = int(np.flatnonzero((pts == (1.5, 1.0)).all(1))[0])
        assert int(pts[a, 0] / cell) + 1 == int(pts[b, 0] / cell)
        full = table["batch_contacts"](pos[:1], everyone[:1], everyone[:1], radius, side)
        assert {(0, a, b), (0, b, a)} <= set(zip(*(col.tolist() for col in full)))

    @staticmethod
    def _assert_degrees(table, pos, src, qry, radius, side):
        """``batch_contacts(..., degrees=)`` writes the brute-force count of
        agents of either mask at each source with a contact, leaves every
        other entry alone and returns the same contacts."""
        degrees = np.full(src.shape, -7, dtype=np.intp)
        rep, source, query = table["batch_contacts"](pos, src, qry, radius, side, degrees=degrees)
        for got_col, expect_col in zip((rep, source, query), _sorted_contacts(pos, src, qry, radius)):
            np.testing.assert_array_equal(got_col, expect_col)
        cut = np.zeros(src.shape, dtype=bool)
        cut[rep, source] = True
        expect = TestPairKernelParity._oracle_counts(pos, src | qry, cut, radius)
        np.testing.assert_array_equal(degrees, np.where(cut, expect, -7))
        return rep

    def test_degrees_randomized(self, table, rng):
        for trial in range(15):
            batch = int(rng.integers(1, 4))
            n = int(rng.integers(1, 40))
            side = float(rng.uniform(1.0, 6.0))
            radius = float(rng.uniform(0.2, side / 2))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < 0.5
            # Disjoint masks, as the protocols pass them, then overlapping.
            qry = ~src if trial % 2 else rng.random((batch, n)) < 0.6
            self._assert_degrees(table, pos, src, qry, radius, side)

    def test_degrees_of_a_cut_that_overflows_its_first_capacity(self, table, rng):
        # Replica 1 is a dense cluster: its cut alone passes the first
        # capacity guess, so the degrees come from the re-run.
        batch, n, radius, side = 3, 60, 0.5, 10.0
        pos = rng.uniform(0, side, size=(batch, n, 2))
        pos[1] = rng.uniform(4.0, 4.3, size=(n, 2))
        src = rng.random((batch, n)) < 0.5
        rep = self._assert_degrees(table, pos, src, ~src, radius, side)
        first_guess = _contacts_capacity(
            np.count_nonzero(src), np.count_nonzero(~src), batch, radius, side
        )
        assert np.count_nonzero(rep == 1) > first_guess

    def test_degrees_out_of_domain_return_none(self, table, rng):
        pos = rng.uniform(0, 3.0, size=(2, 5, 2))
        src = np.zeros((2, 5), dtype=bool)
        src[:, 0] = True
        for degrees in (
            np.zeros((2, 5), dtype=np.int32),
            np.zeros((5, 2), dtype=np.intp),
            np.zeros((2, 10), dtype=np.intp)[:, ::2],
        ):
            assert table["batch_contacts"](pos, src, ~src, 1.0, 3.0, degrees=degrees) is None

    def test_mask_dtype_and_layout_do_not_change_answers(self, table, rng):
        batch, n, side, radius = 3, 25, 3.0, 0.8
        pos = rng.uniform(0, side, size=(batch, n, 2))
        src = rng.random((batch, n)) < 0.5
        qry = rng.random((batch, n)) < 0.5
        expect = self._assert_matches_oracles(table, pos, src, qry, radius, side)
        converts = (
            lambda mask: mask.astype(np.uint8) * 7,
            np.asfortranarray,
            lambda mask: np.repeat(mask, 2, axis=1)[:, ::2],
        )
        masks = []
        for convert in converts:
            s_mask, q_mask = convert(src), convert(qry)
            assert not (s_mask.dtype == bool and s_mask.flags.c_contiguous)
            masks.append((s_mask, q_mask))
        # A bool view of bytes other than 0 and 1 reaches the cores as is.
        masks.append(tuple((mask.astype(np.uint8) * 7).view(np.bool_) for mask in (src, qry)))
        for s_mask, q_mask in masks:
            got = (
                table["batch_any_within"](pos, s_mask, q_mask, radius, side),
                table["batch_contacts"](pos, s_mask, q_mask, radius, side, counts=True),
                table["batch_contacts"](pos, s_mask, q_mask, radius, side),
            )
            np.testing.assert_array_equal(got[0], expect[0])
            np.testing.assert_array_equal(got[1], expect[1])
            for got_col, expect_col in zip(got[2], expect[2]):
                np.testing.assert_array_equal(got_col, expect_col)


@needs_provider
class TestProviderContactsFollowSpec:
    """The C contacts core emits exactly what the reference core emits, in
    the same order: row-run scan, counting sort by source, exact-capacity
    re-run; the C count core writes the reference count core's tallies."""

    @staticmethod
    def _assert_same(*args):
        got = provider_kernels()["batch_contacts"](*args)
        spec = reference_kernels()["batch_contacts"](*args)
        assert len(got) == len(spec) == 3
        for got_col, spec_col in zip(got, spec):
            assert got_col.dtype == np.intp
            np.testing.assert_array_equal(got_col, spec_col)
        degrees = [np.full(args[1].shape, -7, dtype=np.intp) for _ in range(2)]
        fused = [
            table["batch_contacts"](*args, degrees=out)
            for table, out in zip((provider_kernels(), reference_kernels()), degrees)
        ]
        for pairs in fused:
            for col, spec_col in zip(pairs, spec):
                np.testing.assert_array_equal(col, spec_col)
        np.testing.assert_array_equal(*degrees)
        got_counts = provider_kernels()["batch_contacts"](*args, counts=True)
        spec_counts = reference_kernels()["batch_contacts"](*args, counts=True)
        assert got_counts.dtype == spec_counts.dtype == np.intp
        np.testing.assert_array_equal(got_counts, spec_counts)
        return got

    def test_randomized_snapshots_match_in_order(self, rng):
        for _ in range(12):
            batch = int(rng.integers(1, 5))
            n = int(rng.integers(1, 60))
            side = float(rng.uniform(1.0, 8.0))
            radius = float(rng.uniform(0.1, side))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < rng.uniform(0, 1)
            qry = rng.random((batch, n)) < rng.uniform(0, 1)
            self._assert_same(pos, src, qry, radius, side)

    def test_hub_source_and_sources_without_contacts(self, rng):
        # Replica 0: source 0 is a hub with 130 queries within R, sources
        # 1-3 share some of them, and sources 4-9 sit in a corner with no
        # query in range.  Replica 1 is uniform.
        n, radius = 150, 0.5
        pos = rng.uniform(0, 10.0, size=(2, n, 2))
        pos[0, 0] = (5.0, 5.0)
        pos[0, 1:4] = 5.0 + rng.uniform(-0.3, 0.3, size=(3, 2))
        pos[0, 4:10] = rng.uniform(0.0, 1.0, size=(6, 2))
        pos[0, 10:140] = 5.0 + rng.uniform(-0.3, 0.3, size=(130, 2))
        pos[0, 140:] = rng.uniform(9.0, 10.0, size=(10, 2))
        src = np.zeros((2, n), dtype=bool)
        src[:, :10] = True
        got = self._assert_same(pos, src, ~src, radius, 10.0)
        for got_col, expect_col in zip(got, _sorted_contacts(pos, src, ~src, radius)):
            np.testing.assert_array_equal(got_col, expect_col)
        rep, source, _query = got
        assert np.count_nonzero((rep == 0) & (source == 0)) == 130
        assert not np.isin(np.arange(4, 10), source[rep == 0]).any()

    def test_dense_cluster_reruns_with_exact_capacity(self, rng):
        # Every agent of each replica within radius of every other: the
        # pair count far exceeds the first capacity guess, so the kernel
        # re-runs with the exact total.
        batch, n = 2, 60
        pos = rng.uniform(4.0, 4.3, size=(batch, n, 2))
        everyone = np.ones((batch, n), dtype=bool)
        rep, source, query = self._assert_same(pos, everyone, everyone, 0.5, 10.0)
        first_guess = _contacts_capacity(batch * n, batch * n, batch, 0.5, 10.0)
        assert rep.size == batch * n * n > first_guess >= 4 * batch * n
        assert np.array_equal(np.bincount(rep * n + query), np.full(batch * n, n))
        assert np.array_equal(np.bincount(rep * n + source), np.full(batch * n, n))
        counts = provider_kernels()["batch_contacts"](
            pos, everyone, everyone, 0.5, 10.0, counts=True
        )
        assert np.array_equal(counts, np.full((batch, n), n))

    def test_first_overflow_in_a_later_replica(self, rng):
        # Replicas 0 and 1 are sparse and fit the first capacity guess;
        # replica 2 is a dense cluster that overflows it.  The glue re-runs
        # once with the exact total, and the pairs come out in canonical
        # order, as the spec writes them.
        batch, n, radius, side = 3, 60, 0.5, 10.0
        pos = rng.uniform(0, side, size=(batch, n, 2))
        pos[2] = rng.uniform(4.0, 4.3, size=(n, 2))
        everyone = np.ones((batch, n), dtype=bool)
        cores = _cext.load_cores()
        caps = []

        def contacts_core(*args):
            caps.append(args[-1])
            return cores.contacts_core(*args)

        table = make_kernels(SimpleNamespace(**{**vars(cores), "contacts_core": contacts_core}))
        rep, source, query = table["batch_contacts"](pos, everyone, everyone, radius, side)
        first_guess = _contacts_capacity(batch * n, batch * n, batch, radius, side)
        assert caps == [first_guess, rep.size]
        assert np.count_nonzero(rep < 2) <= first_guess < rep.size
        assert np.count_nonzero(rep == 2) == n * n
        spec = reference_kernels()["batch_contacts"](pos, everyone, everyone, radius, side)
        expect = _sorted_contacts(pos, everyone, everyone, radius)
        for got_col, spec_col, expect_col in zip((rep, source, query), spec, expect):
            np.testing.assert_array_equal(got_col, spec_col)
            np.testing.assert_array_equal(got_col, expect_col)


class TestContactsWithinDegrees:
    """``contacts_within(..., degrees=)`` writes, at every source of the
    cut, ``count_within(source | query, cut sources)``, on every neighbor
    path; the compiled tier writes them from the cut's own call."""

    @staticmethod
    def _check(snapshot, pos, src, qry, radius):
        degrees = np.full(src.shape, -7, dtype=np.intp)
        rep, source, query = snapshot.contacts_within(src, qry, radius, degrees=degrees)
        for got_col, expect_col in zip((rep, source, query), _sorted_contacts(pos, src, qry, radius)):
            np.testing.assert_array_equal(got_col, expect_col)
        cut = np.zeros(src.shape, dtype=bool)
        cut[rep, source] = True
        counts = snapshot.count_within(src | qry, cut, radius)
        np.testing.assert_array_equal(degrees, np.where(cut, counts, -7))
        return rep

    def test_random_snapshots(self, neighbor_path, rng):
        from repro.geometry.neighbors import BatchNeighborQuery

        batch, n, side, radius = 4, 50, 5.0, 0.9
        query = BatchNeighborQuery(side, batch)
        for trial in range(6):
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < 0.4
            qry = ~src if trial % 2 else rng.random((batch, n)) < 0.5
            rows = None
            if trial >= 4:
                # Replica 2 is retired: no agent in either mask.
                src[2] = qry[2] = False
                rows = np.array([0, 1, 3])
            self._check(query.bind(pos, rows=rows), pos, src, qry, radius)

    def test_a_cut_that_overflows_its_first_capacity(self, neighbor_path, rng):
        from repro.geometry.neighbors import BatchNeighborQuery

        batch, n, side, radius = 3, 60, 10.0, 0.5
        pos = rng.uniform(0, side, size=(batch, n, 2))
        pos[1] = rng.uniform(4.0, 4.3, size=(n, 2))
        src = rng.random((batch, n)) < 0.5
        rep = self._check(BatchNeighborQuery(side, batch).bind(pos), pos, src, ~src, radius)
        first_guess = _contacts_capacity(
            np.count_nonzero(src), np.count_nonzero(~src), batch, radius, side
        )
        assert np.count_nonzero(rep == 1) > first_guess

    def test_degrees_must_match_the_masks(self, neighbor_path, rng):
        from repro.geometry.neighbors import BatchNeighborQuery

        pos = rng.uniform(0, 3.0, size=(2, 5, 2))
        src = rng.random((2, 5)) < 0.5
        snapshot = BatchNeighborQuery(3.0, 2).bind(pos)
        with pytest.raises(ValueError, match="degrees"):
            snapshot.contacts_within(src, ~src, 1.0, degrees=np.zeros((5, 2), dtype=np.intp))


def _cut_round(table, rng, batch, n, side, radius, pulls):
    """A random round's cut, sender degrees and (with ``pulls``) the
    pullers' degrees, from ``table``'s ``batch_contacts``: every agent
    active, about half informed."""
    pos = rng.uniform(0, side, size=(batch, n, 2))
    informed = rng.random((batch, n)) < 0.5
    degrees = np.empty((batch, n), dtype=np.intp)
    cut = table["batch_contacts"](pos, informed, ~informed, radius, side, degrees=degrees)
    counts = None
    if pulls:
        pullers = np.zeros((batch, n), dtype=bool)
        pullers[cut[0], cut[2]] = True
        everyone = np.ones((batch, n), dtype=bool)
        counts = table["batch_contacts"](pos, everyone, pullers, radius, side, counts=True)
    return informed, cut, degrees, counts


def _numpy_exchange(informed, cut, degrees, pulls, rngs, fanout):
    """The numpy exchange of the protocol states over one cut."""
    from repro.protocols.gossip import BatchGossipState
    from repro.protocols.pushpull import BatchPushPullState

    batch, n = informed.shape
    newly = np.zeros((batch, n), dtype=bool)
    if pulls is None:
        state = BatchGossipState(n, 1.0, 1.0, np.zeros(batch, dtype=np.intp), rngs=rngs, fanout=fanout)
        state._numpy_picks(cut, degrees, newly)
    else:
        state = BatchPushPullState(n, 1.0, 1.0, np.zeros(batch, dtype=np.intp), rngs=rngs)
        state.informed = informed
        state._numpy_picks(cut, degrees, pulls, newly)
    return newly


#: (fanout, push-pull) cases of the sampler.
EXCHANGE_CASES = [(1, False), (2, False), (3, False), (1, True)]


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=TABLE_IDS)
class TestCutExchangeParity:
    @pytest.mark.parametrize("fanout, pulls", EXCHANGE_CASES)
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_matches_numpy_exchange(self, table, rng, fanout, pulls, shared):
        for _ in range(4):
            batch = int(rng.integers(1, 5))
            informed, cut, degrees, counts = _cut_round(table, rng, batch, 40, 5.0, 1.0, pulls)
            rngs, ref_rngs = _twin_generators(int(rng.integers(1 << 30)), batch, shared)
            newly = np.zeros((batch, 40), dtype=bool)
            done = table["cut_exchange"](
                *cut, degrees, newly, rngs, _glue.GeneratorCache(), fanout=fanout, pulls=counts
            )
            assert done is True
            want = _numpy_exchange(informed, cut, degrees, counts, ref_rngs, fanout)
            np.testing.assert_array_equal(newly, want)
            for got_rng, want_rng in zip(rngs, ref_rngs):
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_declines_untouched(self, table, rng):
        informed, cut, degrees, _ = _cut_round(table, rng, 2, 30, 4.0, 1.0, False)
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        states = [r.bit_generator.state for r in rngs]
        newly = np.zeros((2, 30), dtype=bool)
        cache = _glue.GeneratorCache()
        cases = {
            "foreign generator": ((*cut, degrees, newly, [rngs[0], object()], cache), {}),
            "one generator short": ((*cut, degrees, newly, rngs[:1], cache), {}),
            "int32 cut": ((cut[0].astype(np.int32), *cut[1:], degrees, newly, rngs, cache), {}),
            "int32 degrees": ((*cut, degrees.astype(np.int32), newly, rngs, cache), {}),
            "uint8 newly": ((*cut, degrees, newly.view(np.uint8), rngs, cache), {}),
            "wrong pulls": ((*cut, degrees, newly, rngs, cache), {"pulls": degrees[:1]}),
        }
        for label, (args, kwargs) in cases.items():
            assert table["cut_exchange"](*args, **kwargs) is None, label
        assert not newly.any()
        assert [r.bit_generator.state for r in rngs] == states


@needs_provider
class TestProviderCutExchangeFollowsSpec:
    @pytest.mark.parametrize("fanout, pulls", EXCHANGE_CASES + [(5, False)])
    def test_matches_reference_cores(self, rng, fanout, pulls):
        provider, reference = provider_kernels(), reference_kernels()
        for _ in range(4):
            batch = int(rng.integers(1, 6))
            _informed, cut, degrees, counts = _cut_round(provider, rng, batch, 60, 6.0, 1.2, pulls)
            rngs, ref_rngs = _twin_generators(int(rng.integers(1 << 30)), batch, True)
            got, want = (np.zeros((batch, 60), dtype=bool) for _ in range(2))
            for table, generators, out in ((provider, rngs, got), (reference, ref_rngs, want)):
                assert table["cut_exchange"](
                    *cut, degrees, out, generators, _glue.GeneratorCache(),
                    fanout=fanout, pulls=counts,
                ) is True
            np.testing.assert_array_equal(got, want)
            for got_rng, want_rng in zip(rngs, ref_rngs):
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _trip_case(rng, batch_size, n, side=3.0):
    """A random MRWP state: positions, targets, destinations, leg flags and
    counters of ``batch_size * n`` agents on axis-aligned legs."""
    total = batch_size * n
    pos = rng.uniform(0.0, side, size=(total, 2))
    dest = rng.uniform(0.0, side, size=(total, 2))
    second = rng.random(total) < 0.5
    corner = np.where(rng.random((total, 1)) < 0.5, [[1.0, 0.0]], [[0.0, 1.0]])
    corner = corner * pos + (1.0 - corner) * dest
    target = np.where(second[:, None], dest, corner)
    turns = rng.integers(0, 5, size=total)
    arrivals = rng.integers(0, 5, size=total)
    return [pos, target, dest, second, turns, arrivals]


def _numpy_trip_loop(state, distance, active, eps, side, rngs, max_passes):
    """The numpy MRWP carry-over loop over ``state``; returns the passes
    run, or -1 when ``max_passes`` passes all had arrivals."""
    pos, target, dest, second, turns, arrivals = state
    n = pos.shape[0] // len(rngs)
    budget = np.repeat(active, n) * distance
    for p in range(max_passes):
        idx = np.nonzero(budget > eps)[0]
        if idx.size == 0:
            return p
        done = advance_legs(pos, target, budget, idx, eps)
        if done.size == 0:
            return p + 1
        _corner, trip_done = split_completed_legs(done, second, target, dest, turns)
        if trip_done.size:
            redraw_manhattan_trips(pos, dest, target, second, trip_done, side, rngs, n)
            turns[trip_done] += 1
            arrivals[trip_done] += 1
    return -1


def _run_trip_mode(table, state, distance, active, eps, side, rngs, max_passes):
    pos, target, dest, second, turns, arrivals = state
    trips = ManhattanTrips(
        dest, second, turns, arrivals, side, rngs, max_passes, TripWork(pos.shape[0])
    )
    return table["advance_legs_dense"](
        pos, target, distance, active, int(active.sum()), eps, trips=trips
    )


def _twin_generators(seed, batch_size, shared):
    """Two identically seeded generator lists; with ``shared``, replicas
    0 and 2 draw from one generator."""
    out = []
    for _ in range(2):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(batch_size)]
        if shared and batch_size > 2:
            rngs[2] = rngs[0]
        out.append(rngs)
    return out


#: The time-budget trip modes, by model, and the options their cases cycle
#: through: a speed (``v_min``/``v_max`` for random-speed MRWP) and a pause.
TIME_MODELS = ["pause", "speed", "rwp"]
TIME_OPTIONS = {
    "pause": [
        {"speed": 0.9, "pause_time": 0.0},
        {"speed": 4.0, "pause_time": 0.3},
        {"speed": 1.7, "pause_time": 2.0},
    ],
    "speed": [
        {"v_min": 0.4, "v_max": 2.0},
        {"v_min": 1.3, "v_max": 1.3},
        {"v_min": 0.2, "v_max": 5.0},
    ],
    "rwp": [
        {"speed": 0.9, "pause_time": 0.0},
        {"speed": 4.0, "pause_time": 0.3},
        {"speed": 0.0, "pause_time": 0.3},
    ],
}


def _pauses(rng, total):
    """Pause timers: 0 for about 60% of the agents, else up to 1.5."""
    return np.where(rng.random(total) < 0.4, rng.uniform(0.0, 1.5, size=total), 0.0)


def _time_case(rng, model, batch_size, n, side=3.0):
    """A random state of ``model``: the :func:`_trip_case` legs plus pause
    timers (pause-MRWP) or trip speeds (random-speed MRWP); for RWP,
    positions, destinations, pause timers and arrival counters."""
    total = batch_size * n
    if model == "rwp":
        return [
            rng.uniform(0.0, side, size=(total, 2)), rng.uniform(0.0, side, size=(total, 2)),
            _pauses(rng, total), rng.integers(0, 5, size=total),
        ]
    legs = _trip_case(rng, batch_size, n, side)[:4]
    if model == "pause":
        return legs + [_pauses(rng, total)]
    return legs + [rng.uniform(0.4, 2.0, size=total)]


def _run_time_mode(table, model, state, dt, active, eps, rngs, max_passes, opts, side=3.0):
    """One step of ``model`` in the trip mode of ``table``'s
    ``advance_legs_dense``, on ``state`` (mutated)."""
    work = TripWork(state[0].shape[0])
    kernel = table["advance_legs_dense"]
    n_active = int(active.sum())
    if model == "pause":
        pos, target, dest, second, pause_left = state
        trips = PauseTrips(
            dest, second, pause_left, opts["pause_time"], side, rngs, max_passes, work
        )
        return kernel(pos, target, dt, active, n_active, eps, speed=opts["speed"], trips=trips)
    if model == "speed":
        pos, target, dest, second, speeds = state
        trips = SpeedRangeTrips(
            dest, second, opts["v_min"], opts["v_max"], side, rngs, max_passes, work
        )
        return kernel(pos, target, dt, active, n_active, eps, speed=speeds, trips=trips)
    pos, dest, pause_left, arrivals = state
    trips = EuclideanTrips(pause_left, arrivals, opts["pause_time"], side, rngs, max_passes, work)
    return kernel(pos, dest, dt, active, n_active, eps, speed=opts["speed"], trips=trips)


def _numpy_time_loop(model, state, dt, active, eps, rngs, opts, side=3.0):
    """One step of ``model``'s numpy loop on ``state`` (mutated), with the
    budget of the active replicas' agents; raises at the pass cap."""
    total = state[0].shape[0]
    n = total // len(rngs)
    budget = np.repeat(active, n) * dt
    with use_kernel_tier("numpy"):
        if model == "pause":
            pos, target, dest, second, pause_left = state
            _advance_pause_mrwp(
                pos, dest, target, second, pause_left, budget, side, opts["speed"],
                opts["pause_time"], eps, rngs, n, DenseLegScratch(total),
            )
        elif model == "speed":
            pos, target, dest, second, speeds = state
            _advance_random_speed(
                pos, dest, target, second, speeds, budget, side, opts["v_min"],
                opts["v_max"], eps, rngs, n, DenseLegScratch(total),
            )
        else:
            pos, dest, pause_left, arrivals = state
            _advance_rwp(
                pos, dest, pause_left, arrivals, budget, side, opts["speed"],
                opts["pause_time"], eps, rngs, n,
            )


def _assert_same_trip_state(got, want, rngs, ref_rngs):
    for actual, wanted in zip(got, want):
        assert actual.dtype == wanted.dtype
        assert actual.tobytes() == wanted.tobytes()
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


def _still_row_case(speed_kind):
    """Agent 0 has no budget and sits at x = -0.0; agents 1 and 2 move."""
    pos = np.array([[-0.0, 1.0], [0.5, 0.5], [2.0, 1.0]])
    target = np.array([[1.0, 1.0], [1.5, 0.5], [2.0, 3.0]])
    budget = np.array([0.0, 0.25, 0.5])
    speed = {"none": None, "scalar": 1.3, "array": np.array([0.7, 1.1, 0.9])}[speed_kind]
    return pos, target, budget, budget > 0.0, speed


def _assert_still_row_untouched(dense, sparse):
    """The dense pass must leave agent 0 as the sparse pass does, which
    never visits it: ``-0.0 + 0.0`` would be ``+0.0``."""
    (done_d, pos_d, budget_d), (done_s, pos_s, budget_s) = dense, sparse
    np.testing.assert_array_equal(done_d, done_s)
    assert pos_d.tobytes() == pos_s.tobytes()
    assert budget_d.tobytes() == budget_s.tobytes()
    assert np.signbit(pos_d[0, 0])


@pytest.mark.parametrize("speed_kind", ["none", "scalar", "array"])
def test_numpy_dense_pass_leaves_still_rows_untouched(speed_kind):
    pos, target, budget, moving, speed = _still_row_case(speed_kind)
    pos_d, budget_d, pos_s, budget_s = pos.copy(), budget.copy(), pos.copy(), budget.copy()
    with use_kernel_tier("numpy"):
        done_d = advance_legs_dense(
            pos_d, target, budget_d, moving, 2, 1e-9, DenseLegScratch(3), speed=speed
        )
        done_s = advance_legs(pos_s, target, budget_s, np.nonzero(moving)[0], 1e-9, speed=speed)
    _assert_still_row_untouched((done_d, pos_d, budget_d), (done_s, pos_s, budget_s))


@needs_provider
def test_dense_pass_calls_no_kernel_on_the_compiled_tier(monkeypatch):
    """Outside a trip step the dense pass has no compiled branch: on the
    compiled tier it reaches no kernel and writes the numpy tier's bytes."""
    table = provider_kernels()
    calls = []
    for name in TABLE_NAMES:
        monkeypatch.setitem(table, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    pos, target, budget, moving, _speed = _still_row_case("none")
    outputs = []
    for tier in ("numpy", "compiled"):
        pos_d, budget_d = pos.copy(), budget.copy()
        with use_kernel_tier(tier):
            done = advance_legs_dense(pos_d, target, budget_d, moving, 2, 1e-9, DenseLegScratch(3))
        outputs.append([done.tobytes(), pos_d.tobytes(), budget_d.tobytes()])
    assert calls == []
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=TABLE_IDS)
class TestLegKernelParity:
    def _numpy_advance(self, pos, target, budget, idx, eps, speed, metric):
        """The vectorized reference semantics, re-derived independently."""
        delta = target[idx] - pos[idx]
        if metric == "manhattan":
            dist = np.abs(delta).sum(axis=1)
        else:
            dist = np.sqrt((delta ** 2).sum(axis=1))
        b = budget[idx]
        if speed is None:
            move = np.minimum(b, dist)
            spent = move
        else:
            s = speed[idx] if isinstance(speed, np.ndarray) else float(speed)
            move = np.minimum(b * s, dist)
            spent = move / s
        frac = np.where(dist > eps, move / np.where(dist > eps, dist, 1.0), 1.0)
        pos[idx] += delta * frac[:, None]
        budget[idx] = b - spent
        arrived = move >= dist - eps
        done = idx[arrived]
        pos[done] = target[done]
        return done

    @pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
    @pytest.mark.parametrize("speed_kind", ["none", "scalar", "array"])
    def test_advance_legs_randomized(self, table, rng, metric, speed_kind):
        """The kernel runs distance budgets on Manhattan legs; it declines a
        speed or Euclidean legs untouched, and the numpy pass runs them."""
        for _ in range(10):
            total = int(rng.integers(1, 25))
            pos = rng.uniform(0, 4.0, size=(total, 2))
            target = rng.uniform(0, 4.0, size=(total, 2))
            budget = rng.uniform(0.0, 2.0, size=total)
            idx = np.nonzero(rng.random(total) < 0.7)[0].astype(np.intp)
            speed = {
                "none": None,
                "scalar": 1.3,
                "array": rng.uniform(0.5, 2.0, size=total),
            }[speed_kind]
            eps = 1e-9
            pos_k, budget_k = pos.copy(), budget.copy()
            done_k = table["advance_legs"](pos_k, target, budget_k, idx, eps, speed, metric)
            if speed is None and metric == "manhattan":
                assert done_k is not None
            else:
                assert done_k is None
                assert pos_k.tobytes() == pos.tobytes()
                assert budget_k.tobytes() == budget.tobytes()
                with use_kernel_tier("numpy"):
                    done_k = advance_legs(pos_k, target, budget_k, idx, eps, speed, metric)
            pos_r, budget_r = pos.copy(), budget.copy()
            done_r = self._numpy_advance(pos_r, target, budget_r, idx, eps, speed, metric)
            np.testing.assert_array_equal(np.sort(done_k), np.sort(done_r))
            np.testing.assert_array_equal(pos_k, pos_r)
            np.testing.assert_array_equal(budget_k, budget_r)

    def test_advance_legs_dense_matches_sparse(self, table, rng):
        """The numpy dense pass, which runs on both tiers, and the kernel's
        sparse pass are bit-interchangeable: the timetable riders switch
        between them by density within one step."""
        for case in range(10):
            total = int(rng.integers(1, 25))
            pos = rng.uniform(0, 4.0, size=(total, 2))
            target = rng.uniform(0, 4.0, size=(total, 2))
            budget = rng.uniform(0.0, 2.0, size=total)
            moving = rng.random(total) < (0.8 if case % 2 else 1.0)
            idx = np.nonzero(moving)[0].astype(np.intp)
            pos_d, budget_d = pos.copy(), budget.copy()
            with use_kernel_tier("numpy"):
                done_d = advance_legs_dense(
                    pos_d, target, budget_d, moving, int(moving.sum()), 1e-9,
                    DenseLegScratch(total),
                )
            pos_s, budget_s = pos.copy(), budget.copy()
            done_s = table["advance_legs"](pos_s, target, budget_s, idx, 1e-9, None)
            np.testing.assert_array_equal(done_d, done_s)
            assert pos_d.tobytes() == pos_s.tobytes()
            assert budget_d.tobytes() == budget_s.tobytes()

    def test_empty_index_set(self, table):
        pos = np.zeros((3, 2))
        target = np.ones((3, 2))
        budget = np.ones(3)
        done = table["advance_legs"](
            pos, target, budget, np.empty(0, dtype=np.intp), 1e-9, None
        )
        assert done is not None and done.size == 0
        np.testing.assert_array_equal(pos, np.zeros((3, 2)))

    # Trip mode: a whole MRWP step must leave the numpy loop's state,
    # counters, pass count and generator states.
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_trip_mode_matches_numpy_loop(self, table, rng, shared):
        for case in range(12):
            batch_size = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            state = _trip_case(rng, batch_size, n)
            active = rng.random(batch_size) < 0.75
            distance = [0.0, 1e-12, 0.4, 9.0][case % 4]
            rngs, ref_rngs = _twin_generators(case, batch_size, shared)
            got = [a.copy() for a in state]
            want = [a.copy() for a in state]
            passes = _run_trip_mode(table, got, distance, active, 1e-9, 3.0, rngs, 1000)
            expected = _numpy_trip_loop(want, distance, active, 1e-9, 3.0, ref_rngs, 1000)
            assert passes == expected
            for actual, wanted in zip(got, want):
                assert actual.tobytes() == wanted.tobytes()
            assert [r.bit_generator.state for r in rngs] == [
                r.bit_generator.state for r in ref_rngs
            ]

    def test_trip_mode_reports_the_pass_cap(self, table, rng):
        state = _trip_case(rng, 2, 6)
        active = np.ones(2, dtype=bool)
        rngs, ref_rngs = _twin_generators(3, 2, False)
        got = [a.copy() for a in state]
        want = [a.copy() for a in state]
        assert _run_trip_mode(table, got, 9.0, active, 1e-9, 3.0, rngs, 2) == -1
        assert _numpy_trip_loop(want, 9.0, active, 1e-9, 3.0, ref_rngs, 2) == -1
        for actual, wanted in zip(got, want):
            assert actual.tobytes() == wanted.tobytes()

    def test_trip_mode_out_of_domain_returns_none_untouched(self, table, rng):
        def variants():
            yield "float32 positions", 0, lambda a: a.astype(np.float32)
            yield "strided destinations", 2, lambda a: np.hstack([a, a])[:, :2]
            yield "int8 leg flags", 3, lambda a: a.astype(np.int8)
            yield "int32 turn counts", 4, lambda a: a.astype(np.int32)
            yield "wrong-shape targets", 1, lambda a: a[:-1]

        for label, slot, change in variants():
            state = _trip_case(rng, 2, 5)
            state[slot] = change(state[slot])
            before = [a.copy() for a in state]
            rngs = [np.random.default_rng(1), np.random.default_rng(2)]
            states = [r.bit_generator.state for r in rngs]
            active = np.ones(2, dtype=bool)
            out = _run_trip_mode(table, state, 9.0, active, 1e-9, 3.0, rngs, 100)
            assert out is None, label
            for actual, wanted in zip(state, before):
                assert actual.tobytes() == wanted.tobytes(), label
            assert [r.bit_generator.state for r in rngs] == states, label

    def test_trip_mode_declines_foreign_generators_and_bad_arguments(self, table, rng):
        class Forwarding:
            def __init__(self, inner):
                self.inner = inner

            def random(self, *args, **kwargs):
                return self.inner.random(*args, **kwargs)

        state = _trip_case(rng, 2, 5)
        real = [np.random.default_rng(1), np.random.default_rng(2)]
        active = np.ones(2, dtype=bool)
        foreign = [real[0], Forwarding(real[1])]
        assert _run_trip_mode(table, state, 9.0, active, 1e-9, 3.0, foreign, 100) is None
        assert _run_trip_mode(table, state, 9.0, active, 0.0, 3.0, real, 100) is None
        assert _run_trip_mode(table, state, 9.0, active[:1], 1e-9, 3.0, real, 100) is None
        trips = ManhattanTrips(*state[2:], 3.0, real, 100, TripWork(10))
        assert table["advance_legs_dense"](
            state[0], state[1], 9.0, active, 2, 1e-9, speed=1.5, trips=trips
        ) is None


    # The time-budget modes: a whole pause-MRWP, random-speed MRWP or RWP
    # step must leave the model's numpy loop's state and generator states.
    @pytest.mark.parametrize("model", TIME_MODELS)
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_time_trip_modes_match_numpy_loop(self, table, rng, model, shared):
        options = TIME_OPTIONS[model]
        for case in range(12):
            batch_size = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            state = _time_case(rng, model, batch_size, n)
            active = rng.random(batch_size) < 0.75
            dt = [1e-12, 0.25, 1.0, 3.0][case % 4]
            opts = options[case % len(options)]
            rngs, ref_rngs = _twin_generators(case, batch_size, shared)
            got = [a.copy() for a in state]
            want = [a.copy() for a in state]
            passes = _run_time_mode(table, model, got, dt, active, 1e-9, rngs, 1000, opts)
            _numpy_time_loop(model, want, dt, active, 1e-9, ref_rngs, opts)
            assert passes is not None and passes >= 0
            _assert_same_trip_state(got, want, rngs, ref_rngs)

    @pytest.mark.parametrize("model", TIME_MODELS)
    def test_time_trip_modes_report_the_pass_cap(self, table, rng, monkeypatch, model):
        state = _time_case(rng, model, 2, 6)
        active = np.ones(2, dtype=bool)
        opts = {"speed": 40.0, "pause_time": 0.01, "v_min": 20.0, "v_max": 40.0}
        rngs, ref_rngs = _twin_generators(3, 2, False)
        got = [a.copy() for a in state]
        want = [a.copy() for a in state]
        assert _run_time_mode(table, model, got, 9.0, active, 1e-9, rngs, 2, opts) == -1
        monkeypatch.setattr(kinematics, "_MAX_LEGS_PER_STEP", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            _numpy_time_loop(model, want, 9.0, active, 1e-9, ref_rngs, opts)
        _assert_same_trip_state(got, want, rngs, ref_rngs)

    @pytest.mark.parametrize("model", TIME_MODELS)
    def test_time_trip_modes_decline_untouched(self, table, rng, model):
        """Mistyped or non-contiguous state, a speed of the wrong kind, a
        foreign generator, ``eps <= 0`` or a non-finite speed range: the
        kernel returns ``None`` and leaves every array and generator as
        it found them."""
        dest_slot = 1 if model == "rwp" else 2
        opts = TIME_OPTIONS[model][1]

        def variants():
            yield "float32 positions", 0, lambda a: a.astype(np.float32), opts, 1e-9
            yield "strided destinations", dest_slot, lambda a: np.hstack([a, a])[:, :2], opts, 1e-9
            yield "float32 timers or speeds", 2 if model == "rwp" else 4, \
                lambda a: a.astype(np.float32), opts, 1e-9
            yield "short last array", -1, lambda a: a[:-1], opts, 1e-9
            yield "zero eps", 0, lambda a: a, opts, 0.0
            if model == "speed":
                yield "infinite speed range", 0, lambda a: a, {"v_min": 0.5, "v_max": np.inf}, 1e-9
            else:
                yield "no speed", 0, lambda a: a, dict(opts, speed=None), 1e-9
                yield "per-agent speeds", 0, lambda a: a, dict(opts, speed=np.ones(10)), 1e-9

        class Forwarding:
            def __init__(self, inner):
                self.inner = inner

            def random(self, *args, **kwargs):
                return self.inner.random(*args, **kwargs)

        cases = list(variants()) + [("foreign generator", 0, lambda a: a, opts, 1e-9)]
        for label, slot, change, options, eps in cases:
            state = _time_case(rng, model, 2, 5)
            state[slot] = change(state[slot])
            before = [a.copy() for a in state]
            rngs = [np.random.default_rng(1), np.random.default_rng(2)]
            states = [r.bit_generator.state for r in rngs]
            if label == "foreign generator":
                rngs = [rngs[0], Forwarding(rngs[1])]
            active = np.ones(2, dtype=bool)
            out = _run_time_mode(table, model, state, 2.0, active, eps, rngs, 100, options)
            assert out is None, label
            for actual, wanted in zip(state, before):
                assert actual.tobytes() == wanted.tobytes(), label
            real = [getattr(r, "inner", r) for r in rngs]
            assert [r.bit_generator.state for r in real] == states, label


@needs_provider
class TestProviderTripsFollowSpec:
    """The C trip mode against the spec core, state for state."""

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_matches_reference_cores(self, rng, shared):
        provider, reference = provider_kernels(), reference_kernels()
        for case in range(6):
            state = _trip_case(rng, 3, 7)
            active = np.array([True, case % 2 == 0, True])
            rngs, ref_rngs = _twin_generators(10 + case, 3, shared)
            got = [a.copy() for a in state]
            want = [a.copy() for a in state]
            args = (active, 1e-9, 3.0)
            passes = _run_trip_mode(provider, got, 2.0 + case, *args, rngs, 1000)
            expected = _run_trip_mode(reference, want, 2.0 + case, *args, ref_rngs, 1000)
            assert passes == expected > 1
            for actual, wanted in zip(got, want):
                assert actual.tobytes() == wanted.tobytes()
            assert [r.bit_generator.state for r in rngs] == [
                r.bit_generator.state for r in ref_rngs
            ]

    @pytest.mark.parametrize("model", TIME_MODELS)
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_time_modes_match_reference_cores(self, rng, model, shared):
        provider, reference = provider_kernels(), reference_kernels()
        options = TIME_OPTIONS[model]
        for case in range(6):
            state = _time_case(rng, model, 3, 7)
            active = np.array([True, case % 2 == 0, True])
            rngs, ref_rngs = _twin_generators(10 + case, 3, shared)
            got = [a.copy() for a in state]
            want = [a.copy() for a in state]
            opts = options[case % len(options)]
            dt = 0.5 + case
            passes = _run_time_mode(provider, model, got, dt, active, 1e-9, rngs, 1000, opts)
            expected = _run_time_mode(reference, model, want, dt, active, 1e-9, ref_rngs, 1000, opts)
            assert passes == expected >= 1
            _assert_same_trip_state(got, want, rngs, ref_rngs)


def _palm_arrays(total):
    return [np.empty((total, 2)), np.empty((total, 2)), np.empty((total, 2)),
            np.empty(total, dtype=bool)]


def _palm_oracle(n, side, rngs):
    """The numpy sampler, replica by replica, as flat fields."""
    sampler = PalmStationarySampler(side)
    states = [sampler.sample(n, rng) for rng in rngs]
    return [
        np.concatenate([getattr(s, name) for s in states])
        for name in ("positions", "destinations", "targets", "on_second_leg")
    ]


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=TABLE_IDS)
class TestPalmKernelParity:
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_matches_numpy_sampler(self, table, shared):
        for case, (batch, n, side) in enumerate([(1, 1, 3.0), (3, 7, 3.0), (4, 40, 1e5)]):
            rngs, ref_rngs = _twin_generators(20 + case, batch, shared)
            got = _palm_arrays(batch * n)
            assert table["palm_states"](*got, side, rngs) is True
            for actual, wanted in zip(got, _palm_oracle(n, side, ref_rngs)):
                assert actual.tobytes() == wanted.tobytes()
            assert [r.bit_generator.state for r in rngs] == [
                r.bit_generator.state for r in ref_rngs
            ]

    def test_declines_untouched(self, table):
        """No agents, mistyped, non-contiguous or short arrays, agents
        that do not split into the replicas, a side that is not positive
        and finite, or a generator that is not a plain ``Generator``:
        ``None``, and nothing drawn or written."""

        class Forwarding:
            def __init__(self, inner):
                self.inner = inner

            def random(self, *args, **kwargs):
                return self.inner.random(*args, **kwargs)

        class Subclass(np.random.Generator):
            pass

        pos, dest, target, second = _palm_arrays(12)
        cases = [
            ("no agents", [a[:0] for a in (pos, dest, target, second)], 2.0, 2, None),
            ("float32 positions", [pos.astype(np.float32), dest, target, second], 2.0, 2, None),
            ("strided targets", [pos, dest, np.hstack([target, target])[:, :2], second], 2.0, 2,
             None),
            ("int8 leg flags", [pos, dest, target, second.astype(np.int8)], 2.0, 2, None),
            ("short destinations", [pos, dest[:-1], target, second], 2.0, 2, None),
            ("ragged replicas", [pos, dest, target, second], 2.0, 5, None),
            ("forwarding generator", [pos, dest, target, second], 2.0, 2, Forwarding),
            ("generator subclass", [pos, dest, target, second], 2.0, 2, Subclass),
        ] + [
            (f"side {side}", [pos, dest, target, second], side, 2, None)
            for side in (0.0, -1.0, np.inf, np.nan)
        ]
        for label, arrays, side, batch, wrap in cases:
            before = [a.copy() for a in arrays]
            real = [np.random.default_rng(b) for b in range(batch)]
            states = [r.bit_generator.state for r in real]
            rngs = list(real)
            if wrap is Forwarding:
                rngs[1] = Forwarding(real[1])
            elif wrap is Subclass:
                rngs[1] = Subclass(real[1].bit_generator)
            assert table["palm_states"](*arrays, side, rngs) is None, label
            for actual, wanted in zip(arrays, before):
                assert actual.tobytes() == wanted.tobytes(), label
            assert [r.bit_generator.state for r in real] == states, label


@needs_provider
class TestProviderPalmFollowsSpec:
    """The C Palm sampler against the spec core, state for state."""

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_matches_reference_cores(self, shared):
        provider, reference = provider_kernels(), reference_kernels()
        cases = [(1, 1, 3.0), (3, 9, 3.0), (5, 60, 2.5e-310), (2, 30, 1.7e308), (3, 200, 50.0)]
        for case, (batch, n, side) in enumerate(cases):
            rngs, ref_rngs = _twin_generators(30 + case, batch, shared)
            got, want = _palm_arrays(batch * n), _palm_arrays(batch * n)
            assert provider["palm_states"](*got, side, rngs) is True
            assert reference["palm_states"](*want, side, ref_rngs) is True
            for actual, wanted in zip(got, want):
                assert actual.tobytes() == wanted.tobytes()
            assert [r.bit_generator.state for r in rngs] == [
                r.bit_generator.state for r in ref_rngs
            ]

    def test_declines_a_bit_generator_without_a_c_interface(self):
        class Opaque(np.random.PCG64):
            @property
            def ctypes(self):
                raise AttributeError("no C interface")

        rng = np.random.Generator(Opaque(5))
        state = rng.bit_generator.state
        arrays = _palm_arrays(4)
        assert provider_kernels()["palm_states"](*arrays, 2.0, [rng]) is None
        assert rng.bit_generator.state == state


#: More threads than this host has CPUs (at most 64, however large the host).
MANY_THREADS = min(os.cpu_count() or 1, 61) + 3


def _with_threads(threads, call):
    """``call()`` with every provider call of more than one unit split over
    ``threads`` threads (at most one per unit); returns its result and the
    thread count each call got."""
    counts = []
    derive = _glue._threads

    def spy(units, agents):
        counts.append(derive(units, agents))
        return counts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_glue, "_AGENTS_PER_THREAD", 1)
        patch.setattr(_glue, "_host_threads", lambda: threads)
        patch.setattr(_glue, "_threads", spy)
        return call(), counts


def _edge_masks(rng, batch, n):
    """Source and query masks whose replicas are retired (no agent on
    either side), have no source, are all informed (no query), have one
    source, or are random."""
    src = rng.random((batch, n)) < 0.3
    qry = ~src
    for b, kind in enumerate(rng.integers(0, 5, size=batch)):
        if kind == 0:
            src[b] = qry[b] = False
        elif kind == 1:
            src[b] = False
        elif kind == 2:
            src[b], qry[b] = True, False
        elif kind == 3:
            src[b] = False
            src[b, rng.integers(n)] = True
            qry[b] = ~src[b]
    return src, qry


#: Every trip mode, by model: MRWP and the time-budget modes.
TRIP_MODELS = ["mrwp"] + TIME_MODELS


def _model_case(rng, model, batch_size, n):
    if model == "mrwp":
        return _trip_case(rng, batch_size, n)
    return _time_case(rng, model, batch_size, n)


def _model_step(table, model, state, budget, active, rngs, max_passes, opts):
    """One step of ``model``'s trip mode on ``state`` (mutated)."""
    if model == "mrwp":
        return _run_trip_mode(table, state, budget, active, 1e-9, 3.0, rngs, max_passes)
    return _run_time_mode(table, model, state, budget, active, 1e-9, rngs, max_passes, opts)


def _generators(seed, batch_size, shared):
    return _twin_generators(seed, batch_size, shared)[0]


@needs_provider
class TestThreadsChangeNothing:
    """The provider's threaded cores give the same bytes on one thread and
    on more threads than the host has CPUs.

    Each case runs many times, so the suite doubles as a stress test of
    the fork-join: a unit taken twice, or one left out, a shared buffer
    or a draw out of order shows up as a mismatch.  Some cases have
    replicas of a few thousand agents, so that units on different threads
    run at the same time (a replica of a few agents is done before the
    next thread starts)."""

    def test_infection_test(self, rng, brute_hits):
        table = provider_kernels()
        for case in range(60):
            batch = int(rng.integers(2, MANY_THREADS + 3))
            n = 3000 if case % 2 else int(rng.choice([1, 2, 17, 60]))
            side = 5.0 if n < 100 else 40.0
            pos = rng.uniform(-0.5, side + 0.5, size=(batch, n, 2))
            src, qry = _edge_masks(rng, batch, n)
            radius = float(rng.choice([0.3, 1.0, 3.0]))

            def call():
                return table["batch_any_within"](pos, src, qry, radius, side)

            one, _ = _with_threads(1, call)
            for _ in range(1 if n < 100 else 25):
                many, counts = _with_threads(MANY_THREADS, call)
                assert counts == [min(MANY_THREADS, batch)]
                assert many.tobytes() == one.tobytes()
            if n < 100:
                np.testing.assert_array_equal(many, brute_hits(pos, src, qry, radius))

    def test_the_infection_test_splits_by_live_replicas(self, rng, monkeypatch):
        """A bound snapshot's ``rows`` are its live replicas: a flood's tail
        call whose live agents are too few for two threads runs on one."""
        from repro.geometry.neighbors import BatchNeighborQuery

        derive = _glue._threads
        calls = []

        def spy(units, agents):
            calls.append((units, agents, derive(units, agents)))
            return calls[-1][2]

        monkeypatch.setattr(_glue, "_host_threads", lambda: 2)
        monkeypatch.setattr(_glue, "_threads", spy)
        batch, n, side = 8, 3000, 40.0
        pos = rng.uniform(0, side, size=(batch, n, 2))
        src = rng.random((batch, n)) < 0.3
        qry = ~src
        live = np.array([2, 5])
        retired = np.setdiff1d(np.arange(batch), live)
        src[retired] = qry[retired] = False
        query = BatchNeighborQuery(side, batch)
        with use_kernel_tier("compiled"):
            tail = query.bind(pos, rows=live).any_within(src, qry, 1.0)
            every = query.bind(pos).any_within(src, qry, 1.0)
        assert calls == [(2, 2 * n, 1), (batch, batch * n, 2)]
        np.testing.assert_array_equal(tail, every)

    @pytest.mark.parametrize("model", TRIP_MODELS)
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_trip_modes(self, rng, model, shared):
        """Retired replicas, one-agent replicas and (with ``shared``)
        replicas 0 and 2 on one generator, against the numpy loop too."""
        table = provider_kernels()
        options = TIME_OPTIONS.get(model, [{}])
        split = 0
        for case in range(30):
            batch = int(rng.integers(3, MANY_THREADS + 3))
            n = 2000 if case % 4 == 3 else int(rng.choice([1, 3, 9]))
            state = _model_case(rng, model, batch, n)
            active = rng.random(batch) < 0.75
            budget = [1e-12, 0.4, 2.0, 9.0][case % 4]
            opts = options[case % len(options)]
            runs = []
            for threads in (1, MANY_THREADS):
                rngs = _generators(case, batch, shared)
                got = [a.copy() for a in state]
                passes, counts = _with_threads(threads, lambda: _model_step(
                    table, model, got, budget, active, rngs, 1000, opts
                ))
                runs.append((passes, got, [r.bit_generator.state for r in rngs]))
            split += max(counts, default=1) > 1
            (passes, got, states), (one_passes, one_got, one_states) = runs[1], runs[0]
            assert passes == one_passes and passes >= 0
            assert states == one_states
            for actual, wanted in zip(got, one_got):
                assert actual.tobytes() == wanted.tobytes()
            ref_rngs = _generators(case, batch, shared)
            want = [a.copy() for a in state]
            if model == "mrwp":
                assert _numpy_trip_loop(want, budget, active, 1e-9, 3.0, ref_rngs, 1000) == passes
            else:
                _numpy_time_loop(model, want, budget, active, 1e-9, ref_rngs, opts)
            _assert_same_trip_state(got, want, rngs, ref_rngs)
        assert split >= 15

    @pytest.mark.parametrize("model", TRIP_MODELS)
    def test_a_unit_at_the_pass_cap(self, rng, monkeypatch, model):
        """Some one-agent replicas need more passes than the cap and the
        others finish: -1 on any thread count, and every replica as the
        numpy loop leaves it."""
        table = provider_kernels()
        opts = {"speed": 4.0, "pause_time": 0.05, "v_min": 2.0, "v_max": 4.0}
        batch, budget = 8, 9.0 if model == "mrwp" else 3.0
        for case in range(10):
            state = _model_case(rng, model, batch, 1)
            alone = []
            for b in range(batch):
                row = [a[b:b + 1].copy() for a in state]
                rngs = [_generators(case, batch, False)[b]]
                alone.append(_model_step(table, model, row, budget, np.ones(1, bool), rngs, 1000, opts))
            cap = sorted(alone)[batch // 2]
            assert min(alone) <= cap < max(alone)
            active = np.ones(batch, dtype=bool)
            runs = []
            for threads in (1, MANY_THREADS):
                rngs = _generators(case, batch, False)
                got = [a.copy() for a in state]
                passes, counts = _with_threads(threads, lambda: _model_step(
                    table, model, got, budget, active, rngs, cap, opts
                ))
                assert passes == -1
                runs.append((got, rngs))
            assert max(counts) == min(MANY_THREADS, batch)
            (one_got, _), (got, rngs) = runs
            for actual, wanted in zip(got, one_got):
                assert actual.tobytes() == wanted.tobytes()
            ref_rngs = _generators(case, batch, False)
            want = [a.copy() for a in state]
            if model == "mrwp":
                assert _numpy_trip_loop(want, budget, active, 1e-9, 3.0, ref_rngs, cap) == -1
            else:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(kinematics, "_MAX_LEGS_PER_STEP", cap)
                    with pytest.raises(RuntimeError, match="did not converge"):
                        _numpy_time_loop(model, want, budget, active, 1e-9, ref_rngs, opts)
            _assert_same_trip_state(got, want, rngs, ref_rngs)

    @pytest.mark.parametrize("model,budget,slowest", [
        ("pause", 1e8, None), ("speed", 1.0, 1e-310), ("rwp", 1e8, None),
    ])
    def test_time_modes_run_as_one_unit_where_a_rest_could_move(
        self, rng, model, budget, slowest
    ):
        """A budget so large, or a speed so small, that a walker's rest
        ``b - (b * s) / s`` could pass its threshold keeps the call whole;
        the same call with a step of 1 and normal speeds splits."""
        table = provider_kernels()
        opts = {"speed": 1.0, "pause_time": 0.0, "v_min": 0.5, "v_max": 2.0}
        for step, speed, whole in ((budget, slowest, True), (1.0, None, False)):
            state = _time_case(rng, model, 4, 3)
            if model == "speed" and speed is not None:
                state[4][5] = speed
            rngs = _generators(0, 4, False)
            _, counts = _with_threads(MANY_THREADS, lambda: _run_time_mode(
                table, model, state, step, np.ones(4, dtype=bool), 1e-9, rngs, 10, opts
            ))
            assert counts == [1 if whole else 4]

    def test_no_thread_outlives_a_call(self, rng):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("needs /proc/self/task")
        table = provider_kernels()
        pos = rng.uniform(0.0, 5.0, size=(8, 50, 2))
        src, qry = _edge_masks(rng, 8, 50)
        before = len(os.listdir("/proc/self/task"))
        _, counts = _with_threads(MANY_THREADS, lambda: table["batch_any_within"](
            pos, src, qry, 1.0, 5.0
        ))
        assert counts == [min(MANY_THREADS, 8)]
        assert len(os.listdir("/proc/self/task")) <= before

    def test_fork_after_a_threaded_call(self, rng):
        """A forked child of a process that ran threaded calls runs them
        again, threaded, to the same bytes."""
        table = provider_kernels()
        pos = rng.uniform(0.0, 5.0, size=(8, 40, 2))
        src, qry = _edge_masks(rng, 8, 40)
        state = _trip_case(rng, 8, 5)
        active = np.ones(8, dtype=bool)

        def calls():
            hits = table["batch_any_within"](pos, src, qry, 1.0, 5.0)
            got = [a.copy() for a in state]
            rngs = _generators(4, 8, False)
            passes = _run_trip_mode(table, got, 2.0, active, 1e-9, 3.0, rngs, 1000)
            return hits, passes, got, [r.bit_generator.state for r in rngs]

        want, counts = _with_threads(MANY_THREADS, calls)
        assert counts == [min(MANY_THREADS, 8)] * 2
        context = multiprocessing.get_context("fork")
        queue = context.Queue()

        def child():
            queue.put(_with_threads(MANY_THREADS, calls))

        process = context.Process(target=child)
        process.start()
        (hits, passes, got, states), child_counts = queue.get(timeout=60)
        process.join(60)
        assert process.exitcode == 0
        assert child_counts == counts
        assert hits.tobytes() == want[0].tobytes() and passes == want[1]
        assert states == want[3]
        for actual, wanted in zip(got, want[2]):
            assert actual.tobytes() == wanted.tobytes()

    def test_a_pool_worker_runs_one_thread(self):
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            assert pool.submit(_glue._host_threads).result(timeout=60) == 1

    def test_sweep_fan_out_matches_serial_above_the_floor(self, monkeypatch):
        """Six replicas of 3,000 agents split their calls in a serial run;
        two workers run three replicas each, on one thread."""
        config = standard_config(3000, seed=3, engine="batch", kernels="compiled")
        counts = []
        derive = _glue._threads

        def spy(units, agents):
            counts.append(derive(units, agents))
            return counts[-1]

        monkeypatch.setattr(_glue, "_threads", spy)
        serial = run_sweep([(config, 6)], jobs=1)
        assert max(counts) == min(_glue._host_threads(), 6)
        fanned = run_sweep([(config, 6)], jobs=2)

        def prints(points):
            return [
                (r.flooding_time, r.n_steps, r.source, r.cz_completion_time,
                 r.suburb_completion_time, tuple(np.asarray(r.informed_history).tolist()))
                for point in points for r in point.results
            ]

        assert prints(fanned) == prints(serial)


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=TABLE_IDS)
class TestStructureKernelParity:
    def test_grid_splice_matches_numpy_splice(self, table, rng):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            order = rng.permutation(n).astype(np.intp)
            # Bucket ids may repeat (several points per bucket) and the new
            # ids may collide with surviving ones — exactly the hard case.
            sorted_ids = np.sort(rng.integers(0, 3 * n, size=n)).astype(np.intp)
            removed = rng.random(n) < 0.3
            n_new = int(rng.integers(0, 8))
            new_ids = np.sort(rng.integers(0, 3 * n, size=n_new)).astype(np.intp)
            new_pts = rng.integers(0, n, size=n_new).astype(np.intp)
            got = table["grid_splice"](order, sorted_ids, removed, new_ids, new_pts)
            assert got is not None
            out_order, out_ids = got
            keep = ~removed
            kept_order = order[keep]
            kept_ids = sorted_ids[keep]
            insert_at = np.searchsorted(kept_ids, new_ids, side="left")
            np.testing.assert_array_equal(
                out_order, np.insert(kept_order, insert_at, new_pts)
            )
            np.testing.assert_array_equal(
                out_ids, np.insert(kept_ids, insert_at, new_ids)
            )

    def test_occupancy_delta(self, table, rng):
        counts = rng.integers(0, 5, size=20).astype(np.int64)
        old = rng.integers(0, 20, size=12)
        new = rng.integers(0, 20, size=12)
        expect = counts.copy()
        np.subtract.at(expect, old, 1)
        np.add.at(expect, new, 1)
        assert table["occupancy_delta"](counts, old, new) is True
        np.testing.assert_array_equal(counts, expect)

    def test_union_fixpoint_min_labels(self, table, rng):
        for _ in range(15):
            n = int(rng.integers(1, 50))
            parent = np.arange(n, dtype=np.intp)
            e = int(rng.integers(0, 3 * n + 1))
            u = rng.integers(0, n, size=e)
            v = rng.integers(0, n, size=e)
            assert table["union_fixpoint"](parent, u, v) is True
            # Oracle: connected components, labelled by their minimum member.
            label = np.arange(n)
            changed = True
            while changed:
                changed = False
                for a, b in zip(u, v):
                    lo = min(label[a], label[b])
                    if label[a] != lo or label[b] != lo:
                        label[label == label[a]] = lo
                        label[label == label[b]] = lo
                        changed = True
            np.testing.assert_array_equal(parent, label)
            # Canonical form: every entry points straight at its root.
            np.testing.assert_array_equal(parent[parent], parent)

    def test_zone_counts_matches_cell_classification(self, table, rng):
        for side, m, pos, informed, cz_mask, open_zones in _zone_cases(rng):
            got = table["zone_counts"](pos, informed, side / m, m, cz_mask, open_zones)
            assert got.dtype == np.uint8 and got.shape == open_zones.shape
            np.testing.assert_array_equal(
                got, _zones_left(pos, informed, side / m, m, cz_mask, open_zones)
            )
            assert got[0] == 0 and got[1] != 0 and got[2] == 0

    def test_zone_counts_declines_other_inputs(self, table):
        pos = np.zeros((2, 3, 2))
        informed = np.zeros((2, 3), dtype=bool)
        cz_mask = np.ones((2, 2), dtype=bool)
        open_zones = np.full(2, CENTRAL_ZONE | SUBURB, dtype=np.uint8)
        kernel = table["zone_counts"]
        assert kernel(pos, informed, 1.0, 2, cz_mask, open_zones).tolist() == [CENTRAL_ZONE] * 2
        for bad_open in (open_zones.astype(np.int64), open_zones[:1], open_zones.astype(bool)):
            assert kernel(pos, informed, 1.0, 2, cz_mask, bad_open) is None
        assert kernel(pos, informed.astype(np.uint8), 1.0, 2, cz_mask, open_zones) is None
        assert kernel(pos.astype(np.float32), informed, 1.0, 2, cz_mask, open_zones) is None
        assert kernel(pos[:, ::-1], informed, 1.0, 2, cz_mask, open_zones) is None
        assert kernel(pos, informed, 1.0, 3, cz_mask, open_zones) is None


def test_zones_left_numpy_fallback_matches_the_oracle(rng):
    """Off the compiled tier, ``zones_left`` answers ``zone_counts``'
    contract with numpy."""
    for side, m, pos, informed, cz_mask, open_zones in _zone_cases(rng):
        zones = ZonePartition(CellGrid(side, m), 2)
        zones.cz_mask = cz_mask
        with use_kernel_tier("numpy"):
            got = zones_left(zones, pos, informed, open_zones)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(
            got, _zones_left(pos, informed, side / m, m, cz_mask, open_zones)
        )


def _zone_cases(rng):
    """Random ``zone_counts`` inputs ``(side, m, pos, informed, cz_mask,
    open_zones)``.  Rows 0-2 are all informed, none informed and closed;
    the rest draw their open bits and informed share.  A third of the
    cases put every cell in the Suburb and a third in the Central Zone,
    every fifth has one agent a row, and agents lie up to a quarter side
    outside the square, in the border cells clipping puts them in."""
    for case in range(45):
        batch = int(rng.integers(3, 8))
        n = 1 if case % 5 == 0 else int(rng.integers(2, 40))
        m = int(rng.integers(1, 7))
        side = float(rng.uniform(1.0, 9.0))
        pos = rng.uniform(-0.25 * side, 1.25 * side, size=(batch, n, 2))
        informed = rng.random((batch, n)) < rng.random((batch, 1))
        informed[0], informed[1] = True, False
        cz_mask = (
            rng.random((m, m)) < 0.5,
            np.zeros((m, m), dtype=bool),
            np.ones((m, m), dtype=bool),
        )[case % 3]
        open_zones = rng.integers(0, 4, size=batch).astype(np.uint8)
        open_zones[:2] = CENTRAL_ZONE | SUBURB
        open_zones[2] = 0
        yield side, m, pos, informed, cz_mask, open_zones


def _zones_left(pos, informed, ell, m, cz_mask, open_zones):
    """Oracle of ``zone_counts``: every agent's cell by ``CellGrid``'s
    division, truncation and clip, then the open zones of each row that
    hold an uninformed agent."""
    ij = (pos.reshape(-1, 2) / ell).astype(np.intp)
    np.clip(ij, 0, m - 1, out=ij)
    in_cz = cz_mask[ij[:, 0], ij[:, 1]].reshape(informed.shape)
    cz_left = np.any(~informed & in_cz, axis=1)
    suburb_left = np.any(~informed & ~in_cz, axis=1)
    bits = np.where(cz_left, CENTRAL_ZONE, 0) | np.where(suburb_left, SUBURB, 0)
    return bits.astype(np.uint8) & open_zones


# ----------------------------------------------------------------------
# Compiled tier end-to-end: invisible in results, visible in extras
# ----------------------------------------------------------------------
def fingerprints(config, trials=3):
    return [
        (
            r.flooding_time,
            r.completed,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
        )
        for r in run_trials(config, trials)
    ]


class TestEndToEndParity:
    @needs_provider
    @pytest.mark.parametrize(
        "mobility,mobility_options",
        [("mrwp", {}), ("rwp", {}), ("random-walk", {}), ("mrwp-pause", {"pause_time": 2.0})],
    )
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_tier_is_invisible_in_results(self, mobility, mobility_options, engine):
        base = standard_config(
            70, seed=31, mobility=mobility,
            mobility_options=dict(mobility_options), engine=engine,
        )
        reference = fingerprints(base.with_options(kernels="numpy"))
        compiled = fingerprints(base.with_options(kernels="compiled"))
        assert compiled == reference

    @needs_provider
    @pytest.mark.parametrize(
        "mobility,mobility_options",
        [("mrwp", {}), ("rwp", {}), ("mrwp-pause", {"pause_time": 2.0})],
    )
    @pytest.mark.parametrize(
        "protocol,protocol_options",
        [("gossip", {"fanout": 1}), ("gossip", {"fanout": 3}), ("push-pull", {})],
        ids=["gossip-1", "gossip-3", "push-pull"],
    )
    def test_sampling_protocols_match_across_tiers(
        self, protocol, protocol_options, mobility, mobility_options
    ):
        # On the compiled tier the batch engine counts sender degrees with
        # the batch_contacts kernel; on the numpy tier with a KD-tree.
        base = standard_config(
            300, seed=41, engine="batch", protocol=protocol,
            protocol_options=dict(protocol_options), mobility=mobility,
            mobility_options=dict(mobility_options),
        )
        reference = fingerprints(base.with_options(kernels="numpy"))
        assert fingerprints(base.with_options(kernels="compiled")) == reference

    @needs_provider
    @pytest.mark.parametrize("multi_hop", [False, True], ids=["one-hop", "multi-hop"])
    def test_tier_is_invisible_across_hop_modes(self, multi_hop):
        base = standard_config(70, seed=7, engine="batch", multi_hop=multi_hop)
        assert fingerprints(base.with_options(kernels="compiled")) == fingerprints(
            base.with_options(kernels="numpy")
        )

    def test_extras_record_resolved_tier(self):
        numpy_run = run_trials(standard_config(50, seed=5, kernels="numpy"), 1)
        assert numpy_run[0].extras["kernel_tier"] == "numpy"
        auto_run = run_trials(standard_config(50, seed=5, engine="batch"), 1)
        assert auto_run[0].extras["kernel_tier"] == kernel_tier_label("auto")

    @needs_provider
    def test_trials_draw_each_batch_in_one_palm_call(self, monkeypatch):
        """A run on the compiled tier builds each batch's stationary start
        in one ``palm_states`` call, and its results are the numpy tier's,
        which makes no call."""
        table = provider_kernels()
        original = table["palm_states"]
        batches = []

        def spy(pos, dest, target, second, side, rngs):
            batches.append((len(rngs), original(pos, dest, target, second, side, rngs)))
            return batches[-1][1]

        monkeypatch.setitem(table, "palm_states", spy)
        base = standard_config(120, seed=9, engine="batch", batch_size=3)
        compiled = fingerprints(base.with_options(kernels="compiled"), trials=7)
        assert batches == [(3, True), (3, True), (1, True)]
        assert compiled == fingerprints(base.with_options(kernels="numpy"), trials=7)
        assert len(batches) == 3

    @needs_provider
    def test_warm_then_no_new_compiles(self):
        """A compiled run builds nothing once the provider is loaded, so a
        second run's ``compile_events`` delta is zero."""
        config = standard_config(60, seed=13, engine="batch", kernels="compiled")
        run_trials(config, 2)
        before = compile_events()
        run_trials(config.with_options(seed=14), 2)
        assert compile_events() == before
