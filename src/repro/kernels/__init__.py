"""Compiled kernel tier: registry, probes, and dispatch.

The library has three kernel tiers, selected per run through the
``kernels`` config knob (threaded from config/CLI down to the dispatch
sites in geometry, mobility, and network):

``"numpy"``
    The vectorized reference paths — always available, bit-exact default.
``"compiled"``
    Loop kernels from the ``cext`` *provider*: the bundled C mirror of
    :mod:`repro.kernels._cores`, built on demand with the system compiler.
    Requesting this tier with no provider available raises.
``"auto"``
    ``"compiled"`` when a provider exists, else ``"numpy"``.

Dispatch is *pull-based*: hot paths call :func:`get_kernel` and fall back
to their numpy bodies when it returns ``None`` (tier inactive, provider
missing, or inputs outside the kernel's guarded domain).  The active tier
is process-global but scoped: the default is ``"numpy"`` so direct library
calls keep exercising the reference paths, and the runners activate the
configured tier around a simulation via :func:`use_kernel_tier`.

The provider probe is cached per process, with an escape hatch for tests
and CI: ``REPRO_NO_CEXT=1`` blocks the C provider, forcing the numpy tier
everywhere.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from ._glue import (
    CENTRAL_ZONE,
    KERNEL_NAMES,
    SUBURB,
    EuclideanTrips,
    ManhattanTrips,
    PauseTrips,
    SpeedRangeTrips,
    TripWork,
    make_kernels,
)

__all__ = [
    "KERNEL_NAMES",
    "KERNEL_TIERS",
    "ManhattanTrips",
    "PauseTrips",
    "SpeedRangeTrips",
    "EuclideanTrips",
    "TripWork",
    "CENTRAL_ZONE",
    "SUBURB",
    "cext_available",
    "kernel_backend",
    "available_kernel_backends",
    "resolve_kernel_tier",
    "kernel_tier_label",
    "use_kernel_tier",
    "active_kernel_tier",
    "get_kernel",
    "provider_kernels",
    "reference_kernels",
    "warm_kernels",
    "compile_events",
]

#: Valid values of the ``kernels`` config knob.
KERNEL_TIERS = ("auto", "compiled", "numpy")

_CEXT_CORES = None
_CEXT_OK: bool | None = None
_TABLES: dict = {}

_ACTIVE_TIER = "numpy"
_ACTIVE_KERNELS: dict | None = None


def cext_available() -> bool:
    """Cached probe for the C provider (``REPRO_NO_CEXT=1`` blocks it).

    The first probe builds the shared object with the system compiler
    (cached on disk by source hash), so it is deliberately lazy: numpy-tier
    runs never trigger a build.
    """
    global _CEXT_OK, _CEXT_CORES
    if _CEXT_OK is None:
        if os.environ.get("REPRO_NO_CEXT") == "1":
            _CEXT_OK = False
        else:
            try:
                from . import _cext

                _CEXT_CORES = _cext.load_cores()
            except Exception:
                _CEXT_OK = False
            else:
                _CEXT_OK = True
    return _CEXT_OK


def kernel_backend() -> str | None:
    """The compiled provider the ``"compiled"`` tier would use, or ``None``."""
    return "cext" if cext_available() else None


def available_kernel_backends() -> list:
    """All usable kernel backends, best first; ``"numpy"`` is always last."""
    return ["cext", "numpy"] if cext_available() else ["numpy"]


def resolve_kernel_tier(tier: str) -> str:
    """Resolve a config-level tier to the effective one.

    ``"auto"`` degrades to ``"numpy"`` when no provider is available;
    ``"compiled"`` is an explicit demand and raises instead.
    """
    if tier not in KERNEL_TIERS:
        raise ValueError(f"unknown kernel tier {tier!r}; expected one of {KERNEL_TIERS}")
    if tier == "numpy":
        return "numpy"
    backend = kernel_backend()
    if backend is None:
        if tier == "compiled":
            raise RuntimeError(
                "kernels='compiled' requested but no compiled provider is available "
                "(the C extension did not build)"
            )
        return "numpy"
    return "compiled"


def kernel_tier_label(tier: str = "auto") -> str:
    """Human/JSON label of the resolved tier: ``numpy`` or ``cext``."""
    return "numpy" if resolve_kernel_tier(tier) == "numpy" else "cext"


def _provider_table(backend: str) -> dict:
    if backend not in _TABLES:
        if backend != "cext":
            raise ValueError(f"unknown kernel backend {backend!r}")
        cext_available()
        if _CEXT_CORES is None:
            raise RuntimeError("cext kernel provider unavailable")
        _TABLES[backend] = make_kernels(_CEXT_CORES)
    return _TABLES[backend]


def provider_kernels(backend: str | None = None) -> dict:
    """Kernel table of ``backend`` (default: the best available provider)."""
    if backend is None:
        backend = kernel_backend()
        if backend is None:
            raise RuntimeError("no compiled kernel provider available")
    return _provider_table(backend)


def reference_kernels() -> dict:
    """Pure-Python kernel table (the spec, interpreted — for tests only)."""
    from . import _cores

    return make_kernels(_cores)


@contextmanager
def use_kernel_tier(tier: str):
    """Activate a kernel tier for the dynamic extent of the ``with`` block.

    Yields the effective tier (``"numpy"`` or ``"compiled"``).  Re-entrant;
    restores the previous tier on exit.
    """
    resolved = resolve_kernel_tier(tier)
    global _ACTIVE_TIER, _ACTIVE_KERNELS
    prev = (_ACTIVE_TIER, _ACTIVE_KERNELS)
    if resolved == "compiled":
        _ACTIVE_TIER, _ACTIVE_KERNELS = "compiled", provider_kernels()
    else:
        _ACTIVE_TIER, _ACTIVE_KERNELS = "numpy", None
    try:
        yield _ACTIVE_TIER
    finally:
        _ACTIVE_TIER, _ACTIVE_KERNELS = prev


def active_kernel_tier() -> str:
    """The currently active tier (``"numpy"`` unless a runner activated one)."""
    return _ACTIVE_TIER


def get_kernel(name: str):
    """The active compiled kernel for ``name``, or ``None`` (= run numpy)."""
    table = _ACTIVE_KERNELS
    if table is None:
        return None
    return table[name]


def warm_kernels(backend: str | None = None) -> str:
    """Exercise every compiled kernel once on tiny inputs.

    Covers each kernel's runtime type signature: the distance-budget leg
    passes (sparse, and dense with some and with all rows moving) and
    each model's trip mode (MRWP, pause-MRWP, random-speed MRWP and RWP),
    drawing from a real ``Generator``.  Returns the tier label that was
    warmed (``"numpy"`` when no provider is available — nothing to warm).
    """
    if backend is None and kernel_backend() is None:
        return "numpy"
    table = provider_kernels(backend)
    pos3 = np.array([[[0.1, 0.2], [0.6, 0.7]]] * 2, dtype=np.float64)
    src_mask = np.array([[True, False], [True, True]])
    qry_mask = np.array([[False, True], [True, False]])
    table["batch_any_within"](pos3, src_mask, qry_mask, 0.5, 1.0)
    table["batch_contacts"](pos3, src_mask, qry_mask, 0.5, 1.0)
    table["batch_contacts"](pos3, src_mask, qry_mask, 0.5, 1.0, counts=True)
    target = np.array([[1.0, 1.0], [0.0, 0.5], [0.3, 0.3]], dtype=np.float64)
    idx = np.arange(3, dtype=np.intp)
    moving = np.array([True, False, True])
    table["advance_legs"](np.zeros((3, 2)), target, np.full(3, 0.25), idx, 1e-9)
    for n_moving in (2, 3):
        table["advance_legs_dense"](
            np.zeros((3, 2)), target, np.full(3, 0.25), moving, n_moving, 1e-9
        )
    second = np.array([False, True, False])
    one = np.ones(1, dtype=bool)

    def trips_step(budget, speed, trips):
        table["advance_legs_dense"](
            np.zeros((3, 2)), target.copy(), budget, one, 1, 1e-9, speed=speed, trips=trips
        )

    def common():
        return 1.0, [np.random.default_rng(0)], 64, TripWork(3)

    counts = (np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))
    trips_step(2.5, None, ManhattanTrips(target.copy(), second.copy(), *counts, *common()))
    pause_left = np.array([0.0, 0.5, 0.0])
    trips_step(1.0, 2.5, PauseTrips(target.copy(), second.copy(), pause_left, 0.25, *common()))
    speeds = np.array([2.0, 1.0, 3.0])
    trips_step(1.0, speeds, SpeedRangeTrips(target.copy(), second.copy(), 1.0, 3.0, *common()))
    trips_step(1.0, 2.5, EuclideanTrips(pause_left.copy(), counts[1], 0.25, *common()))
    order = np.array([2, 0, 1], dtype=np.intp)
    sorted_ids = np.array([0, 1, 3], dtype=np.intp)
    removed = np.array([False, True, False])
    table["grid_splice"](
        order, sorted_ids, removed,
        np.array([2], dtype=np.intp), np.array([0], dtype=np.intp),
    )
    occupancy = np.zeros(4, dtype=np.int64)
    table["occupancy_delta"](occupancy, np.array([1]), np.array([2]))
    parent = np.arange(4, dtype=np.intp)
    table["union_fixpoint"](parent, np.array([3]), np.array([1]))
    table["zone_counts"](
        pos3, src_mask, 0.5, 2, np.array([[True, False], [False, True]]),
        np.array([CENTRAL_ZONE | SUBURB, SUBURB], dtype=np.uint8),
    )
    return backend or kernel_backend()


def compile_events() -> int:
    """Monotone counter of compilation work done by this process.

    Counts C builds, so a delta of zero across a timed region proves
    warm-path-only measurement.
    """
    try:
        from . import _cext

        return _cext.build_count()
    except Exception:
        return 0


def _reset_probe_cache_for_tests() -> None:
    """Forget cached probe results (tests toggle the env escape hatch)."""
    global _CEXT_OK, _CEXT_CORES
    _CEXT_OK = None
    _CEXT_CORES = None
    _TABLES.clear()
