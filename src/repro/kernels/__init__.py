"""Compiled kernel tier: registry, probes, and dispatch.

The library has three kernel tiers, selected per run through the
``kernels`` config knob (threaded from config/CLI down to the dispatch
sites in geometry, mobility, and network):

``"numpy"``
    The vectorized reference paths — always available, bit-exact default.
``"compiled"``
    Loop kernels from the one *provider*, ``cext``: the bundled C mirror
    of the spec in ``tests/kernel_oracles.py``, built on demand with the
    system compiler.  Requesting this tier with no provider available
    raises.
``"auto"``
    ``"compiled"`` when a provider exists, else ``"numpy"``.

Dispatch is *pull-based*: hot paths call :func:`get_kernel` and fall back
to their numpy bodies when it returns ``None`` (tier inactive, provider
missing, or inputs outside the kernel's guarded domain).  The active tier
is process-global but scoped: the default is ``"numpy"`` so direct library
calls keep exercising the reference paths, and the runners activate the
configured tier via :func:`use_kernel_tier` around a run, from model
construction (the ``palm_states`` sampler draws the stationary start)
to the end of the simulation loop.  The kernels that draw random numbers
(the trip mode, ``palm_states`` and the gossip and push-pull sampler
``cut_exchange``) derive their generators' C handles through a
:class:`GeneratorCache`, once per model, state or run of calls on the
same generators.

The provider probe, :func:`kernel_backend`, is cached per process with
the provider's one kernel table, with an escape hatch for tests and CI:
``REPRO_NO_CEXT=1`` blocks the C provider, forcing the numpy tier
everywhere.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ._glue import (
    CENTRAL_ZONE,
    KERNEL_NAMES,
    SUBURB,
    EuclideanTrips,
    GeneratorCache,
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
    "GeneratorCache",
    "CENTRAL_ZONE",
    "SUBURB",
    "kernel_backend",
    "resolve_kernel_tier",
    "kernel_tier_label",
    "use_kernel_tier",
    "get_kernel",
    "provider_kernels",
    "compile_events",
]

#: Valid values of the ``kernels`` config knob.
KERNEL_TIERS = ("auto", "compiled", "numpy")

_PROBED = False
_TABLE: dict | None = None

_ACTIVE_KERNELS: dict | None = None


def kernel_backend() -> str | None:
    """The compiled provider, ``"cext"``, or ``None`` when it is blocked
    (``REPRO_NO_CEXT=1``) or did not build.

    The first probe builds the shared object with the system compiler
    (cached on disk by source hash) and the provider's kernel table, so
    it is deliberately lazy: numpy-tier runs never trigger a build.
    """
    global _PROBED, _TABLE
    if not _PROBED:
        _PROBED = True
        if os.environ.get("REPRO_NO_CEXT") != "1":
            try:
                from . import _cext

                _TABLE = make_kernels(_cext.load_cores())
            except Exception:
                _TABLE = None
    return None if _TABLE is None else "cext"


def resolve_kernel_tier(tier: str) -> str:
    """Resolve a config-level tier to the effective one.

    ``"auto"`` degrades to ``"numpy"`` when no provider is available;
    ``"compiled"`` is an explicit demand and raises instead.
    """
    if tier not in KERNEL_TIERS:
        raise ValueError(f"unknown kernel tier {tier!r}; expected one of {KERNEL_TIERS}")
    if tier == "numpy":
        return "numpy"
    if kernel_backend() is None:
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


def provider_kernels() -> dict:
    """The provider's kernel table, one per process; raises without one."""
    if kernel_backend() is None:
        raise RuntimeError("no compiled kernel provider available")
    return _TABLE


@contextmanager
def use_kernel_tier(tier: str):
    """Activate a kernel tier for the dynamic extent of the ``with`` block.

    Yields the effective tier (``"numpy"`` or ``"compiled"``).  Re-entrant;
    restores the previous tier on exit.
    """
    resolved = resolve_kernel_tier(tier)
    global _ACTIVE_KERNELS
    prev = _ACTIVE_KERNELS
    _ACTIVE_KERNELS = provider_kernels() if resolved == "compiled" else None
    try:
        yield resolved
    finally:
        _ACTIVE_KERNELS = prev


def get_kernel(name: str):
    """The active compiled kernel for ``name``, or ``None`` (= run numpy)."""
    table = _ACTIVE_KERNELS
    if table is None:
        return None
    return table[name]


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
    global _PROBED, _TABLE
    _PROBED = False
    _TABLE = None
