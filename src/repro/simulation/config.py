"""Experiment configuration.

:class:`FloodingConfig` gathers every knob of a flooding run — network
parameters (``n``, ``L``, ``R``, ``v``), mobility model, protocol, source
placement, zone-partition constants — validates them once, and reports how
they relate to the paper's assumptions (Ineqs. 7-9).

The helper :func:`standard_config` builds the paper's canonical scaling
``L = sqrt(n)``, ``R = radius_factor * sqrt(log n)``,
``v = speed_fraction * R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core import theory
from repro.core.cells import cell_side_bounds
from repro.kernels import KERNEL_TIERS, resolve_kernel_tier
from repro.mobility import BATCH_MOBILITY_REGISTRY, MODEL_REGISTRY, NO_INIT_MODELS
from repro.protocols import BATCH_PROTOCOL_REGISTRY, PROTOCOL_REGISTRY
from repro.protocols.base import _is_integer

__all__ = ["FloodingConfig", "standard_config"]

_SOURCE_MODES = ("uniform", "central", "suburb")
_ENGINES = ("scalar", "batch", "auto")
_INITS = ("stationary", "closed-form", "uniform")
#: Largest Inequality-6 zone grid a run may build: ``m`` cells per side,
#: i.e. 2^24 cells and a 128 MiB float64 mass grid.
_MAX_ZONE_GRID_SIDE = 4096

#: Option vocabulary per mobility model, enforced at construction so a
#: typo'd option fails here with the model name in the message — not as a
#: TypeError deep inside trial one.
_MOBILITY_OPTION_KEYS = {
    "mrwp": frozenset(),
    "mrwp-pause": frozenset({"pause_time"}),
    "mrwp-speed": frozenset({"v_min", "v_max"}),
    "rwp": frozenset({"pause_time"}),
    "random-walk": frozenset({"boundary"}),
    "random-direction": frozenset({"mean_leg"}),
    "ferry": frozenset({"inset", "jitter"}),
    "composite": frozenset({"ferries", "inset"}),
    "timetable": frozenset(
        {"routes", "dwell", "headway", "capacity", "riders", "board_radius", "jitter"}
    ),
}


@dataclass(frozen=True)
class FloodingConfig:
    """Parameters of one flooding experiment.

    Attributes:
        n: number of agents.
        side: square side ``L``.
        radius: transmission radius ``R``.
        speed: agent speed ``v``.
        max_steps: simulation horizon (flooding may finish earlier).
        source: ``"uniform"`` (random agent), ``"central"`` (agent closest
            to the center), ``"suburb"`` (agent closest to a corner), or an
            explicit agent index.
        mobility: mobility model name from
            :data:`repro.mobility.MODEL_REGISTRY`.
        mobility_options: extra keyword arguments for the mobility model
            constructor (e.g. ``{"pause_time": 10.0}`` for ``mrwp-pause``).
        protocol: protocol name from
            :data:`repro.protocols.PROTOCOL_REGISTRY`.
        protocol_options: extra keyword arguments for the protocol
            constructor (e.g. ``{"fanout": 2}``).
        init: mobility initialization mode — ``"stationary"`` (perfect
            simulation of the stationary law), ``"closed-form"`` (MRWP
            only), or ``"uniform"`` (cold start).  Validated here; models
            with a narrower vocabulary raise their own error at
            construction instead of silently substituting a default.
        seed: root seed for all randomness of the run.
        threshold_factor: Definition 4's Central-Zone constant (3/8 paper).
        multi_hop: flooding semantics (see
            :class:`~repro.protocols.flooding.BatchFloodingState`).
        track_zones: record per-zone completion metrics (requires a cell
            grid satisfying Ineq. 6 — disabled automatically when the radius
            admits no grid; a grid wider than 4096 cells per side, from a
            radius far below the side, is rejected at construction).
        engine: multi-trial execution engine — ``"scalar"`` (the
            :class:`~repro.simulation.engine.Simulation` loop, one trial at
            a time), ``"batch"`` (lock-step
            :class:`~repro.simulation.batch.BatchSimulation`; every
            registered protocol, identical results, markedly faster for
            many trials), or ``"auto"`` (batch whenever the protocol has a
            batched implementation, scalar otherwise).  Engine/protocol
            combinations are validated at construction time.
        batch_size: trials advanced per batch when ``engine="batch"``
            (0 — the default — runs all of a call's or worker's trials in
            one batch).  Has no effect on results, only on peak memory.
        kernels: hot-loop kernel tier — ``"numpy"`` (the vectorized
            reference paths), ``"compiled"`` (loop kernels via the
            bundled C extension; an explicit demand that raises at
            run time when no provider is available), or ``"auto"`` (the
            default: compiled when a provider exists, numpy otherwise).
            Every compiled kernel is bit-exact against its numpy path
            (asserted by the parity sweeps), so the tier never changes
            results — only speed.  The tier also picks the neighbor path
            (the C pair kernels, or the numpy cell cover and tiled
            KD-tree); no field chooses one.
    """

    n: int
    side: float
    radius: float
    speed: float
    max_steps: int = 10_000
    source: object = "uniform"
    mobility: str = "mrwp"
    mobility_options: dict = field(default_factory=dict)
    protocol: str = "flooding"
    protocol_options: dict = field(default_factory=dict)
    init: str = "stationary"
    seed: int = 0
    threshold_factor: float = 3.0 / 8.0
    multi_hop: bool = False
    track_zones: bool = True
    engine: str = "scalar"
    batch_size: int = 0
    kernels: str = "auto"

    def __post_init__(self):
        for name in ("n", "max_steps", "batch_size"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"side must be positive and finite, got {self.side}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.track_zones:
            # The zone grid CellGrid.for_radius would build; a radius far
            # below the side must fail here, not as a MemoryError mid-run.
            m = math.ceil(self.side / cell_side_bounds(self.radius)[1])
            if m > _MAX_ZONE_GRID_SIDE:
                raise ValueError(
                    f"side={self.side} and radius={self.radius} need an Inequality-6 "
                    f"zone grid of m={m} cells per side (at most {_MAX_ZONE_GRID_SIDE}); "
                    "raise the radius or pass track_zones=False"
                )
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ValueError(f"speed must be non-negative and finite, got {self.speed}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        source_is_index = _is_integer(self.source)
        if not source_is_index and not (
            isinstance(self.source, str) and self.source in _SOURCE_MODES
        ):
            raise ValueError(
                f"source must be an index or one of {_SOURCE_MODES}, got {self.source!r}"
            )
        if source_is_index and not 0 <= self.source < self.n:
            raise ValueError(f"source index must be in [0, {self.n}), got {self.source}")
        if not (math.isfinite(self.threshold_factor) and self.threshold_factor > 0):
            raise ValueError(
                f"threshold_factor must be positive and finite, got {self.threshold_factor}"
            )
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        if self.init not in _INITS:
            raise ValueError(
                f"init must be one of {_INITS}, got {self.init!r} "
                "(mobility models may restrict further: 'closed-form' is mrwp-only)"
            )
        if self.mobility in NO_INIT_MODELS and self.init != "stationary":
            raise ValueError(
                f"mobility model {self.mobility!r} defines its own starting state "
                f"and takes no init= option (got init={self.init!r}); drop init or "
                "leave it at the default 'stationary'"
            )
        if self.mobility not in MODEL_REGISTRY:
            raise ValueError(
                f"unknown mobility model {self.mobility!r}; registered models: "
                f"{sorted(MODEL_REGISTRY)}"
            )
        if self.mobility not in BATCH_MOBILITY_REGISTRY:
            raise ValueError(
                f"mobility model {self.mobility!r} has no batch implementation; "
                "a registered model needs an entry in BATCH_MOBILITY_REGISTRY, "
                "which both engines run"
            )
        self._validate_mobility_options()
        if self.protocol not in PROTOCOL_REGISTRY:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; registered protocols: "
                f"{sorted(PROTOCOL_REGISTRY)}"
            )
        # Engine/protocol combinations fail here, at construction, with a
        # clear message — not as a deep ValueError once trials start.
        if self.engine == "batch" and self.protocol not in BATCH_PROTOCOL_REGISTRY:
            raise ValueError(
                f"protocol {self.protocol!r} has no batched implementation "
                f"(batchable: {sorted(BATCH_PROTOCOL_REGISTRY)}); use "
                f"engine='scalar', or engine='auto' to fall back automatically"
            )
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be non-negative, got {self.batch_size}")
        if self.kernels not in KERNEL_TIERS:
            raise ValueError(
                f"kernels must be one of {KERNEL_TIERS}, got {self.kernels!r}"
            )

    def _validate_mobility_options(self) -> None:
        """Per-model option vocabulary and value checks, at config time."""
        allowed = _MOBILITY_OPTION_KEYS.get(self.mobility)
        if allowed is None:
            raise ValueError(
                f"mobility model {self.mobility!r} is registered but has no "
                "declared option vocabulary; add it to "
                "_MOBILITY_OPTION_KEYS in repro/simulation/config.py"
            )
        unknown = set(self.mobility_options) - allowed
        if unknown:
            raise ValueError(
                f"unknown mobility options for {self.mobility!r}: {sorted(unknown)} "
                f"(accepted: {sorted(allowed) or 'none'})"
            )
        options = self.mobility_options
        pause_time = options.get("pause_time")
        if pause_time is not None and pause_time < 0:
            raise ValueError(f"pause_time must be non-negative, got {pause_time}")
        if self.mobility == "mrwp-pause" and not self.speed > 0:
            raise ValueError(f"mrwp-pause needs a positive speed, got {self.speed}")
        if self.mobility == "random-walk" and not 0 < self.speed <= self.side:
            # The walk's move radius is the config speed.
            raise ValueError(
                f"random-walk needs a speed (its move radius) in (0, side={self.side}], "
                f"got {self.speed}"
            )
        if self.mobility == "mrwp-speed":
            v_min = options.get("v_min", self.speed)
            v_max = options.get("v_max", self.speed)
            if not 0 < v_min <= v_max:
                raise ValueError(
                    f"mrwp-speed needs 0 < v_min <= v_max, got [{v_min}, {v_max}]"
                )
        mean_leg = options.get("mean_leg")
        if mean_leg is not None and mean_leg <= 0:
            raise ValueError(f"mean_leg must be positive, got {mean_leg}")
        inset = options.get("inset")
        if inset is not None and not 0 <= inset < self.side / 2:
            raise ValueError(f"inset must be in [0, side/2), got {inset}")
        ferries = options.get("ferries", 1)  # composite_with_ferries' default
        if self.mobility == "composite" and not 1 <= int(ferries) <= self.n - 2:
            raise ValueError(
                f"ferries must be in [1, n - 2] (need an MRWP background), got {ferries}"
            )
        jitter = options.get("jitter")
        if jitter is not None and not 0 <= jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        riders = options.get("riders")
        if riders is not None and not 0 <= int(riders) <= self.n - 1:
            raise ValueError(
                f"riders must be in [0, n - 1] (at least one vehicle), got {riders}"
            )
        dwell = options.get("dwell")
        if dwell is not None and isinstance(dwell, (int, float)) and dwell < 0:
            raise ValueError(f"dwell must be non-negative, got {dwell}")
        headway = options.get("headway")
        if headway is not None and not headway > 0:
            raise ValueError(f"headway must be positive, got {headway}")
        capacity = options.get("capacity")
        if capacity is not None and int(capacity) < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        board_radius = options.get("board_radius")
        if board_radius is not None and not board_radius > 0:
            raise ValueError(f"board_radius must be positive, got {board_radius}")

    def with_options(self, **changes) -> "FloodingConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def resolved_engine(self) -> str:
        """The engine that will actually run.

        ``"auto"`` picks the batch engine exactly when the protocol has a
        batched implementation
        (:data:`~repro.protocols.BATCH_PROTOCOL_REGISTRY`); every mobility
        model has one (a config naming a model without one is refused).
        """
        if self.engine != "auto":
            return self.engine
        return "batch" if self.protocol in BATCH_PROTOCOL_REGISTRY else "scalar"

    @property
    def resolved_kernels(self) -> str:
        """The kernel tier that will actually run (``"numpy"``/``"compiled"``).

        ``"auto"`` resolves against the cached probe of the bundled C
        extension; an explicit ``"compiled"`` with no
        provider available raises here rather than deep inside a run.
        """
        return resolve_kernel_tier(self.kernels)

    def assumptions(self, c1: float = theory.PAPER_C1) -> theory.Assumptions:
        """Check this configuration against the paper's hypotheses."""
        return theory.check_assumptions(self.n, self.side, self.radius, self.speed, c1=c1)

    def upper_bound(self) -> float:
        """Theorem 3's bound evaluated at this configuration."""
        return theory.flooding_upper_bound(self.n, self.side, self.radius, self.speed)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"n={self.n} L={self.side:.4g} R={self.radius:.4g} v={self.speed:.4g} "
            f"model={self.mobility} protocol={self.protocol} source={self.source} seed={self.seed}"
        )


def standard_config(
    n: int,
    radius_factor: float = 2.0,
    speed_fraction: float = 0.25,
    **overrides,
) -> FloodingConfig:
    """The paper's canonical scaling: ``L = sqrt n``, ``R = c sqrt(log n)``.

    Args:
        n: number of agents.
        radius_factor: ``c`` in ``R = c * sqrt(log n)`` — the paper's regime
            just above the Central-Zone density threshold (its own constant
            is un-optimized; see DESIGN.md).
        speed_fraction: ``v = speed_fraction * R``; 0.25 keeps the
            slow-mobility assumption comfortably satisfied.
        overrides: any other :class:`FloodingConfig` field.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    side = math.sqrt(n)
    radius = radius_factor * math.sqrt(math.log(n))
    speed = speed_fraction * radius
    return FloodingConfig(n=n, side=side, radius=radius, speed=speed, **overrides)
