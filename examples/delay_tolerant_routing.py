#!/usr/bin/env python
"""Delay-tolerant point-to-point delivery: opportunistic contacts vs ferries.

Opportunistic MANETs (paper refs [16, 26, 29, 30]) deliver unicast messages
across disconnected regions by letting mobility carry them.  This example
measures point-to-point delivery delay between suburban agents under three
strategies:

1. **epidemic relay** (flooding restricted to the paper's semantics) —
   the Lemma-16 mechanism does the work: agents commuting between the
   Central Zone and the corners ferry the message implicitly;
2. **direct contact only** — source waits to meet the destination itself
   (no relaying), the pessimistic baseline;
3. **message ferries** (ref [30]) — dedicated agents patrolling a loop
   near the suburbs relay the message.

Run:  python examples/delay_tolerant_routing.py
"""

import math

import numpy as np

from repro.core.flooding import build_zone_partition
from repro.core.meetings import MEETING_RADIUS_FACTOR
from repro.mobility import CompositeMobility, FerryPatrol, ManhattanRandomWaypoint, rectangle_route
from repro.protocols.flooding import FloodingProtocol
from repro.viz.tables import format_table


def delivery_delay_flooding(model, radius, source, destination, max_steps):
    """Steps until the destination is informed under flooding relay."""
    protocol = FloodingProtocol(model.n, model.side, radius, source)
    for step in range(1, max_steps + 1):
        positions = model.step()
        protocol.step(positions)
        if protocol.informed[destination]:
            return step
    return math.inf


def delivery_delay_direct(model, radius, source, destination, max_steps):
    """Steps until source and destination are within the meeting radius."""
    meet_r = MEETING_RADIUS_FACTOR * radius
    for step in range(1, max_steps + 1):
        positions = model.step()
        gap = np.linalg.norm(positions[source] - positions[destination])
        if gap <= meet_r:
            return step
    return math.inf


def main() -> int:
    n = 2_000
    side = math.sqrt(n)
    radius = 1.3 * math.sqrt(math.log(n))
    speed = 0.25 * radius
    max_steps = 6_000
    zones = build_zone_partition(n, side, radius)

    rows = []
    for trial in range(3):
        rng = np.random.default_rng(100 + trial)

        # Pick a suburban source and a suburban destination in opposite corners.
        base = ManhattanRandomWaypoint(n, side, speed, rng=rng)
        positions = base.positions
        corner_dist_sw = positions.sum(axis=1)
        corner_dist_ne = (side - positions).sum(axis=1)
        source = int(np.argmin(corner_dist_sw))
        destination = int(np.argmin(corner_dist_ne))
        state = base.get_state()

        # Strategy 1: epidemic relay over the plain MRWP population.
        model = ManhattanRandomWaypoint(n, side, speed, rng=np.random.default_rng(200 + trial), init=state)
        t_flood = delivery_delay_flooding(model, radius, source, destination, max_steps)

        # Strategy 2: direct contact only.
        model = ManhattanRandomWaypoint(n, side, speed, rng=np.random.default_rng(200 + trial), init=state)
        t_direct = delivery_delay_direct(model, radius, source, destination, max_steps)

        # Strategy 3: epidemic relay + 4 ferries patrolling near the walls.
        ferries = FerryPatrol(
            4, side, speed=2.0 * speed, route=rectangle_route(side, inset=0.08 * side)
        )
        model = CompositeMobility(
            [
                ManhattanRandomWaypoint(
                    n, side, speed, rng=np.random.default_rng(200 + trial), init=state
                ),
                ferries,
            ]
        )
        t_ferry = delivery_delay_flooding(model, radius, source, destination, max_steps)

        in_suburb = zones.in_suburb(positions[[source, destination]]) if zones else [False, False]
        rows.append(
            [
                trial,
                f"{'suburb' if in_suburb[0] else 'cz'}->{'suburb' if in_suburb[1] else 'cz'}",
                t_flood,
                t_ferry,
                t_direct,
            ]
        )

    print(f"corner-to-corner delivery over a {side:.0f}-block city, R={radius:.1f}\n")
    print(
        format_table(
            ["trial", "endpoints", "epidemic relay", "relay + 4 ferries", "direct contact"],
            rows,
            title="delivery delay (steps)",
        )
    )
    print()
    print("Epidemic relay crosses the disconnected corners via commuting agents")
    print("(Lemma 16's meetings); ferries shave the tail; direct contact can take")
    print("orders of magnitude longer — mobility, not connectivity, carries data.")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
