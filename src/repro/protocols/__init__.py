"""Broadcast protocols: the paper's flooding plus baseline comparators.

Every protocol has one implementation, a :class:`BatchBroadcastState`
subclass advancing ``B`` independent replicas in lock-step (see
:mod:`repro.simulation.batch`).  The scalar engine runs its
:class:`BroadcastProtocol` class, a one-replica view of that state
(``batch_state``), so both engines run the same exchange code.  The two
registries below map protocol names to the respective classes; they stay
key-identical, and ``PROTOCOL_REGISTRY[name].batch_state`` is
``BATCH_PROTOCOL_REGISTRY[name]`` (asserted by the tests).
"""

from repro.protocols.base import (
    BatchBroadcastState,
    BroadcastProtocol,
    group_segments,
    sample_indices,
)
from repro.protocols.epidemic import BatchSIRState, SIREpidemic
from repro.protocols.faulty import BatchCrashFaultState, CrashFaultFlooding
from repro.protocols.flooding import BatchFloodingState, FloodingProtocol
from repro.protocols.gossip import BatchGossipState, GossipProtocol
from repro.protocols.parsimonious import BatchParsimoniousState, ParsimoniousFlooding
from repro.protocols.probabilistic import BatchProbabilisticState, ProbabilisticFlooding
from repro.protocols.pushpull import BatchPushPullState, PushPullGossip

PROTOCOL_REGISTRY = {
    "flooding": FloodingProtocol,
    "gossip": GossipProtocol,
    "push-pull": PushPullGossip,
    "parsimonious": ParsimoniousFlooding,
    "probabilistic": ProbabilisticFlooding,
    "sir": SIREpidemic,
    "crash-flooding": CrashFaultFlooding,
}
"""Name -> scalar view used by the scalar engine (``run_flooding``)."""

BATCH_PROTOCOL_REGISTRY = {
    "flooding": BatchFloodingState,
    "gossip": BatchGossipState,
    "push-pull": BatchPushPullState,
    "parsimonious": BatchParsimoniousState,
    "probabilistic": BatchProbabilisticState,
    "sir": BatchSIRState,
    "crash-flooding": BatchCrashFaultState,
}
"""Name -> batched state mapping; a protocol listed here runs under
``engine="batch"`` (and is what ``engine="auto"`` keys off)."""

__all__ = [
    "BroadcastProtocol",
    "BatchBroadcastState",
    "group_segments",
    "sample_indices",
    "FloodingProtocol",
    "BatchFloodingState",
    "GossipProtocol",
    "BatchGossipState",
    "PushPullGossip",
    "BatchPushPullState",
    "ParsimoniousFlooding",
    "BatchParsimoniousState",
    "ProbabilisticFlooding",
    "BatchProbabilisticState",
    "SIREpidemic",
    "BatchSIRState",
    "CrashFaultFlooding",
    "BatchCrashFaultState",
    "PROTOCOL_REGISTRY",
    "BATCH_PROTOCOL_REGISTRY",
]
