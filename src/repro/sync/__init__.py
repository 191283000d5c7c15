"""Synchronous-round substrate and protocols (Section 2 of the paper).

Provides the compute-send-receive round engine with a rushing adversary,
crusader broadcast (Algorithm CB, Figure 4) and iterated approximate agreement
(Algorithm APA, Figure 1 / Theorem 9 / Corollary 2).
"""

from repro.sync.approx_agreement import (
    ApaEquivocatingAdversary,
    ApaExtremeAdversary,
    ApaNode,
    ApaResult,
    ApaSplitAdversary,
    iterations_for_target,
    midpoint_rule,
    run_apa,
)
from repro.sync.crusader import (
    BOT,
    CbEcho,
    CbValue,
    CrusaderBroadcastNode,
    resolve_crusader,
    signed_value_tag,
)
from repro.sync.round_model import (
    BROADCAST,
    RoundMessage,
    SyncAdversary,
    SyncAdversaryContext,
    SyncNode,
    SyncNodeContext,
    SynchronousNetwork,
)

__all__ = [
    "ApaEquivocatingAdversary",
    "ApaExtremeAdversary",
    "ApaNode",
    "ApaResult",
    "ApaSplitAdversary",
    "BOT",
    "BROADCAST",
    "CbEcho",
    "CbValue",
    "CrusaderBroadcastNode",
    "RoundMessage",
    "SyncAdversary",
    "SyncAdversaryContext",
    "SyncNode",
    "SyncNodeContext",
    "SynchronousNetwork",
    "iterations_for_target",
    "midpoint_rule",
    "resolve_crusader",
    "run_apa",
    "signed_value_tag",
]
