"""Synchronous-round substrate and protocols (Section 2 of the paper).

Provides the compute-send-receive round engine with a rushing adversary,
crusader broadcast (Algorithm CB, Figure 4) and iterated approximate agreement
(Algorithm APA, Figure 1 / Theorem 9 / Corollary 2).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "approx_agreement": (
            "ApaEquivocatingAdversary",
            "ApaExtremeAdversary",
            "ApaNode",
            "ApaResult",
            "ApaSplitAdversary",
            "iterations_for_target",
            "midpoint_rule",
            "run_apa",
        ),
        "crusader": (
            "BOT",
            "CbEcho",
            "CbValue",
            "CrusaderBroadcastNode",
            "resolve_crusader",
            "signed_value_tag",
        ),
        "round_model": (
            "BROADCAST",
            "RoundMessage",
            "SyncAdversary",
            "SyncAdversaryContext",
            "SyncNode",
            "SyncNodeContext",
            "SynchronousNetwork",
        ),
    },
)
