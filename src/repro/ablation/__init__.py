"""Protocol ablation engine: per-component importance, empirically.

The paper proves that each CPS mechanism is *necessary* by theorem;
this package demonstrates it by measurement.  Every switchable
component (:data:`~repro.build.ABLATABLE_COMPONENTS`) is paired with a
challenge scenario on which the full protocol holds all its bounds and
the one-component-removed protocol breaks at least one conformance
monitor — the monitor-flip set is the component's measured importance.

Layers:

``components``
    The catalog: name, validated off-behaviour, paper reference, and
    the engineered challenge case per component.
``plan``
    :class:`AblationSpec` -> baseline-plus-one-off (optionally
    pairwise) matrix as an ordinary campaign spec (stable case keys,
    caching, pools).
``report``
    Importance payload (monitor flips + skew deltas), byte-stable for
    the committed ``results/ablation.json`` artifact, plus the table
    renderers.

CLI surface: ``repro ablate plan | run | report``; the generated
catalog document is ``docs/ABLATIONS.md``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "components": ("COMPONENTS", "COMPONENT_INDEX"),
        "plan": (
            "ABLATION_CAMPAIGN_NAME",
            "ABLATION_SEED",
            "AblationSpec",
            "ablation_campaign_spec",
            "planned_runs",
            "planned_trials",
        ),
        "report": (
            "ablation_payload_bytes",
            "ablation_report",
            "monitor_flips",
            "render_ablation_table",
        ),
    },
)
