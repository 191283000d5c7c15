"""Scenario registry: catalog, lookups, campaign round-trip, CLI.

The satellite guarantees under test:

* the registry holds every ported entry plus the new scenarios, with
  metadata, and unknown keys raise with a did-you-mean hint;
* every registered delay policy emits model-admissible delays, every
  topology meets its advertised connectivity, every drift profile
  satisfies the paper's clock assumptions;
* a ``ScenarioSpec`` naming registry entries round-trips through the
  campaign executor (including store replay), and a misspelled key
  fails at *plan* time;
* ``repro scenarios list/show`` renders the catalog.
"""

import ast
import inspect
import pathlib

import pytest

from repro import scenarios
from repro.build import MECHANISM_KEYS, build_simulation
from repro.campaigns import (
    CampaignSpec,
    MeasurementSpec,
    ResultStore,
    ScenarioSpec,
    execute_campaign,
)
from repro.cli import main
from repro.core.params import RELATIVE_TOLERANCE as EPS
from repro.core.params import derive_parameters
from repro.scenarios import UnknownScenarioError
from repro.sim.errors import ConfigurationError
from repro.sim.network import NetworkConfig
from repro.sim.vectorized import UnsupportedScenarioError


PARAMS = derive_parameters(1.001, 1.0, 0.01, 6)


# ----------------------------------------------------------------------
# Catalog contents and lookup semantics
# ----------------------------------------------------------------------


class TestCatalog:
    def test_registry_is_populated(self):
        assert len(scenarios.REGISTRY) >= 12
        for kind in scenarios.KINDS:
            if kind == "fuzz":
                # Fuzz fixtures register only at explicit promotion
                # time (other suites may already have promoted some),
                # so the kind is allowed to be empty.
                continue
            assert scenarios.entries(kind), f"no {kind} entries"

    def test_ported_entries_present(self):
        for key in ("silent", "replay", "mimic-split",
                    "equivocating-subset", "rushing-echo",
                    "extreme-values", "split-bot", "equivocating"):
            assert scenarios.has("adversary", key), key
        for key in ("maximum", "minimum", "constant-fraction", "random",
                    "biased-partition", "skewing", "fast-to-faulty"):
            assert scenarios.has("delay", key), key
        for key in ("complete", "circulant"):
            assert scenarios.has("topology", key), key
        for key in ("random", "extreme"):
            assert scenarios.has("drift", key), key

    def test_new_scenarios_present(self):
        new = [
            entry.qualified
            for entry in scenarios.entries()
            if "new" in entry.tags
        ]
        assert len(new) >= 6, new

    def test_unknown_key_raises_with_suggestion(self):
        with pytest.raises(UnknownScenarioError, match="did you mean"):
            scenarios.get("delay", "eclipse-")
        with pytest.raises(UnknownScenarioError, match="registered"):
            scenarios.get("adversary", "no-such-behaviour")

    def test_unknown_kind_rejected_at_registration(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            scenarios.register_scenario(
                "weather", "sunny", description="not a kind"
            )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            scenarios.register_scenario(
                "delay", "maximum", description="dup"
            )(lambda n=None: None)

    def test_find_is_kind_qualified(self):
        assert len(scenarios.find("random")) == 2  # delay and drift
        assert [e.kind for e in scenarios.find("delay:random")] == [
            "delay"
        ]
        assert scenarios.find("nope") == []

    def test_entries_carry_metadata(self):
        entry = scenarios.get("delay", "eclipse")
        assert entry.description
        assert entry.paper_ref
        assert entry.params[0].name == "victims"

    def test_factory_overrides_apply(self):
        policy = scenarios.create("delay", "eclipse", 6, victims=(1, 2))
        assert policy.victims == {1, 2}
        with pytest.raises(TypeError):
            scenarios.create("delay", "eclipse", 6, nonsense=1)


# ----------------------------------------------------------------------
# Semantic checks per kind
# ----------------------------------------------------------------------


class TestDelayEntries:
    @pytest.mark.parametrize(
        "key", [e.key for e in scenarios.entries("delay")]
    )
    def test_all_delay_policies_emit_admissible_delays(self, key):
        config = NetworkConfig(n=6, d=1.0, u=0.05)
        policy = scenarios.create("delay", key, 6)
        for src, dst in ((0, 1), (1, 2), (0, 5), (4, 3)):
            for send_time in (0.0, 3.7, 12.5, 100.0):
                for honest in (True, False):
                    delay = policy.delay(
                        config, src, dst, send_time, None, honest
                    )
                    low, high = config.delay_bounds(honest)
                    assert low - EPS <= delay <= high + EPS

    @pytest.mark.parametrize(
        "key, param",
        [
            ("biased-partition", "group"),
            ("skewing", "slow"),
            ("eclipse", "victims"),
            ("flicker-partition", "group"),
        ],
    )
    def test_member_ids_outside_the_system_are_refused(self, key, param):
        # An id outside range(n) matches no node: `skewing` with
        # slow=[42] would silently run `minimum`.
        with pytest.raises(
            ConfigurationError,
            match=rf"delay '{key}': {param} ids \[-1, 42\] outside "
            r"range\(n=6\)",
        ):
            scenarios.create("delay", key, 6, **{param: [0, 42, -1, 42]})
        with pytest.raises(ConfigurationError, match=r"ids \[6\]"):
            build_simulation(
                {"n": 6, "delay": key, "delay_params": {param: [6]}}
            )

    def test_check_run_reports_an_out_of_range_id(self, capsys):
        assert main(
            ["check", "run", "skewing", "--kind", "delay",
             "--param", "slow=[42]"]
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert (
            "error      ConfigurationError: delay 'skewing': slow ids "
            "[42] outside range(n=6)"
        ) in out

    def test_eclipse_semantics(self):
        config = NetworkConfig(n=4, d=1.0, u=0.2)
        policy = scenarios.create("delay", "eclipse", 4, victims=(0,))
        low, high = config.delay_bounds(True)
        assert policy.delay(config, 0, 1, 0.0, None, True) == high
        assert policy.delay(config, 2, 0, 0.0, None, True) == high
        assert policy.delay(config, 2, 3, 0.0, None, True) == low

    def test_flicker_partition_flips_with_time(self):
        config = NetworkConfig(n=4, d=1.0, u=0.2)
        policy = scenarios.create(
            "delay", "flicker-partition", 4, period=5.0
        )
        low, high = config.delay_bounds(True)
        # 0 and 2 share a group: fast in phase 0, slow in phase 1.
        assert policy.delay(config, 0, 2, 1.0, None, True) == low
        assert policy.delay(config, 0, 2, 6.0, None, True) == high
        # Cross-group is the mirror image.
        assert policy.delay(config, 0, 1, 1.0, None, True) == high
        assert policy.delay(config, 0, 1, 6.0, None, True) == low


APA_ADVERSARIES = [
    entry.key
    for entry in scenarios.REGISTRY.entries("adversary")
    if "apa" in entry.tags
]


class TestAdversaryEntries:
    def test_the_round_model_adversaries_are_tagged(self):
        assert sorted(APA_ADVERSARIES) == [
            "equivocating", "extreme-values", "split-bot"
        ]

    @pytest.mark.parametrize("backend", ["event", "vectorized"])
    @pytest.mark.parametrize("key", APA_ADVERSARIES)
    def test_a_round_model_adversary_is_refused_at_build(self, key, backend):
        """An ``apa`` behaviour has none of the timed hooks: refused
        before anything runs, in one line naming key, tag and model."""
        with pytest.raises(ConfigurationError) as excinfo:
            build_simulation({"n": 7, "adversary": key}, backend=backend)
        message = str(excinfo.value)
        assert "\n" not in message
        assert repr(key) in message and "'apa'" in message
        assert "APA round model" in message and "run_apa" in message


class TestFacadeCaseKeys:
    """``f`` counts the faulty nodes and the three ``CpsNode`` overrides
    are case keys; each misuse is refused at build, in one line naming
    the key."""

    @staticmethod
    def _refusal(error, case, backend="event"):
        with pytest.raises(error) as excinfo:
            build_simulation(case, backend=backend)
        message = str(excinfo.value)
        assert "\n" not in message
        return message

    @pytest.mark.parametrize("f", [-1, 4])
    def test_f_outside_the_resilience_is_refused(self, f):
        message = self._refusal(ConfigurationError, {"n": 7, "f": f})
        assert "'f'" in message and "0..3" in message

    def test_the_overlay_bounds_f_by_its_connectivity(self):
        # circulant(9, jumps 1 and 2) has connectivity 4, so f <= 3,
        # below max_faults(9) = 4.
        case = {"n": 9, "topology": "circulant", "f": 4}
        assert "0..3" in self._refusal(ConfigurationError, case)

    def test_f_beside_churn_is_refused(self):
        case = {"n": 7, "f": 1, "churn": "single-crash"}
        message = self._refusal(ConfigurationError, case)
        assert "'f'" in message and "'churn'" in message

    def test_discard_rule_beside_the_apa_ablation_is_refused(self):
        case = {"n": 7, "ablate": ["apa"], "discard_rule": "f"}
        message = self._refusal(ConfigurationError, case)
        assert "'discard_rule'" in message and "'apa'" in message

    @pytest.mark.parametrize("key", MECHANISM_KEYS)
    def test_the_vectorized_backend_refuses_each_mechanism_key(self, key):
        case = {"n": 7, key: None}
        message = self._refusal(UnsupportedScenarioError, case, "vectorized")
        assert repr(key) in message and "backend='event'" in message

    def test_f_zero_runs_every_node_honest(self):
        built = build_simulation({"n": 7, "f": 0})
        simulation = built.simulation
        assert list(simulation.honest) == list(range(7))
        assert not simulation.faulty
        # The protocol keeps the derived resilience.
        assert built.f == built.params.f == 3
        result = simulation.run(max_pulses=3)
        assert all(len(result.pulses[v]) >= 3 for v in range(7))

    def test_each_mechanism_key_reaches_every_node(self):
        overrides = {
            "echo_rejection": False,
            "discard_rule": "f",
            "dealer_send_offset": 0.25,
        }
        simulation = build_simulation({"n": 7, **overrides}).simulation
        for v in simulation.honest:
            protocol = simulation.protocol(v)
            assert {key: getattr(protocol, key) for key in overrides} == (
                overrides
            )


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def test_only_the_facade_assembles_a_cps_node():
    # A CpsNode run is a case dict through build_simulation; any other
    # caller of the low-level assembler runs another protocol on the
    # same wiring and says which (``node=LynchWelchNode``, a relay's).
    checked, stray = [], []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "build.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            function = getattr(node, "func", None)
            name = getattr(function, "id", getattr(function, "attr", None))
            if name != "assemble_cps_simulation":
                continue
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            protocol = [k.value for k in node.keywords if k.arg == "node"]
            if protocol and ast.unparse(protocol[0]) != "CpsNode":
                checked.append(where)
            else:
                stray.append(where)
    assert checked and stray == []


class TestTopologyEntries:
    def test_topologies_meet_advertised_connectivity(self):
        import networkx as nx

        for key, kwargs, minimum in (
            ("complete", {}, 7),
            ("circulant", {}, 4),
            ("random-regular", {"degree": 4}, 4),
            ("small-world", {"k": 4}, 1),
        ):
            graph = scenarios.create("topology", key, 8, **kwargs)
            assert graph.number_of_nodes() == 8
            assert nx.is_connected(graph)
            assert nx.node_connectivity(graph) >= minimum, key

    def test_random_regular_is_deterministic_in_seed(self):
        a = scenarios.create("topology", "random-regular", 10, seed=3)
        b = scenarios.create("topology", "random-regular", 10, seed=3)
        assert sorted(a.edges) == sorted(b.edges)


class TestDriftEntries:
    @pytest.mark.parametrize(
        "key", [e.key for e in scenarios.entries("drift")]
    )
    def test_all_profiles_satisfy_model_assumptions(self, key):
        clocks = scenarios.create("drift", key, PARAMS, 7)
        assert len(clocks) == PARAMS.n
        for clock in clocks:
            # Construction validates rates against theta; check offsets.
            assert -EPS <= clock.offset_at_zero <= PARAMS.S + EPS

    def test_profiles_are_deterministic_in_seed(self):
        a = scenarios.create("drift", "mixed", PARAMS, 5)
        b = scenarios.create("drift", "mixed", PARAMS, 5)
        assert [c.local_time(13.7) for c in a] == [
            c.local_time(13.7) for c in b
        ]


# ----------------------------------------------------------------------
# Campaign round-trip with registry-named scenarios
# ----------------------------------------------------------------------


def _registry_spec(adversaries=("silent", "coordinated-offset")):
    return CampaignSpec(
        name="registry-roundtrip",
        seed=11,
        scenarios=(
            ScenarioSpec(
                builder="cps-stress",
                base={"n": 5, "u": 0.02, "drift": "staggered"},
                axes={
                    "*": {
                        "adversary": adversaries,
                        "delay": ("eclipse", "flicker-partition"),
                    }
                },
            ),
        ),
        measurements={"*": MeasurementSpec(pulses=4, warmup=1)},
    )


class TestRegistryCampaignRoundTrip:
    def test_executes_and_stays_within_bound(self):
        run = execute_campaign(_registry_spec())
        assert run.failed == 0
        assert len(run.records) == 4
        for record in run.records:
            assert record.metrics["live"]
            assert record.metrics["within"]

    def test_store_replay_is_byte_stable(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _registry_spec()
        live = execute_campaign(spec, store=store)
        replay = execute_campaign(spec, store=store)
        assert replay.executed == 0 and replay.cached == 4
        assert [r.metrics for r in live.records] == [
            r.metrics for r in replay.records
        ]

    def test_unknown_scenario_key_fails_at_plan_time(self):
        spec = _registry_spec(adversaries=("silentt",))
        with pytest.raises(UnknownScenarioError, match="did you mean"):
            spec.trials_for("quick")

    def test_topology_case_runs_overlay(self):
        spec = CampaignSpec(
            name="overlay",
            scenarios=(
                ScenarioSpec(
                    builder="cps-stress",
                    base={
                        "n": 7,
                        "u": 0.01,
                        "topology": "circulant",
                        "delay": "random",
                    },
                ),
            ),
            measurements={"*": MeasurementSpec(pulses=3, warmup=1)},
        )
        run = execute_campaign(spec)
        assert run.failed == 0
        (record,) = run.records
        assert record.metrics["d_eff"] > 1.0  # multi-hop overlay
        assert record.metrics["live"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestScenariosCli:
    def test_list_shows_all_kinds_and_count(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for key in ("coordinated-offset", "eclipse", "small-world",
                    "staggered"):
            assert key in out
        assert f"{len(scenarios.REGISTRY)} registered scenarios" in out
        assert len(scenarios.REGISTRY) >= 12

    def test_list_kind_filter(self, capsys):
        assert main(["scenarios", "list", "--kind", "topology"]) == 0
        out = capsys.readouterr().out
        assert "small-world" in out
        assert "eclipse" not in out

    def test_show_renders_metadata(self, capsys):
        assert main(["scenarios", "show", "eclipse"]) == 0
        out = capsys.readouterr().out
        assert "delay:eclipse" in out
        assert "victims=None" in out
        assert "paper" in out

    def test_show_ambiguous_key_requires_kind(self, capsys):
        with pytest.raises(SystemExit, match="ambiguous"):
            main(["scenarios", "show", "random"])
        assert main(
            ["scenarios", "show", "random", "--kind", "drift"]
        ) == 0
        assert "drift:random" in capsys.readouterr().out

    def test_show_unknown_key_exits_with_hint(self):
        with pytest.raises(SystemExit, match="did you mean"):
            main(["scenarios", "show", "delay:eclipsee"])

    def test_show_unknown_bare_key_also_hints(self):
        with pytest.raises(SystemExit, match="coordinated-offset"):
            main(["scenarios", "show", "cordinated-offset"])

    def test_run_stress_experiment_renders_table(self, capsys):
        assert main(["run", "STRESS"]) == 0
        out = capsys.readouterr().out
        assert "registry-driven scenarios" in out


# ----------------------------------------------------------------------
# Schema conformance: declared ParamSpecs match factory signatures
# ----------------------------------------------------------------------

#: Positional context each kind's factories receive (the registry
#: docstring's conventions); ``fuzz`` entries exist only after explicit
#: promotion, so the import-time catalog has none to instantiate.
KIND_CONTEXT = {
    "adversary": (PARAMS,),
    "delay": (PARAMS.n,),
    "topology": (8,),
    "drift": (PARAMS, 0),
    "churn": (PARAMS,),
    "fuzz": (None,),
}


class TestSchemaConformance:
    @pytest.mark.parametrize(
        "qualified", [e.qualified for e in scenarios.entries()]
    )
    def test_declared_params_match_factory_signature(self, qualified):
        """Every ParamSpec names a real factory keyword, and explicit
        keyword defaults agree with the declared default."""
        kind, _, key = qualified.partition(":")
        entry = scenarios.get(kind, key)
        signature = inspect.signature(entry.factory)
        accepts_kwargs = any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in signature.parameters.values()
        )
        for spec in entry.params:
            parameter = signature.parameters.get(spec.name)
            assert parameter is not None or accepts_kwargs, (
                f"{qualified}: declared param {spec.name!r} is not a "
                f"factory keyword"
            )
            if (
                parameter is not None
                and parameter.default is not inspect.Parameter.empty
            ):
                assert parameter.default == spec.default, (
                    f"{qualified}: {spec.name} default drifted "
                    f"({parameter.default!r} != declared "
                    f"{spec.default!r})"
                )

    @pytest.mark.parametrize(
        "qualified", [e.qualified for e in scenarios.entries()]
    )
    def test_every_entry_instantiates_with_defaults(self, qualified):
        """Each factory accepts its kind's positional context with no
        overrides — the catalog's documented defaults actually build."""
        kind, _, key = qualified.partition(":")
        produced = scenarios.create(kind, key, *KIND_CONTEXT[kind])
        assert produced is not None

    @pytest.mark.parametrize(
        "qualified", [e.qualified for e in scenarios.entries()]
    )
    def test_catalog_metadata_is_complete(self, qualified):
        kind, _, key = qualified.partition(":")
        entry = scenarios.get(kind, key)
        assert entry.description, qualified
        assert entry.kind == kind and entry.key == key
        names = [spec.name for spec in entry.params]
        assert len(set(names)) == len(names), qualified
