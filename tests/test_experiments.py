"""Every experiment's quick-scale output, and its claim.

The digests pin each table's bytes; the claims check the *scientific
statement* each table is supposed to exhibit — the predicate behind
each measured sentence of ``docs/EXPERIMENTS.md`` — at quick scale for
every id and at full scale for the eight full runs pinned here.
"""


import hashlib

import pytest

from repro.analysis.experiments import check_claim, run_experiment
from repro.campaigns import available_campaigns, campaign_definition
from repro.cli import main

# sha256[:16] of Table.render() at quick scale.  FUZZ rows depend on the
# Hypothesis version and E9-SCALE floats on numpy, so those two are run
# (and claim-checked below) but not pinned.
QUICK_TABLE_DIGESTS = {
    "E1": "c9820437b4f599d0",
    "E2": "611922195661115c",
    "E3": "5330a8563fe80957",
    "E4": "e87e1eb721204fcd",
    "E5": "c8d246614ade0267",
    "E6": "4dfde5c931930f4b",
    "E7": "5ad2feed8ec9f813",
    "E8": "c6ba7d17645be752",
    "E9": "668b936d43e76a04",
    "E10": "8ab63d95698f7cca",
    "A1": "b58a2f10afeabde9",
    "A2": "3f5782b69cf427d0",
    "A3": "efdbf15da9a075ec",
    "STRESS": "9abf3d6c619e2b16",
    "CHURN-STRESS": "3a8c5a2c3712ef30",
    "ABLATION": "1a3016b715ed6451",
}
IDS = (*QUICK_TABLE_DIGESTS, "FUZZ", "E9-SCALE")
# The order `repro all` prints them in: A-series first, E1..E10 by number.
CLI_ORDER = (
    "A1", "A2", "A3", "ABLATION", "CHURN-STRESS",
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
    "E9-SCALE", "FUZZ", "STRESS",
)
# The same digest at full scale, for tables that stay cheap there; E7's
# full scale is the only one covering all six u_tilde values, and E6's
# the only pin of the baselines' wiring at n = 13 and 17.  The CPS
# builder tables (E3, E4, E8, E9, E10) take about 2 s together, E5 and
# E6 about 0.5 s.
FULL_TABLE_DIGESTS = {
    "E3": "9dea1462ffca4db5",
    "E4": "d7cc0824dcf4fbe3",
    "E5": "c8d246614ade0267",
    "E6": "876342a0c473a88a",
    "E7": "35aebb234072976d",
    "E8": "d47a15b41f923bb2",
    "E9": "ab35b66d829b6ce6",
    "E10": "a8928fdec268437f",
}


class _Memo(dict):
    """A dict that makes a missing key's value on first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@pytest.fixture(scope="module")
def runs():
    # Each (scale, id) runs on first use, once for the module: every id
    # at quick, eight at full.  A run that raises fails only the tests
    # that read that id.
    return {
        scale: _Memo(lambda name, scale=scale: run_experiment(name, scale))
        for scale in ("quick", "full")
    }


@pytest.fixture(scope="module")
def tables(runs):
    return _Memo(
        lambda name: campaign_definition(name).tabulate(runs["quick"][name])
    )


class TestRegistry:
    def test_all_registered(self):
        assert set(available_campaigns()) == set(IDS)

    @pytest.mark.parametrize("name", IDS)
    def test_registered_literals_match_the_spec(self, name):
        # The registry carries literal names/descriptions so that
        # importing it (and `repro list`) builds no spec; they must
        # still say what the spec says.
        definition = campaign_definition(name)
        spec = definition.spec()
        assert (definition.name, definition.description) == (
            spec.name, spec.description
        )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive(self):
        assert check_claim("e2", run_experiment("e2"))

    def test_cli_all_prints_every_table(self, tables, capsys):
        # `repro all` reaches the tables through the CLI's execution
        # path; through the digests above its stdout is pinned for
        # every id but FUZZ and E9-SCALE.
        expected = "".join(
            tables[name].render() + "\n\n" for name in CLI_ORDER
        )
        assert main(["all", "--scale", "quick"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("name", QUICK_TABLE_DIGESTS)
    def test_quick_table_is_byte_stable(self, tables, name):
        rendered = tables[name].render()
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        assert digest[:16] == QUICK_TABLE_DIGESTS[name], rendered

    @pytest.mark.parametrize("name", FULL_TABLE_DIGESTS)
    def test_full_table_is_byte_stable(self, runs, name):
        run = runs["full"][name]
        rendered = campaign_definition(name).tabulate(run).render()
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        assert digest[:16] == FULL_TABLE_DIGESTS[name], rendered


@pytest.mark.parametrize(
    "scale, name",
    [("quick", name) for name in IDS]
    + [("full", name) for name in FULL_TABLE_DIGESTS],
)
def test_claim_holds(runs, scale, name):
    # The claim raises naming the id, the figure and the bound.
    assert check_claim(name, runs[scale][name])
