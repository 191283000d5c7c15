"""Benchmark every paper-claim experiment plus the STRESS campaign.

Each case regenerates one table through the campaign engine (see
docs/EXPERIMENTS.md), requires every trial to complete, and asserts
the table's headline claim on the freshly measured data.
``REPRO_BENCH_SCALE=full|stress`` widens the grids.
"""

import pytest
from conftest import bench_campaign


def _stress_claim(t):
    # Every live run stays within its derived bound S (topology rows
    # are judged against the *overlay* bound), and some run is live.
    live = t.column("live")
    return any(live) and all(
        w for w, alive in zip(t.column("within"), live) if alive
    )


#: id -> the headline claim its table must exhibit.
CLAIMS = {
    "E1": lambda t: all(t.column("halved every iter")),
    "E2": lambda t: all(t.column("validity ok"))
    and all(t.column("consistency ok")),
    "E3": lambda t: all(t.column("within (L12)"))
    and all(t.column("within (L13)")),
    "E4": lambda t: all(t.column("within")) and all(t.column("live")),
    "E5": lambda t: any(not w for w in t.column("steady within")),
    "E6": lambda t: len(t.rows) >= 8,
    "E7": lambda t: all(t.column(">= bound"))
    and all(t.column("well-defined")),
    "E8": lambda t: t.rows[0][4] and not t.rows[-1][4],
    "E9": lambda t: all(t.column("within")),
    "E10": lambda t: min(t.column("skew")) < t.column("skew")[0],
    "A1": lambda t: t.rows[0][5] and not t.rows[1][5],
    "A2": lambda t: t.rows[0][2] == "ok" and t.rows[1][2] != "ok",
    "A3": lambda t: t.rows[0][3] == 0 and t.rows[1][3] > 0,
    "STRESS": _stress_claim,
}


@pytest.mark.parametrize("name", CLAIMS)
def test_experiment(benchmark, capsys, name):
    run, table = bench_campaign(benchmark, capsys, name)
    assert run.failed == 0, [r.error for r in run.failures()]
    assert CLAIMS[name](table), table.render()
