"""The event engine runs without numpy; the vectorized engine says why.

numpy is the optional ``vectorized`` extra, and only
:mod:`repro.sim.vectorized` imports it.  A fresh interpreter with
``sys.modules["numpy"] = None`` (every ``import numpy`` then fails, as
on an install without the extra) builds and runs one STRESS trial and
one conformance scenario on the event engine without numpy ever
entering ``sys.modules``; a vectorized build fails at build time with
``require_numpy``'s message.  CI's ``no-numpy`` job runs this file on
an install where numpy is absent for real.

This module imports nothing beyond the standard library and pytest.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

_DRIVER = """
import json, sys
sys.modules["numpy"] = None

from repro.build import build_simulation
from repro.campaigns import campaign_definition
from repro.campaigns.executor import run_trial
from repro.checks.conformance import check_scenario, scenario_case

plan = campaign_definition("STRESS").spec().trials_for("quick")[0]
record = run_trial(plan)
report = check_scenario("drift", "mixed")
out = {
    "stress_error": record.error,
    "stress_metrics": sorted(record.metrics),
    "conformance_ok": report.ok,
    "numpy_blocked": sys.modules["numpy"] is None,
    "numpy_modules": sorted(
        name for name in sys.modules if name.startswith("numpy.")
    ),
}
try:
    build_simulation(scenario_case("drift", "mixed"), backend="vectorized")
except Exception as exc:
    out["vectorized"] = [type(exc).__name__, str(exc)]
print(json.dumps(out))
"""


def test_event_engine_runs_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["stress_error"] is None
    assert out["stress_metrics"]
    assert out["conformance_ok"]
    assert out["numpy_blocked"]
    assert out["numpy_modules"] == []
    assert out["vectorized"] == [
        "ConfigurationError",
        "the vectorized backend needs numpy "
        "(pip install numpy, or use backend='event')",
    ]
