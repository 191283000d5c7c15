"""Import hygiene: a command imports its own subsystem and nothing else.

Each case starts a fresh interpreter (``sys.modules`` of the test
process says nothing about cold start), runs ``python -m repro ...``
in it and reads back the child's ``sys.modules``.  (``-X importtime``
would miss the group modules: it does not see ``importlib.import_module``.)
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: ``python -m repro ARGS`` followed by a dump of ``sys.modules``.
_DRIVER = """
import json, runpy, sys
sys.argv[0] = "repro"
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exit_:
    assert not exit_.code, exit_.code
finally:
    print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""

GRAPH_AND_NUMERIC = ("networkx", "numpy", "hypothesis")
ENGINE = (
    "multiprocessing", "concurrent.futures", "repro.sim.scheduler",
    "repro.campaigns",
)


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )


def _repro(*argv):
    """``(stdout, imported module names)`` of one cold ``repro`` run."""
    done = _python("-c", _DRIVER, *argv)
    assert done.returncode == 0, done.stderr[-2000:]
    imported = set(json.loads(done.stderr.splitlines()[-1]))
    assert "repro.cli" in imported
    return done.stdout, imported


def _loaded(imported, names):
    return sorted(
        module for module in imported
        if any(module == n or module.startswith(n + ".") for n in names)
    )


class TestColdStartImports:
    def test_help_is_answered_from_the_table_alone(self):
        out, imported = _repro("--help")
        for command in ("campaign", "scenarios", "check", "ablate", "perf"):
            assert command in out
        assert _loaded(imported, GRAPH_AND_NUMERIC + ENGINE) == []

    def test_version_loads_the_root_and_the_cli_only(self):
        out, imported = _repro("--version")
        assert out == f"repro {repro.__version__}\n"
        assert _loaded(imported, GRAPH_AND_NUMERIC + ENGINE) == []
        assert _loaded(imported, ("repro",)) == ["repro", "repro.cli"]

    @pytest.mark.parametrize(
        "argv",
        [("scenarios", "list"), ("check", "list"), ("campaign", "list")],
        ids=" ".join,
    )
    def test_listings_load_no_graph_or_numeric_library(self, argv):
        _out, imported = _repro(*argv)
        assert _loaded(imported, GRAPH_AND_NUMERIC) == []

    def test_a_command_imports_only_its_own_group(self):
        _out, imported = _repro("scenarios", "list")
        assert _loaded(imported, ("repro.cli",)) == [
            "repro.cli", "repro.cli.scenarios", "repro.cli.shared",
        ]
        assert _loaded(imported, ("repro.campaigns",)) == []

    def test_the_perf_gate_reads_files_and_runs_nothing(self):
        # ``perf list`` reads results/perf_history.jsonl of the cwd.
        out, imported = _repro("perf", "list")
        assert "| workload | # | date |" in out
        assert _loaded(imported, GRAPH_AND_NUMERIC + ENGINE) == []
        assert _loaded(imported, ("repro",)) == [
            "repro", "repro.cli", "repro.cli.perf", "repro.perf",
            "repro.perf.history",
        ]


class TestLazyPackageRoot:
    def test_import_repro_executes_no_engine_module(self):
        done = _python(
            "-c",
            "import sys, repro\n"
            "assert 'repro.build' not in sys.modules\n"
            "assert [m for m in sys.modules if m.startswith('repro')]"
            " == ['repro']\n"
            "for name in repro.__all__:\n"
            "    assert getattr(repro, name) is not None, name\n"
            "assert 'repro.build' in sys.modules\n",
        )
        assert done.returncode == 0, done.stderr

    def test_dir_and_star_import_cover_all(self):
        assert set(dir(repro)) >= set(repro.__all__)
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["build_simulation"] is repro.build_simulation

    def test_unknown_attribute_names_itself(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope
