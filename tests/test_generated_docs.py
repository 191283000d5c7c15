"""The generated docs are fresh: each generator rewrites its committed
document byte for byte.

``docs/EXPERIMENTS.md``, ``docs/ABLATIONS.md`` and
``docs/PERF_HISTORY.md`` are derived from the campaign specs, the
scenario registry, ``results/ablation.json`` and
``results/perf_history.jsonl``; a change to any of those without a
regenerated document fails here.  Regenerate with ``python
benchmarks/<generator>``.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")

#: ``(generator under benchmarks/, the document it writes under docs/)``
GENERATORS = [
    ("generate_experiments_md.py", "EXPERIMENTS.md"),
    ("generate_ablations_md.py", "ABLATIONS.md"),
    ("generate_perf_history_md.py", "PERF_HISTORY.md"),
]


def _generator(generator, monkeypatch):
    # The generators import their shared ``docgen`` module by name.
    monkeypatch.syspath_prepend(BENCHMARKS)
    spec = importlib.util.spec_from_file_location(
        generator[: -len(".py")], os.path.join(BENCHMARKS, generator)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("generator, document", GENERATORS)
def test_committed_document_is_fresh(generator, document, monkeypatch):
    module = _generator(generator, monkeypatch)
    path = os.path.join(ROOT, "docs", document)
    with open(path, encoding="utf-8") as handle:
        assert module.generate() == handle.read(), (
            f"docs/{document} is stale; regenerate with "
            f"'python benchmarks/{generator}'"
        )


def test_experiments_commentary_covers_every_builtin(monkeypatch):
    # docs/EXPERIMENTS.md walks the registry, so an experiment id
    # without commentary or a claim fails to generate and a stale
    # entry is dead.
    from repro.analysis import experiments
    from repro.campaigns import BUILTIN_CAMPAIGNS

    module = _generator("generate_experiments_md.py", monkeypatch)
    assert list(module.COMMENTARY) == list(BUILTIN_CAMPAIGNS)
    assert all(
        callable(getattr(experiments, f"{stem}_claim", None))
        for stem, _ in BUILTIN_CAMPAIGNS.values()
    )
