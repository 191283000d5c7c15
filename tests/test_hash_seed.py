"""Hash-seed independence: no gated output depends on ``PYTHONHASHSEED``.

String hashes — and with them the iteration order of sets and of dicts
built from them — change with the interpreter's hash seed, so a sweep
that iterates such a container where it should sort would write a
different artifact on another machine.  Each command runs in a fresh
interpreter under two hash seeds, with every warning an error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HASH_SEEDS = (1, 77)


def _repro(hash_seed, *argv):
    """stdout of ``python -W error -m repro ARGV`` from the repo root,
    which must exit 0."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, (
        hash_seed, argv, done.stdout[-2000:], done.stderr[-2000:]
    )
    return done.stdout


def test_gated_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    committed = {}
    for name in ("conformance.json", "ablation.json"):
        with open(os.path.join(ROOT, "results", name), "rb") as handle:
            committed[name] = handle.read()
    stdout = {}
    for hash_seed in HASH_SEEDS:
        matrix = tmp_path / f"conformance-{hash_seed}.json"
        _repro(
            hash_seed, "check", "matrix", "--scale", "quick",
            "--out", str(matrix),
        )
        assert matrix.read_bytes() == committed["conformance.json"], (
            hash_seed
        )
        ablation = tmp_path / f"ablation-{hash_seed}.json"
        _repro(hash_seed, "ablate", "run", "--out", str(ablation))
        assert ablation.read_bytes() == committed["ablation.json"], (
            hash_seed
        )
        stdout[hash_seed] = (
            _repro(hash_seed, "run", "E4"),
            _repro(hash_seed, "check", "fixture"),
        )
    assert stdout[HASH_SEEDS[0]] == stdout[HASH_SEEDS[1]]
