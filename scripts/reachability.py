#!/usr/bin/env python3
"""Which functions under src/repro does nothing people run enter?

Runs DRIVERS (what people and CI run, *without* the unit tests) under a
``sys.setprofile`` hook loaded from a ``sitecustomize`` directory on
PYTHONPATH — so CLI children, pool and queue workers are traced too —
and prints every function definition never entered.  ``--check`` exits
1 on an unreached definition that is neither named in
``scripts/reachability_keep.txt`` (``qualified.name<TAB>reason``) nor
referenced from a reached module (function-level tracing misses error
paths).  ``--lines`` swaps the hook for ``sys.settrace`` and prints, per
module, the executable lines never run, split into lines of a ``raise``
statement, ``except`` clauses, ``__repr__``/``describe`` bodies and the
rest (what a function-level sweep cannot see: dead branches), then each
line of the rest as ``path:line  source``; it gates nothing.  Stdlib
only; about four minutes, six with ``--lines``.
"""

import argparse
import ast
import glob
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KEEP = ROOT / "scripts" / "reachability_keep.txt"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

HOOK = """\
import os, sys, threading
_log = open(os.path.join(os.environ["REACH_OUT"], "%d.log" % os.getpid()),
            "a", buffering=1)
_src, _seen = os.environ["REACH_SRC"], set()
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_src):
            _log.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))
sys.setprofile(_hook)
threading.setprofile(_hook)
"""

# Line mode.  Each code object keeps the set of its lines not yet run; a
# line is logged the first time it runs and a code object whose lines
# have all run is no longer traced, so hot loops pay only while they
# still have something to report.  A function's first line carries no
# line event (it is the ``def`` that ran in the enclosing scope).
LINE_HOOK = """\
import os, sys, threading
_log = open(os.path.join(os.environ["REACH_OUT"], "%d.log" % os.getpid()),
            "a", buffering=1)
_src, _left = os.environ["REACH_SRC"], {}
def _local(frame, event, arg):
    if event == "line":
        code = frame.f_code
        left = _left[code]
        if frame.f_lineno in left:
            left.discard(frame.f_lineno)
            _log.write("%s:%d\\n" % (code.co_filename, frame.f_lineno))
            if not left:
                return None
    return _local
def _hook(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_src):
        return None
    left = _left.get(code)
    if left is None:
        left = _left[code] = {n for _a, _b, n in code.co_lines() if n}
        left.discard(code.co_firstlineno)
        _log.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))
    return _local if left else None
sys.settrace(_hook)
threading.settrace(_hook)
"""

# One argv per line: "repro" is ``python -m repro``, {tmp} a scratch
# directory, a glob token fans the line out per match.
DRIVERS = """
repro list
repro params --theta 1.001 --d 1.0 --u 0.01 --n 8
repro params --theta 1.001 --d 1.0 --u 0.01 --n 8 --T 3.0
repro run E4
repro all --scale quick --out {tmp}/csv
repro campaign list
repro campaign show STRESS
repro scenarios list
repro scenarios show flapping-node
repro check list
repro check run eclipse --kind delay
repro check matrix --out {tmp}/conformance.json
repro check matrix --backend vectorized --kind delay --kind drift --out ""
repro check fixture
repro check fixture --fixture results/fuzz/corpus/*.json
repro check fixture --fixture results/fuzz/promoted/*.json
repro ablate plan
repro ablate run --tier quick --workers 2 --out {tmp}/ablation.json
repro ablate run --tier quick --out {tmp}/serial.json
repro ablate run --tier quick --pairwise --out {tmp}/p.json
repro ablate report --path {tmp}/ablation.json
repro fuzz run --strategy valid --budget 25 --out {tmp}/fuzz
repro fuzz run --strategy known-bad --budget 25 --out {tmp}/fuzz
repro fuzz run --strategy churn --budget 25 --out {tmp}/fuzz
repro check fixture --fixture {tmp}/fuzz/*.json
repro campaign run STRESS --workers 2 --store {tmp}/s --perf \
    --telemetry --progress
repro campaign run STRESS --backend event --csv {tmp}/s.csv
repro campaign enqueue STRESS --queue {tmp}/q --store {tmp}/qs
repro campaign worker --queue {tmp}/q --store {tmp}/qs
repro store list --store {tmp}/qs
repro store merge --store {tmp}/qs
repro store compact --store {tmp}/qs
repro campaign run CHURN-STRESS
repro campaign run E9-SCALE
repro campaign run FUZZ
repro telemetry list
repro telemetry show STRESS --store {tmp}/s --metric pulses.recorded
repro telemetry aggregate --store {tmp}/s
repro telemetry diff STRESS STRESS --store {tmp}/s
python -m bench --workload campaign-overhead --seed 0 --seconds 6 --trace 0 \
    --out {tmp}/bench
repro perf list
repro perf compare --current {tmp}/bench
repro perf baseline --current {tmp}/bench --out {tmp}/h.jsonl
repro perf overhead
python examples/*.py
python benchmarks/generate_experiments_md.py
python benchmarks/generate_ablations_md.py
python benchmarks/generate_perf_history_md.py
python -m bench --workload event-stress --seconds 2
python -m bench --workload event-judged --seconds 2
python -m bench --workload vector-scale --seconds 2
python -m bench --workload campaign-overhead --seconds 2
python -m bench --workload cli-coldstart --seconds 2
"""


def commands(tmp):
    """DRIVERS as argv lists; a glob is expanded when its line is reached,
    so it can match what an earlier line wrote under {tmp}."""
    for line in DRIVERS.strip().splitlines():
        head, *rest = shlex.split(line.replace("{tmp}", tmp))
        module = ["-m", "repro"] if head == "repro" else []
        argv = [sys.executable, *module, *rest]
        star = next((i for i, part in enumerate(argv) if "*" in part), None)
        if star is None:
            yield argv
            continue
        for match in sorted(glob.glob(argv[star], root_dir=ROOT)):
            yield [*argv[:star], match, *argv[star + 1 :]]


def definitions(tree, prefix):
    """(qualified name, first line) of every def in a module's AST."""
    for child in ast.iter_child_nodes(tree):
        name = f"{prefix}.{getattr(child, 'name', '')}"
        if isinstance(child, DEFS):
            decorators = [d.lineno for d in child.decorator_list]
            yield name, min([child.lineno, *decorators])
        scoped = isinstance(child, (*DEFS, ast.ClassDef))
        yield from definitions(child, name if scoped else prefix)


def code_lines(code):
    """Every line some instruction of ``code`` or a nested code object
    is attributed to."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def line_kinds(tree):
    """line -> "raise" | "except" | "repr" for the lines of ``raise``
    statements, ``except`` clauses and ``__repr__``/``describe`` bodies
    (the first that applies); every other line is "other"."""
    kinds = {}
    for kind, wanted in (
        ("repr", lambda node: isinstance(node, DEFS)
            and node.name in ("__repr__", "describe")),
        ("except", lambda node: isinstance(node, ast.ExceptHandler)),
        ("raise", lambda node: isinstance(node, ast.Raise)),
    ):
        for node in filter(wanted, ast.walk(tree)):
            for line in range(node.lineno, node.end_lineno + 1):
                kinds[line] = kind
    return kinds


def report_lines(entered) -> None:
    """Per module: executable lines, lines never run, and their split;
    then each never-run "other" line as ``path:line  source``."""
    header = ("executable", "never", "raise", "except", "repr", "other")
    print(f"{'module':<44}" + "".join(f"{name:>11}" for name in header))
    total = dict.fromkeys(header, 0)
    others = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        source = path.read_text()
        executable = code_lines(compile(source, str(path), "exec"))
        kinds = line_kinds(ast.parse(source))
        never = sorted(
            line for line in executable if f"{path}:{line}" not in entered
        )
        split = [kinds.get(line, "other") for line in never]
        text = source.splitlines()
        others += [
            f"{path.relative_to(ROOT)}:{line}  {text[line - 1].strip()}"
            for line, kind in zip(never, split)
            if kind == "other"
        ]
        row = {"executable": len(executable), "never": len(never)}
        row.update({kind: split.count(kind) for kind in header[2:]})
        for name in header:
            total[name] += row[name]
        if never:
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            print(
                f"{module:<44}"
                + "".join(f"{row[name]:>11}" for name in header)
            )
    print(f"{'total':<44}" + "".join(f"{total[n]:>11}" for n in header))
    print()
    print(*others, sep="\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument(
        "--lines", action="store_true",
        help="report never-run lines per module instead of definitions",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(
            LINE_HOOK if args.lines else HOOK
        )
        env = {
            **os.environ,
            "REACH_OUT": str(out),
            "REACH_SRC": str(SRC / "repro"),
            "PYTHONPATH": os.pathsep.join([tmp, str(SRC)]),
        }
        for argv in commands(tmp):
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
            print(f"[exit {done.returncode}]", *argv[1:], file=sys.stderr)
        entered = {
            line
            for log in out.glob("*.log")
            for line in log.read_text().splitlines()
        }
    if args.lines:
        report_lines(entered)
        return 0
    keep = {line.split("\t")[0] for line in KEEP.read_text().splitlines()}
    unreached, mentioned = [], set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        unreached += [
            name
            for name, first in definitions(tree, module)
            if f"{path}:{first}" not in entered
        ]
        if any(entry.startswith(f"{path}:") for entry in entered):
            # A reached module: what it mentions excuses its error paths.
            mentioned |= {
                getattr(node, "id", getattr(node, "attr", None))
                for node in ast.walk(tree)
            }
    unexplained = 0
    for name in unreached:
        referenced = name.rsplit(".", 1)[1] in mentioned
        label = "keep" if name in keep else "used" if referenced else "DEAD"
        unexplained += label == "DEAD"
        print(label, name)
    print(
        f"{len(unreached)} definitions never entered, "
        f"{unexplained} neither kept nor referenced",
        file=sys.stderr,
    )
    return 1 if args.check and unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
