"""The CLI's observable surface, pinned before ``cli.py`` was split.

``tests/data/cli_help.json`` holds ``format_help()`` of the top-level
parser and of every group/subcommand parser, captured at 80 columns
from the single-module CLI; since then the top-level entry has gained
the ``--version`` flag and a reworded ``perf`` line, and ``campaign
run`` / ``ablate run`` have lost the adaptive-sampling, ``--profile``
and ``--resume`` flags, then ``--timeout``, then ``--fresh`` and
``--chunk-size``, ``ablate run`` its ``--check``, and ``fuzz`` every
subcommand but ``run`` (regenerate with ``python
tests/test_cli_parity.py``, only when a flag or help string changes on
purpose, and read the fixture's diff).  argparse's layout varies
between Python minors, so the byte comparison runs on the minor the
fixture was captured with; the set of parsers is compared everywhere.
"""

import argparse
import json
import os
import sys
import unittest.mock as mock

import pytest

import repro.cli as cli

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cli_help.json")

COMMANDS = (
    "list", "run", "all", "params", "campaign", "store", "scenarios",
    "ablate", "check", "fuzz", "perf", "telemetry",
)


def _parsers(parser):
    """``parser`` and every parser below it, keyed by ``prog``."""
    found = {parser.prog: parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                found.update(_parsers(child))
    return found


def _help_texts():
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return {
            prog: parser.format_help()
            for prog, parser in _parsers(cli.build_parser()).items()
        }


def _fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


class TestHelpParity:
    def test_every_parser_is_still_there(self):
        assert sorted(_help_texts()) == sorted(_fixture()["help"])

    def test_help_text_is_byte_identical(self):
        fixture = _fixture()
        if fixture["python"] != list(sys.version_info[:2]):
            pytest.skip(
                "help layout captured on Python "
                + ".".join(map(str, fixture["python"]))
            )
        texts = _help_texts()
        for prog, expected in fixture["help"].items():
            assert texts[prog] == expected, prog


class TestUnknownCommand:
    def test_argparse_error_lists_all_twelve_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        choices = ", ".join(repr(name) for name in COMMANDS)
        assert (
            f"argument command: invalid choice: 'bogus' "
            f"(choose from {choices})"
        ) in err


def _clean_exit_cases():
    from repro.build import UnknownBackendError, UnknownComponentError
    from repro.dynamics import MalformedScheduleError
    from repro.scenarios import UnknownScenarioError

    return [
        # KeyError would repr() its message; main() unwraps it.
        (UnknownScenarioError("unknown delay scenario 'x'"),
         "unknown delay scenario 'x'"),
        (UnknownBackendError("unknown backend 'x'"),
         "unknown backend 'x'"),
        (UnknownComponentError("unknown ablation component 'x'"),
         "unknown ablation component 'x'"),
        (MalformedScheduleError("node 9 outside 0..5"),
         "malformed fault schedule: node 9 outside 0..5"),
    ]


def _main_with_failing_handler(error):
    """``main(["check", "list"])`` with the handler raising ``error``."""

    def handler(_args):
        raise error

    args = cli.build_parser().parse_args(["check", "list"])
    args.handler = handler
    with mock.patch.object(cli, "build_parser") as fake_parser:
        fake_parser.return_value.parse_args.return_value = args
        return cli.main(["check", "list"])


class TestCleanExits:
    @pytest.mark.parametrize(
        "error,message",
        _clean_exit_cases(),
        ids=[type(error).__name__ for error, _ in _clean_exit_cases()],
    )
    def test_one_line_exit_with_the_exact_message(self, error, message):
        with pytest.raises(SystemExit) as excinfo:
            _main_with_failing_handler(error)
        assert excinfo.value.code == message

    def test_other_errors_are_not_swallowed(self):
        with pytest.raises(RuntimeError, match="a bug"):
            _main_with_failing_handler(RuntimeError("a bug, not a typo"))

    def test_real_typos_reach_the_clean_exit(self):
        with pytest.raises(SystemExit, match="did you mean 'event'"):
            cli.main(["check", "run", "silent", "--backend", "evnt"])
        with pytest.raises(SystemExit, match="did you mean 'signatures'"):
            cli.main(["ablate", "plan", "--component", "signaturez"])
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scenarios", "show", "adversary:eclipze"])
        assert str(excinfo.value.code).startswith(
            "unknown adversary scenario 'eclipze' (registered: ["
        )


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(
            {"python": list(sys.version_info[:2]), "help": _help_texts()},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
