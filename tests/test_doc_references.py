"""Cross-references in prose point at something that exists.

Two kinds are checked, wherever the docs, the README, the package and
the doc generators make them:

* a quoted section, ``docs/<NAME>.md, "<Section>"`` (comma and
  backticks optional, line breaks and ``#`` comment leaders allowed
  inside), must name a heading or a bold paragraph lead of that file;
* ``results/perf_history.jsonl`` line N (or lines N and M) must name a
  line the tracked history has.
"""

import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCES = sorted(
    glob.glob(os.path.join(ROOT, "docs", "*.md"))
    + [os.path.join(ROOT, "README.md")]
    + glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
    + glob.glob(os.path.join(ROOT, "benchmarks", "*.py"))
)

SECTION_REF = re.compile(r'docs/([A-Z_]+\.md)`?,? "([^"]+)"')
HISTORY_REF = re.compile(
    r"results/perf_history\.jsonl`? lines? (\d+(?:(?:, | and )\d+)*)"
)
HEADING = re.compile(r"^#+\s+(.+?)\s*$", re.M)
BOLD_LEAD = re.compile(r"^\s*(?:[-*]\s+|\d+\.\s+)?\*\*(.+?)\*\*", re.M)


def _prose(path):
    """The file's text with comment leaders and line breaks folded to
    single spaces, so a reference may wrap."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".py"):
        text = re.sub(r"\n\s*#:?\s?", " ", text)
    return re.sub(r"\s+", " ", text)


def _sections(document):
    with open(os.path.join(ROOT, "docs", document), encoding="utf-8") as f:
        text = f.read()
    leads = HEADING.findall(text) + BOLD_LEAD.findall(text)
    return {lead.rstrip(".:") for lead in leads}


def _references(pattern):
    return [
        (os.path.relpath(path, ROOT), match)
        for path in SOURCES
        for match in pattern.finditer(_prose(path))
    ]


SECTION_REFS = _references(SECTION_REF)


def test_the_scan_finds_references():
    assert len(SECTION_REFS) >= 10
    assert _references(HISTORY_REF)


@pytest.mark.parametrize(
    "source, document, section",
    [(source, *match.groups()) for source, match in SECTION_REFS],
)
def test_quoted_section_exists(source, document, section):
    assert section in _sections(document), (
        f'{source} cites docs/{document}, "{section}": no such heading '
        "or bold lead"
    )


def test_history_lines_exist():
    path = os.path.join(ROOT, "results", "perf_history.jsonl")
    with open(path, encoding="utf-8") as handle:
        length = sum(1 for _ in handle)
    for source, match in _references(HISTORY_REF):
        for line in map(int, re.findall(r"\d+", match.group(1))):
            assert 1 <= line <= length, (
                f"{source} cites results/perf_history.jsonl line {line}; "
                f"the history has {length}"
            )
