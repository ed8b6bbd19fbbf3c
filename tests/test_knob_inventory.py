"""Every ``REPRO_*`` knob that ``src/`` reads has a row in a docs knob table,
and every documented row names a knob that ``src/`` still reads.

A knob table row is a markdown table line whose first cell is the knob's
name in backticks (``| `REPRO_CACHE_DIR` | ...``).  Family wildcards such
as ``REPRO_RETRY_*`` in prose are not knob names.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KNOB_NAME = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9](?![A-Z0-9_*])")
DOC_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", re.MULTILINE)


def source_knobs() -> set:
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in KNOB_NAME.findall(path.read_text(encoding="utf-8"))
    }


def documented_knobs() -> set:
    return {
        name
        for path in (ROOT / "docs").glob("*.md")
        for name in DOC_ROW.findall(path.read_text(encoding="utf-8"))
    }


def test_every_source_knob_is_documented():
    assert sorted(source_knobs() - documented_knobs()) == []


def test_every_documented_knob_is_read_by_source():
    assert sorted(documented_knobs() - source_knobs()) == []


def test_knob_count():
    assert len(source_knobs()) == 14
