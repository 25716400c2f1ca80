"""docs/CONFIG.md must document every directive the parser accepts.

The parser treats unknown directives as hard errors, so the set it
accepts is exactly ``known_directives()``; this test fails when a
directive lacks a reference-table row (or when the table documents a
directive the parser no longer knows — stale docs are wrong docs).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.config import known_directives, parse_config

DOC = Path(__file__).resolve().parents[2] / "docs" / "CONFIG.md"

# A table row whose first cell is a code-quoted directive name.
_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`", re.MULTILINE)


def documented_directives() -> set[str]:
    return set(_ROW_RE.findall(DOC.read_text("utf-8")))


def test_reference_exists():
    assert DOC.is_file(), "docs/CONFIG.md is the operator-facing reference"


def test_every_directive_has_a_doc_row():
    missing = known_directives() - documented_directives()
    assert not missing, (
        f"directives missing from docs/CONFIG.md: {sorted(missing)} — "
        "add a reference-table row for each"
    )


def test_no_stale_doc_rows():
    stale = documented_directives() - known_directives()
    assert not stale, (
        f"docs/CONFIG.md documents unknown directives: {sorted(stale)} — "
        "the parser rejects these, drop or fix the rows"
    )


def test_documented_defaults_parse():
    """The docstring example block stays parseable (smoke, not a diff)."""
    sample = "\n".join(
        line for line in (
            'accepted_credentials "/O=Grid/OU=People/CN=*"',
            "storage_segment_max_bytes 33554432",
            "storage_compact_ratio 0.5",
            "storage_cache_entries 1024",
            "storage_compact_interval 0",
        )
    )
    config = parse_config(sample)
    assert config.storage.segment_max_bytes == 32 * 1024 * 1024
