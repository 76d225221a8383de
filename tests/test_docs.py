"""Tier-1 documentation checks: run scripts/check_docs.py's suite.

Keeps README/DESIGN present, every relative markdown link resolving,
and the README environment-knob table in sync with ``grep REPRO_`` over
``src/`` — so a new knob (or a renamed one) fails the build until it is
documented.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "scripts" / "check_docs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_docs_healthy():
    mod = _load_check_docs()
    assert mod.run_all(REPO) == []


def test_known_knobs_are_documented():
    mod = _load_check_docs()
    table = mod.knobs_in_readme_table(REPO)
    # The knobs this repo has shipped so far; additions belong in both
    # the source and the README table (check_docs enforces the sync).
    for knob in ("REPRO_REFERENCE_KERNELS", "REPRO_NO_RESULT_CACHE",
                 "REPRO_CACHE_DIR", "REPRO_RESULTS_DIR",
                 "REPRO_PACKED_WEIGHTS", "REPRO_BENCH_REGRESSION"):
        assert knob in table, f"{knob} missing from README env-knob table"


def test_knob_family_prefix_is_not_a_knob(tmp_path):
    mod = _load_check_docs()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        '"""Reads the ``REPRO_FAULT_*`` knobs, e.g. REPRO_FAULT_SEED."""\n'
        'PREFIX = "REPRO_FAULT_"\n')
    assert mod.knobs_in_source(tmp_path) == {"REPRO_FAULT_SEED"}


def test_check_docs_detects_dangling_link(tmp_path):
    mod = _load_check_docs()
    (tmp_path / "src").mkdir()
    for name in mod.REQUIRED_DOCS:
        (tmp_path / name).write_text("see [here](missing.md)\n")
    problems = mod.run_all(tmp_path)
    assert any("dangling link" in p for p in problems)
