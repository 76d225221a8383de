"""Documentation consistency checks (wired into tier-1 via tests/test_docs.py).

Three guarantees, so the docs cannot silently rot:

1. the entry-point documents exist (README.md, DESIGN.md, EXPERIMENTS.md,
   ROADMAP.md) — EXPERIMENTS.md once linked a DESIGN.md that did not;
2. every *relative* markdown link in the root documents resolves to a
   real file or directory;
3. the README's environment-knob table stays in sync with the source:
   every ``REPRO_*`` name used under ``src/`` or ``scripts/`` appears in
   the table (the ``REPRO_SERVER_*`` serving knobs included), and every table
   entry appears somewhere in ``src/``, ``scripts/``, ``benchmarks/``,
   ``tests/`` or ``examples/``.

Run:  python scripts/check_docs.py   (exit 1 + a report on any problem)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

REQUIRED_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")

#: Root documents whose links are validated.
LINKED_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
               "PAPER.md", "CHANGES.md")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A knob name ends in a letter or digit: a trailing ``_`` marks a
#: family prefix (``REPRO_FAULT_*``), not a knob.
_KNOB_RE = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")

#: Where knob *definitions/uses* may legitimately live.
KNOB_SOURCE_DIRS = ("src", "scripts", "benchmarks", "tests", "examples")


def check_required_docs(repo: Path = REPO) -> list[str]:
    """Problem strings for missing entry-point documents."""
    return [f"missing required document: {name}"
            for name in REQUIRED_DOCS if not (repo / name).is_file()]


def check_markdown_links(repo: Path = REPO) -> list[str]:
    """Problem strings for relative links that do not resolve."""
    problems = []
    for name in LINKED_DOCS:
        doc = repo / name
        if not doc.is_file():
            continue
        for target in _LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (repo / path).exists():
                problems.append(f"{name}: dangling link -> {target}")
    return problems


def knobs_in_source(repo: Path = REPO) -> set[str]:
    """Every REPRO_* name referenced under src/ or scripts/ (code is
    ground truth — scripts included, so a bench-only knob like a
    benchmark arm switch cannot dodge the README table)."""
    found = set()
    checker = Path(__file__).resolve()
    for d in ("src", "scripts"):
        for path in (repo / d).rglob("*.py"):
            if path.resolve() == checker:
                # This file's own docstring names knob *prefixes*
                # (REPRO_SERVER_*), not knob uses.
                continue
            found.update(_KNOB_RE.findall(path.read_text()))
    return found


def knobs_in_readme_table(repo: Path = REPO) -> set[str]:
    """REPRO_* names documented in README's environment-knob table rows."""
    readme = repo / "README.md"
    if not readme.is_file():
        return set()
    found = set()
    for line in readme.read_text().splitlines():
        if line.startswith("|"):
            found.update(_KNOB_RE.findall(line))
    return found


def check_env_knob_table(repo: Path = REPO) -> list[str]:
    """Problem strings for README-table/source drift, both directions."""
    problems = []
    in_src = knobs_in_source(repo)
    in_table = knobs_in_readme_table(repo)
    for knob in sorted(in_src - in_table):
        problems.append(f"README.md env-knob table is missing {knob} "
                        f"(referenced under src/ or scripts/)")
    referenced = set()
    for d in KNOB_SOURCE_DIRS:
        for path in (repo / d).rglob("*.py"):
            referenced.update(_KNOB_RE.findall(path.read_text()))
    for knob in sorted(in_table - referenced):
        problems.append(f"README.md env-knob table documents {knob}, "
                        f"which nothing in {'/'.join(KNOB_SOURCE_DIRS)} uses")
    return problems


def run_all(repo: Path = REPO) -> list[str]:
    """All doc problems (empty list == healthy)."""
    return (check_required_docs(repo) + check_markdown_links(repo)
            + check_env_knob_table(repo))


def main() -> int:
    problems = run_all()
    if problems:
        print("documentation problems:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("docs OK: required files present, links resolve, "
          "env-knob table in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
