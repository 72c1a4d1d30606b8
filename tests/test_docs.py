"""The docs tree stays truthful: links resolve, doctests run.

Runs ``tools/check_docs.py`` and doctests every ``docs/*.md`` page
in-process, so a broken doc link or a stale doctest number fails the
tier-1 run.
"""

from __future__ import annotations

import doctest
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

EXPECTED_PAGES = {"architecture.md", "pipeline.md", "cli.md"}


def test_docs_tree_exists():
    assert {path.name for path in DOCS_DIR.glob("*.md")} >= \
        EXPECTED_PAGES


def test_internal_links_resolve():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or result.stdout


@pytest.mark.parametrize(
    "page", sorted(path.name for path in DOCS_DIR.glob("*.md")))
def test_doc_examples_execute(page):
    """``python -m doctest`` must pass on every docs page (pages
    without ``>>>`` examples vacuously pass with zero tests)."""
    results = doctest.testfile(str(DOCS_DIR / page),
                               module_relative=False, verbose=False)
    assert results.failed == 0, f"{page}: {results.failed} failures"


def test_architecture_page_names_every_layer():
    text = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
    for package in ("repro.lang", "repro.cdfg", "repro.transforms",
                    "repro.core", "repro.arch", "repro.multitile",
                    "repro.eval", "repro.dse"):
        assert package in text, f"architecture.md misses {package}"
    assert "mermaid" in text


def test_cli_page_documents_the_tiles_flags():
    text = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
    for flag in ("--tiles", "--topology", "--hop-latency",
                 "--hop-energy", "--link-bandwidth", "--topologies"):
        assert flag in text, f"cli.md misses {flag}"
