"""Tests for fpfa-lint (tools/fpfa_lint).

The fixture trees under ``tests/fixtures/lint/{bad,good}`` mirror
the real ``src/repro`` layout so the path-scoped rules (mapping-core
ordering, wire-field drift, stdout purity, lease-path swallows) see
the logical paths they scope by — ``lint_paths(root=...)`` remaps
them.  ``bad`` carries at least one true positive per rule family;
``good`` is the compliant mirror and must lint clean, which is the
false-positive regression net.
"""

import ast
import json
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # `python -m pytest` from elsewhere
    sys.path.insert(0, str(ROOT))

from tools.fpfa_lint import (  # noqa: E402
    Finding,
    LintFile,
    REGISTRY,
    Waiver,
    lint_paths,
)
from tools.fpfa_lint.core import (  # noqa: E402
    all_checkers,
    exception_names,
)
import tools.fpfa_lint.checkers  # noqa: E402,F401 — fill REGISTRY
from tools.fpfa_lint.reporters import (  # noqa: E402
    render_json,
    render_markdown,
    render_text,
)
from tools.fpfa_lint.__main__ import main as lint_main  # noqa: E402

BAD = ROOT / "tests" / "fixtures" / "lint" / "bad"
GOOD = ROOT / "tests" / "fixtures" / "lint" / "good"

ALL_CODES = sorted(REGISTRY)


@pytest.fixture(scope="module")
def bad_run():
    return lint_paths([BAD], root=BAD)


@pytest.fixture(scope="module")
def good_run():
    return lint_paths([GOOD], root=GOOD)


def _lint_snippet(tmp_path, source, rel="src/repro/dse/mod.py",
                  **kwargs):
    """Lint one snippet at a logical repo path under a tmp root."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path], root=tmp_path, **kwargs)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def test_registry_has_the_seven_checkers():
    assert ALL_CODES == [f"FPL00{n}" for n in range(1, 8)]


def test_checkers_have_names_and_descriptions():
    for checker in all_checkers():
        assert checker.name
        assert checker.description
        assert checker.severity in ("error", "warning")


# ---------------------------------------------------------------------------
# fixture-backed true positives / true negatives, per checker
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_tree_trips_checker(bad_run, code):
    assert code in {f.code for f in bad_run.findings}, (
        f"{code} has no true-positive fixture under {BAD}")


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_tree_passes_checker(good_run, code):
    hits = [f for f in good_run.findings if f.code == code]
    assert not hits, (
        f"{code} false-positives on the compliant mirror: "
        + "; ".join(f.render() for f in hits))


def test_bad_tree_expected_finding_set(bad_run):
    by_code = {}
    for finding in bad_run.findings:
        by_code.setdefault(finding.code, []).append(finding)
    assert len(by_code["FPL001"]) == 6   # clock, 2×random, glob,
    assert len(by_code["FPL002"]) == 3   # set-iter, listdir
    assert len(by_code["FPL003"]) == 1
    assert len(by_code["FPL004"]) == 4
    assert len(by_code["FPL005"]) == 4
    assert len(by_code["FPL006"]) == 2
    assert len(by_code["FPL007"]) == 2


def test_drifted_field_names_are_in_the_messages(bad_run):
    messages = " ".join(f.message for f in bad_run.findings
                        if f.code == "FPL005")
    for field in ("'verify-seed'", "'status'", "'payload'",
                  "'retries'"):
        assert field in messages


def test_findings_are_sorted_and_stable(bad_run):
    assert bad_run.findings == sorted(bad_run.findings)
    again = lint_paths([BAD], root=BAD)
    assert again.findings == bad_run.findings


def test_path_scoped_rules_need_the_logical_root():
    # Without the root remap the fixture files sit under tests/…,
    # so mapping-core/wire/stdout scoping does not apply.
    unmapped = lint_paths([BAD])
    codes = {f.code for f in unmapped.findings}
    assert "FPL005" not in codes
    assert "FPL006" not in codes


# ---------------------------------------------------------------------------
# suppressions and markers
# ---------------------------------------------------------------------------

SNIPPET = """
    import time


    def stamp():
        return time.time(){trailer}
"""


def test_finding_without_directive(tmp_path):
    run = _lint_snippet(tmp_path, SNIPPET.format(trailer=""))
    assert [f.code for f in run.findings] == ["FPL001"]
    assert run.suppressed == 0


def test_inline_disable_suppresses(tmp_path):
    run = _lint_snippet(tmp_path, SNIPPET.format(
        trailer="  # fpfa-lint: disable=FPL001"))
    assert not run.findings
    assert run.suppressed == 1


def test_standalone_disable_on_line_above(tmp_path):
    source = """
        import time


        def stamp():
            # fpfa-lint: disable=FPL001
            return time.time()
    """
    run = _lint_snippet(tmp_path, source)
    assert not run.findings
    assert run.suppressed == 1


def test_disable_of_other_code_does_not_suppress(tmp_path):
    run = _lint_snippet(tmp_path, SNIPPET.format(
        trailer="  # fpfa-lint: disable=FPL006"))
    assert [f.code for f in run.findings] == ["FPL001"]
    assert [w.code for w in run.unused_waivers] == ["FPL006"]


def test_wall_clock_marker_allowlists_fpl001(tmp_path):
    run = _lint_snippet(tmp_path, SNIPPET.format(
        trailer="  # fpfa-lint: wall-clock"))
    assert not run.findings
    # A marker is an allowlist annotation, not a suppression.
    assert run.suppressed == 0


def test_comma_separated_disable(tmp_path):
    source = """
        import time


        def noisy(path):
            # fpfa-lint: disable=FPL001,FPL007
            return open(path), time.time()
    """
    run = _lint_snippet(tmp_path, source)
    assert not run.findings
    assert run.suppressed == 2


# ---------------------------------------------------------------------------
# unused waivers
# ---------------------------------------------------------------------------

def test_unused_waiver_fails_the_run(tmp_path):
    source = """
        def stamp():
            return 0  # fpfa-lint: disable=FPL001
    """
    run = _lint_snippet(tmp_path, source)
    assert not run.findings
    assert run.unused_waivers == [
        Waiver("src/repro/dse/mod.py", 3, "FPL001")]
    assert not run.ok  # waivers only ever shrink
    assert "src/repro/dse/mod.py:3: unused waiver disable=FPL001" \
        in render_text(run)
    assert json.loads(render_json(run))["unused_waivers"] == [
        {"path": "src/repro/dse/mod.py", "line": 3, "code": "FPL001"}]
    assert "`src/repro/dse/mod.py:3` disable=FPL001" \
        in render_markdown(run)


def test_one_used_code_does_not_excuse_its_neighbour(tmp_path):
    run = _lint_snippet(tmp_path, SNIPPET.format(
        trailer="  # fpfa-lint: disable=FPL001,FPL007"))
    assert not run.findings and run.suppressed == 1
    assert [w.code for w in run.unused_waivers] == ["FPL007"]


def test_waiver_for_an_unselected_checker_is_not_unused(tmp_path):
    run = _lint_snippet(tmp_path, SNIPPET.format(
        trailer="  # fpfa-lint: disable=FPL001"), select=["FPL006"])
    assert run.ok
    assert not run.unused_waivers and run.suppressed == 0


def test_waiver_for_an_unknown_code_is_unused(tmp_path):
    run = _lint_snippet(tmp_path, SNIPPET.format(
        trailer="  # fpfa-lint: disable=FPL001,FPL999"))
    assert [w.code for w in run.unused_waivers] == ["FPL999"]


# ---------------------------------------------------------------------------
# the repo itself
# ---------------------------------------------------------------------------

def test_repo_lints_clean():
    """The tree must stay clean: every finding is either fixed or
    waived inline, and every waiver still silences a finding."""
    run = lint_paths([ROOT / "src", ROOT / "tools"], root=ROOT)
    problems = [f.render() for f in run.findings]
    problems += [w.render() for w in run.unused_waivers]
    problems += run.errors
    assert run.ok, "\n".join(problems)


def test_every_path_a_checker_names_exists():
    """A scope entry naming a moved or deleted file would switch its
    check off without any error."""
    from tools.fpfa_lint.checkers import (
        determinism,
        exceptions,
        no_print,
        protocol_drift,
    )
    from tools.fpfa_lint.core import Project

    paths = {*protocol_drift.SCOPED, *exceptions.SWALLOW_SCOPED,
             *no_print.ALLOWED, *determinism.ORDER_SCOPED,
             Project.PROTOCOL, Project.QUEUE}
    assert sorted(path for path in paths
                  if not (ROOT / path).exists()) == []


def _has_reason(file: LintFile, line: int) -> bool:
    """A waiver's reason is the plain comment line right above its
    directive (or above the flagged line it trails)."""
    reason = file.comment_lines().get(line - 1)
    source = file.text.splitlines()[line - 2] if line > 1 else ""
    return reason is not None and source.lstrip().startswith("#") \
        and "fpfa-lint:" not in reason


def test_repo_waivers_carry_reasons():
    waivers = []
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            file = LintFile(path, path.relative_to(ROOT).as_posix(),
                            path.read_text(encoding="utf-8"))
            for line, code in file.waivers():
                waivers.append(f"{file.rel}:{line} {code}")
                assert _has_reason(file, line), (
                    f"{file.rel}:{line}: disable={code} needs a "
                    f"reason comment on the line above")
    assert waivers, "the repo waives at least FPL002 and FPL004"


def test_service_thread_run_waiver_carries_its_reason():
    path = ROOT / "src" / "repro" / "service" / "daemon.py"
    file = LintFile(path, "src/repro/service/daemon.py",
                    path.read_text(encoding="utf-8"))
    service_thread = next(node for node in file.tree.body
                          if isinstance(node, ast.ClassDef)
                          and node.name == "ServiceThread")
    run_method = next(node for node in service_thread.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_run")
    handler = next(node for node in ast.walk(run_method)
                   if isinstance(node, ast.ExceptHandler)
                   and exception_names(node) == ["BaseException"])
    directive = handler.lineno - 1
    assert (directive, "FPL004") in file.waivers()
    assert _has_reason(file, directive)
    reason = " ".join(file.comment_lines()[line]
                      for line in range(directive - 4, directive))
    assert "self.error" in reason and "re-rais" in reason
    run = lint_paths([path], select=["FPL004"])
    assert run.ok and run.suppressed == 1


# ---------------------------------------------------------------------------
# reporters and the CLI
# ---------------------------------------------------------------------------

def test_json_report_is_machine_readable(bad_run):
    payload = json.loads(render_json(bad_run))
    assert payload["version"] == 2
    assert payload["ok"] is False
    assert payload["unused_waivers"] == []
    assert payload["files"] == 9
    assert sum(payload["counts"].values()) == \
        len(payload["findings"])
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "column", "code",
                          "severity", "message"}


def test_text_report_lines_are_clickable(bad_run):
    report = render_text(bad_run)
    assert "src/repro/dse/sweep.py:9:" in report
    assert report.rstrip().endswith("file errors)")


def test_markdown_report_renders_a_table(bad_run, good_run):
    table = render_markdown(bad_run)
    assert "| code | location | message |" in table
    assert "FPL001" in table
    assert "clean" in render_markdown(good_run)


def test_cli_list_checkers(capsys):
    assert lint_main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out


def test_cli_self_check_exits_zero(capsys):
    """`python -m tools.fpfa_lint` on the repo: the CI gate."""
    assert lint_main([]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = lint_main(["--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["ok"]


def test_cli_select_unknown_code_is_a_usage_error(capsys):
    assert lint_main(["--select", "FPL999"]) == 2
    assert "FPL999" in capsys.readouterr().err


def test_cli_select_runs_subset(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import time\nnow = time.time()\n",
                      encoding="utf-8")
    assert lint_main(["--select", "FPL006",
                      str(target)]) == 0  # FPL001 not selected
    capsys.readouterr()
    assert lint_main([str(target)]) == 1
    assert "FPL001" in capsys.readouterr().out
