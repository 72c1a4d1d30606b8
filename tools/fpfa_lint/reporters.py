"""Report renderers: text for terminals, JSON for machines,
Markdown for the CI step summary."""

from __future__ import annotations

import json

from tools.fpfa_lint.core import LintRun, all_checkers


def render_text(run: LintRun) -> str:
    lines: list[str] = []
    for error in run.errors:
        lines.append(f"error: {error}")
    for finding in run.findings:
        lines.append(finding.render())
    for waiver in run.unused_waivers:
        lines.append(waiver.render())
    summary = (f"{run.files} files, {len(run.findings)} findings, "
               f"{run.suppressed} suppressed")
    if run.ok:
        lines.append(f"fpfa-lint: clean ({summary})")
    else:
        lines.append(f"fpfa-lint: FAILED ({summary}, "
                     f"{len(run.unused_waivers)} unused waivers, "
                     f"{len(run.errors)} file errors)")
    return "\n".join(lines) + "\n"


def render_json(run: LintRun) -> str:
    payload = {
        "version": 2,
        "ok": run.ok,
        "files": run.files,
        "suppressed": run.suppressed,
        "counts": run.counts(),
        "findings": [
            {"path": finding.path, "line": finding.line,
             "column": finding.column, "code": finding.code,
             "severity": finding.severity,
             "message": finding.message}
            for finding in run.findings],
        "unused_waivers": [
            {"path": waiver.path, "line": waiver.line,
             "code": waiver.code}
            for waiver in run.unused_waivers],
        "errors": run.errors,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_markdown(run: LintRun) -> str:
    lines = ["### fpfa-lint", ""]
    status = "clean ✓" if run.ok else "**FAILED**"
    lines.append(f"{status} — {run.files} files, "
                 f"{len(run.findings)} findings, "
                 f"{run.suppressed} suppressed")
    lines.append("")
    if run.findings:
        lines.append("| code | location | message |")
        lines.append("| --- | --- | --- |")
        for finding in run.findings:
            message = finding.message.replace("|", "\\|")
            lines.append(f"| {finding.code} | "
                         f"`{finding.path}:{finding.line}` | "
                         f"{message} |")
        lines.append("")
    if run.unused_waivers:
        lines.append("Unused waivers (remove them):")
        lines.append("")
        for waiver in run.unused_waivers:
            lines.append(f"- `{waiver.path}:{waiver.line}` "
                         f"disable={waiver.code}")
        lines.append("")
    if run.errors:
        lines.append("File errors:")
        lines.append("")
        for error in run.errors:
            lines.append(f"- {error}")
        lines.append("")
    return "\n".join(lines) + "\n"


def render_checker_list() -> str:
    lines = []
    for checker in all_checkers():
        lines.append(f"{checker.code} {checker.name} "
                     f"[{checker.severity}] — "
                     f"{checker.description}")
    return "\n".join(lines) + "\n"


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "markdown": render_markdown,
}
