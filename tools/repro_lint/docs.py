"""Markdown docs checking, unified under the ``repro-lint`` CLI.

Every relative link/image target in README.md, CHANGES.md and
``docs/**/*.md`` must resolve on disk.  External (``http(s)://``,
``mailto:``) and pure-anchor targets are skipped; anchor suffixes on
relative targets are ignored for the existence check.  Fenced code blocks
and inline code spans are not linted.

Findings carry code :data:`DOCS_BROKEN_LINK_CODE` so ``--json`` output is
uniform with the python rules.  Run it with
``python -m tools.repro_lint --docs``.
"""

from __future__ import annotations

import re
from pathlib import Path

from tools.repro_lint.framework import Finding

__all__ = ["DOCS_BROKEN_LINK_CODE", "check_docs", "doc_files"]

DOCS_BROKEN_LINK_CODE = "RPR900"
DOCS_RULE_NAME = "docs-broken-link"

# Inline markdown link/image: [text](target) -- stops at whitespace or a
# closing parenthesis inside the target, which is enough for these docs.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_INLINE_CODE_RE = re.compile(r"`[^`]*`")
_FENCE_RE = re.compile(r"^\s*(```|~~~)")

_SKIP_PREFIXES = ("http://", "https://", "mailto:")


def doc_files(root: Path) -> list[Path]:
    """The markdown set the repo lints: README, CHANGES, docs/**/*.md."""
    files = [root / "README.md", root / "CHANGES.md"]
    files.extend(sorted((root / "docs").glob("**/*.md")))
    return [path for path in files if path.is_file()]


def _check_file(doc: Path, root: Path) -> list[Finding]:
    findings: list[Finding] = []
    rel = doc.relative_to(root).as_posix()
    in_fence = False
    for lineno, line in enumerate(
        doc.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        stripped = _INLINE_CODE_RE.sub("", line)
        for match in _LINK_RE.finditer(stripped):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            if not (doc.parent / path_part).resolve().exists():
                findings.append(
                    Finding(
                        code=DOCS_BROKEN_LINK_CODE,
                        rule=DOCS_RULE_NAME,
                        message=f"broken link -> {target}",
                        path=rel,
                        line=lineno,
                        col=match.start(),
                    )
                )
    return findings


def check_docs(root: Path) -> tuple[list[Finding], int]:
    """Lint every tracked markdown file under ``root``.

    Returns:
        ``(findings, files_checked)``.
    """
    findings: list[Finding] = []
    docs = doc_files(root)
    for doc in docs:
        findings.extend(_check_file(doc, root))
    findings.sort(key=Finding.sort_key)
    return findings, len(docs)
