#!/usr/bin/env python
"""Documentation checker: executable examples + resolvable links.

Run from the repository root (the CI docs job does)::

    PYTHONPATH=src python tools/check_docs.py

Three guarantees over ``README.md`` and every ``docs/*.md``:

1. **Code blocks work.**  Fenced ``python`` blocks containing ``>>>``
   prompts are executed through :mod:`doctest` (in a temporary working
   directory, so examples may create caches/files freely); plain
   ``python`` blocks are compiled, which catches syntax rot in
   illustrative fragments.
2. **Intra-repo links resolve.**  Every relative markdown link target
   must exist on disk; dead links fail the job.
3. **Axis-value lists are current.**  Every ``--transfer {...}`` list
   must match ``repro.exp.spec.TRANSFERS``, every ``--format {...}``
   list must match ``repro.exp.report.FORMATS``, every ``--bands
   {...}`` list must match ``repro.exp.diff.BANDS``, and every
   ``--sched {...}`` list must match
   ``repro.os.scheduler.SCHEDS`` exactly — adding a value without
   documenting it (or documenting one that does not exist) fails the
   job.
4. **The CLI flag lists are current.**  Every option the parser
   defines on the :data:`DOCUMENTED_COMMANDS` subcommands (``sweep``,
   ``record``, ``report``, ``serve``, ``worker``, ``submit``,
   ``merge``, ``history``, ``diff``) must be mentioned
   in README.md, and every inline-code flag the README mentions must
   exist on some ``repro`` subcommand — renaming or removing a flag
   without updating the docs fails the job (both directions).
5. **Every subcommand is documented.**  Each subcommand the parser
   registers must appear in README.md as ``repro <name>`` — adding a
   subcommand (``history``, …) without documenting it fails the job.

``main()`` returns the number of failing checks; the process exit
status is 1 if anything failed, else 0 (a raw count would wrap modulo
256 and could report success at exactly 256 failures).
"""

from __future__ import annotations

import doctest
import functools
import os
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import iter_option_actions  # noqa: E402  (repo import)
from repro.exp.diff import BANDS  # noqa: E402
from repro.exp.report import FORMATS  # noqa: E402
from repro.exp.spec import TRANSFERS  # noqa: E402
from repro.os.scheduler import SCHEDS  # noqa: E402

#: Markdown files the checker covers.
DOC_FILES = ["README.md", *sorted(
    str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md")
)]

#: Extra markdown that carries axis-value lists but is not end-user
#: documentation (no doctest/link guarantees): checked only for stale
#: transfer-mode lists.
AXIS_LIST_FILES = [
    str(p.relative_to(REPO_ROOT))
    for p in (REPO_ROOT / ".claude" / "skills").glob("*/SKILL.md")
]

_FENCE_RE = re.compile(
    r"^```(?P<lang>[\w+-]*)[ \t]*\n(?P<body>.*?)^```[ \t]*$",
    re.MULTILINE | re.DOTALL,
)
#: Inline markdown links [text](target); images excluded via (?<!!).
_LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
#: A documented transfer-mode list: ``--transfer {double,single,...}``
#: (possibly wrapped across a line inside a code span).
_TRANSFER_LIST_RE = re.compile(r"--transfer[ \t]*\n?[ \t]*\{([^}]*)\}")
#: A documented report-format list: ``--format {md,csv,ascii}``.
_FORMAT_LIST_RE = re.compile(r"--format[ \t]*\n?[ \t]*\{([^}]*)\}")
#: A documented tolerance-band list: ``--bands {exact,cv}``.
_BANDS_LIST_RE = re.compile(r"--bands[ \t]*\n?[ \t]*\{([^}]*)\}")
#: A documented scheduling-policy list: ``--sched {rr,priority,wrr}``.
_SCHED_LIST_RE = re.compile(r"--sched[ \t]*\n?[ \t]*\{([^}]*)\}")
#: An inline-code span (fenced blocks are stripped before scanning).
_CODE_SPAN_RE = re.compile(r"`([^`]+)`")
#: A ``--flag`` token anywhere inside a span.
_FLAG_TOKEN_RE = re.compile(r"--[a-z][a-z0-9-]*")
#: Flags the docs may legitimately mention inline although no repro
#: subcommand defines them: third-party tools' options and the docs'
#: own ``--flag`` placeholder spelling.  Extend this when documenting
#: another tool's option in prose.
FOREIGN_FLAGS = frozenset({"--flag"})


def _rel(path: Path) -> str:
    """*path* relative to the repo root, or absolute when outside it."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def iter_python_blocks(text: str):
    """Yield (line_number, body) for every fenced python block."""
    for match in _FENCE_RE.finditer(text):
        if match.group("lang") != "python":
            continue
        line = text.count("\n", 0, match.start()) + 1
        yield line, match.group("body")


def check_code_blocks(path: Path) -> list[str]:
    """Doctest-run (or compile) the python blocks of one file."""
    failures = []
    text = path.read_text(encoding="utf-8")
    for line, body in iter_python_blocks(text):
        where = f"{_rel(path)}:{line}"
        if ">>>" in body:
            parser = doctest.DocTestParser()
            runner = doctest.DocTestRunner(verbose=False)
            try:
                test = parser.get_doctest(
                    body, {"__name__": "__docs__"}, where, str(path), line
                )
            except ValueError as error:
                failures.append(f"{where}: malformed doctest block: {error}")
                continue
            # Examples may write caches or result files: give them a
            # scratch working directory.
            previous_cwd = os.getcwd()
            with tempfile.TemporaryDirectory() as scratch:
                os.chdir(scratch)
                try:
                    results = runner.run(test)
                finally:
                    os.chdir(previous_cwd)
            if results.failed:
                failures.append(
                    f"{where}: {results.failed} of {results.attempted} "
                    "doctest example(s) failed (run with python -m doctest "
                    "for details)"
                )
        else:
            try:
                compile(body, where, "exec")
            except SyntaxError as error:
                failures.append(f"{where}: python block does not compile: {error}")
    return failures


def check_links(path: Path) -> list[str]:
    """Verify every relative link target of one file exists on disk."""
    failures = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            line = text.count("\n", 0, match.start()) + 1
            failures.append(
                f"{_rel(path)}:{line}: dead link {target!r}"
            )
    return failures


def _check_value_list(
    path: Path, pattern: re.Pattern, expected, label: str
) -> list[str]:
    """Fail any documented ``--flag {...}`` list that drifted.

    Every match of *pattern* (group 1 = the comma-separated values)
    must equal *expected* exactly — a new value must land in the docs
    in the same commit, and a value the engine does not know must
    never be advertised.
    """
    failures = []
    text = path.read_text(encoding="utf-8")
    for match in pattern.finditer(text):
        listed = {v.strip() for v in match.group(1).split(",") if v.strip()}
        if listed != set(expected):
            line = text.count("\n", 0, match.start()) + 1
            failures.append(
                f"{_rel(path)}:{line}: stale {label} list "
                f"{sorted(listed)} != {sorted(expected)}"
            )
    return failures


def check_transfer_modes(path: Path) -> list[str]:
    """Stale ``--transfer {...}`` lists vs :data:`repro.exp.spec.TRANSFERS`."""
    return _check_value_list(
        path, _TRANSFER_LIST_RE, TRANSFERS, "transfer-mode"
    )


def check_report_formats(path: Path) -> list[str]:
    """Stale ``--format {...}`` lists vs :data:`repro.exp.report.FORMATS`."""
    return _check_value_list(
        path, _FORMAT_LIST_RE, FORMATS, "report-format"
    )


def check_bands(path: Path) -> list[str]:
    """Stale ``--bands {...}`` lists vs :data:`repro.exp.diff.BANDS`."""
    return _check_value_list(
        path, _BANDS_LIST_RE, BANDS, "tolerance-band"
    )


def check_scheds(path: Path) -> list[str]:
    """Stale ``--sched {...}`` lists vs :data:`repro.os.scheduler.SCHEDS`."""
    return _check_value_list(
        path, _SCHED_LIST_RE, SCHEDS, "scheduling-policy"
    )


#: Subcommands whose full flag set must be documented in README.md
#: (the coverage direction; the stale-mention direction covers every
#: subcommand automatically).
DOCUMENTED_COMMANDS = (
    "sweep", "record", "report", "serve", "worker", "submit", "merge",
    "history", "diff",
)


@functools.lru_cache(maxsize=1)
def _parser_options() -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """All long options of the ``repro`` CLI, and the per-subcommand sets.

    Cached: the walk rebuilds the whole parser, and the flag checks
    run once per scanned doc file.
    """
    every: set[str] = set()
    per_command: dict[str, set[str]] = {}
    for command, action in iter_option_actions():
        longs = {o for o in action.option_strings if o.startswith("--")}
        longs.discard("--help")
        every |= longs
        if command is not None:
            per_command.setdefault(command, set()).update(longs)
    return frozenset(every), {
        name: frozenset(flags) for name, flags in per_command.items()
    }


def check_flag_mentions(path: Path) -> list[str]:
    """Fail stale ``--flag`` mentions in one file's inline-code spans.

    Every ``--flag`` token inside an inline-code span must exist on
    some ``repro`` subcommand (or be allowlisted in
    :data:`FOREIGN_FLAGS`), so removing or renaming a flag cannot
    leave a stale mention behind anywhere in the docs.  Fenced code
    blocks are excluded (they may drive other tools, e.g. pytest).
    """
    failures = []
    text = path.read_text(encoding="utf-8")
    every, _per_command = _parser_options()
    prose = _FENCE_RE.sub("", text)
    for span in _CODE_SPAN_RE.finditer(prose):
        for flag in _FLAG_TOKEN_RE.findall(span.group(1)):
            if flag not in every and flag not in FOREIGN_FLAGS:
                failures.append(
                    f"{_rel(path)}: stale flag mention {flag} "
                    "(no repro subcommand defines it; add it to "
                    "FOREIGN_FLAGS if it belongs to another tool)"
                )
    return failures


def check_cli_flags(path: Path) -> list[str]:
    """Keep the README's CLI flag lists in lockstep with the parser.

    Two directions: every option of every :data:`DOCUMENTED_COMMANDS`
    subcommand (``sweep`` and ``diff``) must be mentioned in the file
    (tokenized, not substring: a mention of ``--shard-size`` would not
    satisfy ``--shard``; fenced examples count — a worked sh example
    documents a flag), plus the per-file stale-mention scan of
    :func:`check_flag_mentions`.
    """
    failures = []
    text = path.read_text(encoding="utf-8")
    _every, per_command = _parser_options()
    documented = set(_FLAG_TOKEN_RE.findall(text))
    for command in DOCUMENTED_COMMANDS:
        for flag in sorted(per_command.get(command, ())):
            if flag not in documented:
                failures.append(
                    f"{_rel(path)}: {command} flag {flag} is undocumented"
                )
    return failures + check_flag_mentions(path)


def check_subcommands_documented(path: Path) -> list[str]:
    """Every registered subcommand must appear as ``repro <name>``.

    A new subcommand (``history``, …) that never shows up
    in the README is invisible to users; requiring the literal
    ``repro <name>`` spelling also guarantees at least one usable
    invocation example exists.
    """
    failures = []
    text = path.read_text(encoding="utf-8")
    _every, per_command = _parser_options()
    for command in sorted(per_command):
        if not re.search(rf"repro {re.escape(command)}\b", text):
            failures.append(
                f"{_rel(path)}: subcommand `repro {command}` is undocumented"
            )
    return failures


def main() -> int:
    failures: list[str] = []
    checked_blocks = 0
    for name in DOC_FILES:
        path = REPO_ROOT / name
        if not path.exists():
            failures.append(f"{name}: file missing")
            continue
        checked_blocks += sum(1 for _ in iter_python_blocks(path.read_text(encoding="utf-8")))
        failures += check_code_blocks(path)
        failures += check_links(path)
        failures += check_transfer_modes(path)
        failures += check_report_formats(path)
        failures += check_bands(path)
        failures += check_scheds(path)
        if name != "README.md":
            # README gets the full two-direction check below; other
            # docs get the stale-mention direction only.
            failures += check_flag_mentions(path)
    failures += check_cli_flags(REPO_ROOT / "README.md")
    failures += check_subcommands_documented(REPO_ROOT / "README.md")
    for name in AXIS_LIST_FILES:
        failures += check_transfer_modes(REPO_ROOT / name)
        failures += check_report_formats(REPO_ROOT / name)
        failures += check_bands(REPO_ROOT / name)
        failures += check_scheds(REPO_ROOT / name)
    for failure in failures:
        print(f"FAIL {failure}")
    print(
        f"checked {len(DOC_FILES)} file(s), {checked_blocks} python "
        f"block(s): {len(failures)} failure(s)"
    )
    return len(failures)


if __name__ == "__main__":
    sys.exit(1 if main() else 0)
