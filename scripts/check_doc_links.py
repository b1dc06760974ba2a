"""Docs link check: every relative Markdown link must resolve.

Scans the repository's Markdown files (README.md, docs/, benchmarks/,
ROADMAP.md, ...) for inline links and validates:

* relative file targets exist (``[text](docs/ARCHITECTURE.md)``);
* anchor fragments point at a real heading in the target file, using
  GitHub's slug rules (lowercase, punctuation stripped, spaces to
  dashes), for both ``other.md#section`` and same-file ``#section``
  links.

In the present-tense docs (README.md, ``docs/``, ``.claude/skills/`` and
``benchmarks/**/*.md``, not the history files or the reference shelf) it
also fails on a backticked ``*.py`` path, one with a ``/`` in it, that
resolves neither under the repository root nor under ``src/repro/`` (a
``*`` in it matches like a shell glob).  Bare file names and directory
paths are not checked.

In ``src/**/*.py`` it checks every ``docs/<file>.md#<anchor>`` pointer a
docstring or comment makes into the docs: the file must exist and the
anchor must be one of its headings.

External links (``http(s)://``, ``mailto:``) are not fetched — this
gate is about keeping the internal docs graph unbroken as files move,
not about the outside world.

Usage::

    python scripts/check_doc_links.py [root]
"""

from __future__ import annotations

import glob
import os
import re
import sys

#: Directories never scanned for Markdown sources.
SKIP_DIRS = {".git", ".venv", "node_modules", "__pycache__", ".pytest_cache"}

#: Inline Markdown links: [text](target).  Images share the syntax.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: ATX headings, used to build the anchor set of a file.
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")

#: Fenced code blocks must not contribute links or headings.
_FENCE = re.compile(r"^(```|~~~)")

#: A backticked Python source path: ``sim/kernel.py``, ``tests/test_*.py``.
_CODE_PATH = re.compile(r"`([^`\s]*/[^`\s]*\.py)`")

#: A pointer from source code into the docs: ``docs/ARCHITECTURE.md#the-switch``.
_SOURCE_DOC_LINK = re.compile(r"(docs/[\w./-]+\.md)(?:#([\w-]+))?")

#: Docs that describe the tree as it is now (relative to the root; a
#: directory covers its Markdown files at any depth).
PRESENT_TENSE = ("README.md", "docs/", ".claude/skills/", "benchmarks/")

#: Where a code path in those docs may resolve.
CODE_ROOTS = ("", os.path.join("src", "repro"))


def _slugify(heading: str) -> str:
    """GitHub's heading-to-anchor rule (close enough for ASCII docs)."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _markdown_lines(path: str):
    """Yield the file's lines with fenced code blocks blanked out."""
    in_fence = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if _FENCE.match(line.strip()):
                in_fence = not in_fence
                yield ""
            else:
                yield "" if in_fence else line


def find_markdown_files(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def anchors_of(path: str):
    """The set of heading slugs a Markdown file exposes."""
    slugs = set()
    for line in _markdown_lines(path):
        match = _HEADING.match(line)
        if match:
            slugs.add(_slugify(match.group(1)))
    return slugs


def link_problem(where: str, shown: str, resolved: str, fragment: str, anchor_cache):
    """What is wrong with one link to ``resolved``, or ``None`` if it resolves."""
    if not os.path.exists(resolved):
        return f"{where}: broken link -> {shown}"
    if fragment and resolved.endswith(".md"):
        if resolved not in anchor_cache:
            anchor_cache[resolved] = anchors_of(resolved)
        if fragment.lower() not in anchor_cache[resolved]:
            return f"{where}: missing anchor -> {shown}#{fragment}"
    return None


def check_file(path: str, root: str, anchor_cache):
    problems = []
    for number, line in enumerate(_markdown_lines(path), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, fragment = target.partition("#")
            if target:
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target))
            else:
                resolved = path  # same-file anchor
            where = f"{os.path.relpath(path, root)}:{number}"
            shown = target or os.path.basename(path)
            problem = link_problem(where, shown, resolved, fragment, anchor_cache)
            if problem:
                problems.append(problem)
    return problems


def is_present_tense(path: str, root: str) -> bool:
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    return any(rel == doc or (doc.endswith("/") and rel.startswith(doc)) for doc in PRESENT_TENSE)


def check_code_paths(path: str, root: str):
    """Backticked ``*.py`` paths in ``path`` that name no file of the tree."""
    problems = []
    for number, line in enumerate(_markdown_lines(path), start=1):
        for match in _CODE_PATH.finditer(line):
            target = match.group(1)
            if not any(glob.glob(os.path.join(root, base, target)) for base in CODE_ROOTS):
                where = f"{os.path.relpath(path, root)}:{number}"
                problems.append(f"{where}: stale code path -> {target}")
    return problems


def check_source_doc_links(root: str, anchor_cache):
    """``docs/<file>.md#<anchor>`` pointers in ``src/**/*.py`` that resolve nowhere."""
    problems = []
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                for match in _SOURCE_DOC_LINK.finditer(line):
                    target, fragment = match.groups()
                    where = f"{os.path.relpath(path, root)}:{number}"
                    resolved = os.path.join(root, target)
                    problem = link_problem(where, target, resolved, fragment, anchor_cache)
                    if problem:
                        problems.append(problem)
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = os.path.abspath(args[0]) if args else os.getcwd()
    anchor_cache = {}
    problems = []
    checked = 0
    for path in find_markdown_files(root):
        checked += 1
        problems.extend(check_file(path, root, anchor_cache))
        if is_present_tense(path, root):
            problems.extend(check_code_paths(path, root))
    problems.extend(check_source_doc_links(root, anchor_cache))
    if problems:
        print(f"BROKEN DOCS LINKS ({len(problems)}):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"ok: {checked} Markdown files, all relative links, code paths and "
        "source pointers into the docs resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
