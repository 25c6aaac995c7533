"""Source-text primitives: comment/string stripping, file collection.

The stripping pass blanks comments and string/char literals while preserving
line structure, so every downstream regex can assume it is matching code and
every offset still maps to the original line number. Waiver pragmas live in
comments, so waiver parsing reads the *raw* lines instead.
"""

from __future__ import annotations

import os
import sys

# C++ translation units the tools consider.
CXX_SUFFIXES = (".h", ".cc", ".cpp", ".hpp")

# Directory names pruned while walking a path argument. Fixture trees are
# deliberately full of findings and are exercised via --selftest, never as
# part of linting the real tree.
PRUNE_DIRS = ("lint_fixtures",)


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks comments and string/char literals, preserving line structure.
    With `keep_strings`, literals (quotes included) are kept verbatim and
    only comments are blanked — for rules about literal contents."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if keep_strings or c == "\n" else " ")
        i += 1
    return "".join(out)


def is_comment_line(raw_line: str) -> bool:
    s = raw_line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*") or s == ""


def line_of(code: str, offset: int) -> int:
    """1-based line number of `offset` in `code`."""
    return code.count("\n", 0, offset) + 1


def collect_files(paths: list[str], tool: str = "lintlib",
                  prune: tuple[str, ...] = PRUNE_DIRS) -> list[str]:
    """Expands files/directories into a sorted-walk list of C++ sources.

    Directories named in `prune` are skipped while walking (but a pruned name
    passed *explicitly* as a path argument is still honoured — that is how
    the fixture selftests target their own trees). Exits with status 2 on a
    nonexistent path, matching the historical CLI contract.
    """
    out: list[str] = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs if d not in prune)
                for f in sorted(files):
                    if f.endswith(CXX_SUFFIXES):
                        out.append(os.path.join(root, f))
        else:
            print(f"{tool}: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def rel_path(path: str) -> str:
    """Normalized, '/'-separated path used in findings and allowlists."""
    return os.path.normpath(path).replace(os.sep, "/")


class SourceFile:
    """One parsed translation unit: raw text, stripped code, both line views."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.path = rel_path(path)
        self.raw_lines = self.text.splitlines()
        self.code = strip_comments_and_strings(self.text)
        self.code_lines = self.code.splitlines()

    def line_of(self, offset: int) -> int:
        return line_of(self.code, offset)
