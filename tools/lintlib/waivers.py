"""The `// lint:<rule>-ok(reason)` waiver grammar, shared by both tools.

A waiver covers its own line, every following comment line, and the first
non-comment line after it (the flagged construct). Reasons may span multiple
comment lines up to the closing parenthesis and must be non-empty;
violations surface as `waiver` findings.

Waiver *validation* (unknown rule name, empty reason) checks against the
union of every tool's rule names — a file carrying an analyzer waiver must
not trip the invariant linter's waiver rule, and vice versa — while
*coverage* is tracked only for the rules the running tool owns.
"""

from __future__ import annotations

import re

from .findings import Finding

WAIVER_RE = re.compile(r"lint:([a-z-]+)-ok\(")

# Every rule name any front end understands. A waiver naming a rule outside
# this union is a typo and is flagged; a waiver naming another tool's rule is
# simply not coverage for this tool's findings.
LINT_RULES = (
    "randomness", "clock", "hash-order", "checkpoint-pair", "format-pair",
    "guard", "lockfree", "durable-write", "temp-path", "waiver",
)
ANALYZE_RULES = (
    "lockgraph", "ckpt-coverage", "hotpath", "crash-registry", "waiver",
)
ALL_RULES = tuple(sorted(set(LINT_RULES) | set(ANALYZE_RULES)))


def _is_comment_line(raw_line: str) -> bool:
    s = raw_line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*") or s == ""


class Waivers:
    """Parses waiver pragmas in `raw_lines` and the lines they cover.

    `rules` is the running tool's rule set (an iterable of names; coverage is
    tracked per rule). `known_rules` defaults to the cross-tool union and
    controls which names are accepted as well-formed.
    """

    def __init__(self, path: str, raw_lines: list[str],
                 findings: list[Finding], rules=LINT_RULES,
                 known_rules=ALL_RULES):
        # rule -> set of covered 1-based line numbers
        self.covered: dict[str, set[int]] = {r: set() for r in rules}
        self.used: set[tuple[str, int]] = set()
        self._declared: list[tuple[str, int]] = []  # (rule, pragma line)
        for idx, raw in enumerate(raw_lines):
            for m in WAIVER_RE.finditer(raw):
                rule = m.group(1)
                if rule not in known_rules or rule == "waiver":
                    findings.append(
                        Finding(path, idx + 1, "waiver",
                                f"unknown rule '{rule}' in waiver pragma"))
                    continue
                reason = self._extract_reason(raw_lines, idx, m.end())
                if reason is None or not reason.strip():
                    findings.append(
                        Finding(path, idx + 1, "waiver",
                                f"waiver for '{rule}' must carry a non-empty "
                                "reason: lint:" + rule + "-ok(<why>)"))
                    continue
                self._declared.append((rule, idx + 1))
                if rule not in self.covered:
                    continue  # another tool's rule: valid, not ours to track
                # Cover from the pragma line through the first non-comment line.
                j = idx
                self.covered[rule].add(j + 1)
                while j + 1 < len(raw_lines) and _is_comment_line(raw_lines[j + 1]):
                    j += 1
                    self.covered[rule].add(j + 1)
                if j + 1 < len(raw_lines):
                    self.covered[rule].add(j + 2)

    @staticmethod
    def _extract_reason(raw_lines: list[str], idx: int, start: int) -> str | None:
        """Reason text from `start` up to the matching ')', possibly spanning
        following comment lines. Returns None if never closed."""
        depth = 1
        parts: list[str] = []
        line = raw_lines[idx]
        pos = start
        for _ in range(8):  # reasons longer than 8 lines are a smell anyway
            while pos < len(line):
                c = line[pos]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        parts.append(line[start:pos])
                        return " ".join(parts)
                pos += 1
            parts.append(line[start:])
            idx += 1
            if idx >= len(raw_lines) or not _is_comment_line(raw_lines[idx]):
                return None
            line = raw_lines[idx]
            start = pos = line.find("//") + 2 if "//" in line else 0
        return None

    def waived(self, rule: str, line: int) -> bool:
        if line in self.covered.get(rule, ()):
            self.used.add((rule, line))
            return True
        return False
