#!/usr/bin/env python3
"""Determinism & concurrency invariant linter for the recon codebase.

The repo guarantees bit-identical parallel vs. sequential batch selection and
bit-identical checkpoint-resume. The bug classes that break those guarantees
are statically detectable, and this linter rejects them at CI time:

  randomness       std::rand / srand / std::random_device. All randomness must
                   flow through util::Rng (seeded, counter-based) so runs are
                   reproducible and checkpointable.
  clock            Raw steady_clock/system_clock/high_resolution_clock::now()
                   or argless time(). Wall-clock reads must go through
                   util::WallTimer (and thus be visible as deadline code);
                   anything else risks timing leaking into selection.
  hash-order       Range-for / iterator loops over std::unordered_{map,set}
                   variables. Hash-order iteration leaks the hash seed and
                   insertion history into whatever the loop produces; extract
                   and sort keys first, or waive with a written reason.
  checkpoint-pair  A class declaring one side of a checkpoint field pair —
                   save_state/restore_state (Strategy state blobs) or
                   serialize/deserialize (record tokens) — must declare the
                   other, or resume silently loses state.
  format-pair      A file defining one side of a binary-format function pair
                   (write_<fmt>_binary_file / map_<fmt>_binary_file) must
                   define the other in the same translation unit, so a layout
                   change necessarily updates writer, reader, and checksum
                   together.
  guard            A class declaring a mutex member must annotate at least one
                   member RECON_GUARDED_BY(that mutex) (util/thread_annotations.h)
                   so clang -Wthread-safety has something to enforce, or waive
                   with a reason stating what the mutex is for.
  lockfree         compare_exchange_{strong,weak} outside a waiver. Hand-rolled
                   CAS loops must document their ownership protocol and
                   memory-order argument at the call site (and be exercised
                   under TSan); everything else should use util::Mutex or the
                   thread-pool primitives.
  durable-write    Raw std::rename / rename() calls. A bare rename publishes
                   a file with no fsync of either the contents or the parent
                   directory entry, so a crash can surface torn or lost data
                   at the destination. All durable publishes must go through
                   util::durable_rename (src/util/fs.cc), the one waived call
                   site.
  temp-path        A "/tmp/..." string literal in a file under tests/. ctest
                   runs every gtest case as its own process and `ctest -j`
                   runs them concurrently, so a fixed temp path is shared by
                   racing cases; tests take paths from scratch_path()
                   (tests/test_scratch.h), a per-process mkdtemp directory.
  waiver           Malformed waivers: unknown rule name or empty reason.

Waiver grammar (one per flagged construct, on the flagged line or in the
comment block immediately above it; the reason may continue onto following
comment lines until the closing parenthesis):

    // lint:<rule>-ok(<non-empty reason>)

Usage:
    lint_invariants.py [PATH...]        lint .h/.cc files
                                        (default: src/ tools/recon_cli.cc
                                        tests/ — fixture trees are pruned)
    lint_invariants.py --selftest DIR   check fixture expectations in DIR
    lint_invariants.py --list-rules     print rule ids and summaries

Exit status: 0 clean, 1 findings (or selftest mismatch), 2 usage error.
Pure standard-library Python: no libclang dependency, so it runs identically
on dev boxes and CI. The matching is lexical (comments/strings stripped,
brace-matched class bodies) and shares its tokenizer, waiver grammar, and
fixture harness with tools/analyze_program.py via tools/lintlib/, which the
fixture selftest in tests/lint_fixtures/ keeps honest. Cross-TU properties
(lock-order cycles, checkpoint field coverage, hot-path purity, crash-point
registry honesty) live in analyze_program.py.
"""

from __future__ import annotations

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib.cpp import class_bodies  # noqa: E402
from lintlib.findings import Finding, print_findings  # noqa: E402
from lintlib.fixtures import run_selftest as _run_fixture_selftest  # noqa: E402
from lintlib.source import (SourceFile, collect_files,  # noqa: E402
                            strip_comments_and_strings)
from lintlib.waivers import Waivers  # noqa: E402

RULES = {
    "randomness": "banned randomness source (use util::Rng)",
    "clock": "raw wall-clock read (use util::WallTimer)",
    "hash-order": "iteration over unordered container (sort keys first)",
    "checkpoint-pair": "one-sided save_state/restore_state or "
                       "serialize/deserialize pair",
    "format-pair": "binary-format writer defined without its reader "
                   "(or vice versa) in the same file",
    "guard": "mutex member without a RECON_GUARDED_BY annotation",
    "lockfree": "hand-rolled CAS without a documented protocol",
    "durable-write": "raw rename() outside util::durable_rename "
                     "(publishes without fsync; torn on crash)",
    "temp-path": "fixed temp-directory path in a test (races under ctest -j; "
                 "use scratch_path() from tests/test_scratch.h)",
    "waiver": "malformed waiver pragma",
}

# Files (repo-relative, '/'-separated suffix match) exempt from specific
# rules. Keep this list short and justified.
ALLOWLIST = {
    "randomness": (
        "src/util/rng.h",   # the sanctioned randomness wrapper itself
        "src/util/rng.cc",
    ),
    "clock": (
        "src/util/timer.h",   # the sanctioned WallTimer wrapper itself
        "src/solver/bnb.cc",  # deadline code (reads time via WallTimer today;
        "src/solver/fob.cc",  # allowlisted so deadline checks can evolve)
    ),
    "guard": (
        # The annotated Mutex wrapper necessarily owns a raw std::mutex.
        "src/util/thread_annotations.h",
    ),
}

BANNED = {
    "randomness": [
        (re.compile(r"\bstd\s*::\s*rand\b"), "std::rand"),
        (re.compile(r"(?<![\w:])srand\s*\("), "srand"),
        (re.compile(r"\brandom_device\b"), "std::random_device"),
    ],
    "clock": [
        (re.compile(r"\bsteady_clock\s*::\s*now\b"), "steady_clock::now"),
        (re.compile(r"\bsystem_clock\s*::\s*now\b"), "system_clock::now"),
        (
            re.compile(r"\bhigh_resolution_clock\s*::\s*now\b"),
            "high_resolution_clock::now",
        ),
        (
            re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
            "argless time()",
        ),
    ],
    # Lock-free algorithms are where determinism and memory-safety bugs hide
    # from every test that doesn't hit the exact interleaving. A CAS is only
    # acceptable next to a waiver stating the ownership protocol and
    # memory-order argument (which also flags the site for TSan coverage).
    "lockfree": [
        (
            re.compile(r"\bcompare_exchange_(?:strong|weak)\b"),
            "compare_exchange",
        ),
    ],
    # A rename publishes a file without any durability guarantee: neither the
    # file contents nor the directory entry are fsync'd, so a crash can leave
    # the destination pointing at lost or torn data. util::durable_rename
    # (src/util/fs.cc) wraps the fsync/rename/fsync-parent dance and is the
    # single sanctioned call site.
    "durable-write": [
        (re.compile(r"\bstd\s*::\s*rename\s*\("), "std::rename"),
        (re.compile(r"(?<![\w:.>])rename\s*\("), "raw rename()"),
    ],
}

# Field pairs the checkpoint-pair rule enforces inside a class body: a class
# writing state must also be able to read it back (and vice versa).
CHECKPOINT_PAIRS = (
    ("save_state", "restore_state"),  # Strategy/Rng opaque state blobs
    ("serialize", "deserialize"),     # checkpoint record tokens
)

# format-pair: a *definition* of write_<fmt>_binary_file or
# map_<fmt>_binary_file (parameter list followed by a body brace; plain
# declarations end in ';' and don't match). Both sides of a format must live
# in one translation unit so no layout change can touch only one of them.
FORMAT_FN_DEF_RE = re.compile(
    r"\b(write|map)_(\w+?)_binary_file\s*\([^;{]*\)\s*\{", re.S)

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;()]*?>\s+(\w+)\s*[;({=]"
)
MUTEX_MEMBER_RE = re.compile(r"\b(?:std\s*::\s*mutex|util\s*::\s*Mutex|Mutex)\s+(\w+)\s*;")

TEMP_LITERAL_RE = re.compile(r'"/tmp/')


def under_tests(path: str) -> bool:
    return "/tests/" in os.path.abspath(path).replace(os.sep, "/")


def lint_file(path: str, findings: list[Finding]) -> None:
    sf = SourceFile(path)
    rel = sf.path
    code = sf.code
    code_lines = sf.code_lines
    waivers = Waivers(rel, sf.raw_lines, findings, rules=RULES)

    def allowlisted(rule: str) -> bool:
        return any(rel.endswith(sfx) for sfx in ALLOWLIST.get(rule, ()))

    # --- randomness / clock bans -------------------------------------------
    for rule, patterns in BANNED.items():
        if allowlisted(rule):
            continue
        for lineno, cline in enumerate(code_lines, 1):
            for pat, label in patterns:
                if pat.search(cline) and not waivers.waived(rule, lineno):
                    findings.append(
                        Finding(rel, lineno, rule,
                                f"{label} is banned: {RULES[rule]}"))

    # --- temp-path: fixed temp-directory literals in tests ------------------
    if under_tests(path):
        literal_lines = strip_comments_and_strings(
            sf.text, keep_strings=True).splitlines()
        for lineno, sline in enumerate(literal_lines, 1):
            if TEMP_LITERAL_RE.search(sline) and \
                    not waivers.waived("temp-path", lineno):
                findings.append(
                    Finding(rel, lineno, "temp-path",
                            "fixed \"/tmp/...\" path in a test: concurrent "
                            "ctest processes share it; use scratch_path() "
                            "from tests/test_scratch.h"))

    # --- hash-order iteration ----------------------------------------------
    unordered_names = {m.group(1) for m in UNORDERED_DECL_RE.finditer(code)}
    if unordered_names:
        names = "|".join(re.escape(n) for n in sorted(unordered_names))
        range_for = re.compile(r"\bfor\s*\([^;)]*:\s*(?:\*?\s*)?(" + names + r")\s*\)")
        iter_for = re.compile(
            r"\bfor\s*\([^;)]*=\s*(" + names + r")\s*\.\s*c?begin\s*\(")
        for lineno, cline in enumerate(code_lines, 1):
            for pat in (range_for, iter_for):
                m = pat.search(cline)
                if m and not waivers.waived("hash-order", lineno):
                    findings.append(
                        Finding(rel, lineno, "hash-order",
                                f"loop over unordered container '{m.group(1)}': "
                                "iteration order depends on the hash seed and "
                                "insertion history; extract+sort keys, or waive "
                                "with lint:hash-order-ok(reason)"))

    # --- format-pair: binary writer/reader defined in the same file ---------
    defs: dict[str, dict[str, int]] = {}  # fmt stem -> side -> first def line
    for m in FORMAT_FN_DEF_RE.finditer(code):
        side, stem = m.group(1), m.group(2)
        defs.setdefault(stem, {}).setdefault(side, sf.line_of(m.start()))
    for stem, sides in sorted(defs.items()):
        if len(sides) == 2:
            continue
        side, lineno = next(iter(sides.items()))
        other = "map" if side == "write" else "write"
        if not waivers.waived("format-pair", lineno):
            findings.append(
                Finding(rel, lineno, "format-pair",
                        f"{side}_{stem}_binary_file is defined here without "
                        f"{other}_{stem}_binary_file; keep the binary writer "
                        "and reader in one file so a layout change updates "
                        "both sides and the checksum together"))

    # --- class-body rules: checkpoint-pair and guard ------------------------
    seen_guard: set[int] = set()
    seen_pair: set[tuple[int, str]] = set()
    for cb in class_bodies(code):
        name, body, body_start = cb.name, cb.body, cb.body_start
        cls_line = sf.line_of(cb.start)
        # checkpoint-pair: declaring one side of a serialization pair only.
        # (\bserialize does not match inside "deserialize": no word boundary.)
        for writer, reader in CHECKPOINT_PAIRS:
            has_writer = re.search(r"\b" + writer + r"\s*\(", body) is not None
            has_reader = re.search(r"\b" + reader + r"\s*\(", body) is not None
            if has_writer == has_reader or (cls_line, writer) in seen_pair:
                continue
            seen_pair.add((cls_line, writer))
            present = writer if has_writer else reader
            missing = reader if has_writer else writer
            if not waivers.waived("checkpoint-pair", cls_line):
                findings.append(
                    Finding(rel, cls_line, "checkpoint-pair",
                            f"class {name} declares {present} but not "
                            f"{missing}; checkpoint-resume would silently "
                            "lose or mis-restore this state"))
        # guard: every mutex member needs a GUARDED_BY(it) in the same body.
        if allowlisted("guard"):
            continue
        for mm in MUTEX_MEMBER_RE.finditer(body):
            mutex_name = mm.group(1)
            member_line = sf.line_of(body_start + mm.start())
            if member_line in seen_guard:
                continue
            guarded = re.search(
                r"\bRECON(?:_PT)?_GUARDED_BY\s*\(\s*" + re.escape(mutex_name)
                + r"\s*\)", body)
            if guarded is None:
                seen_guard.add(member_line)
                if not waivers.waived("guard", member_line):
                    findings.append(
                        Finding(rel, member_line, "guard",
                                f"mutex member '{mutex_name}' in {name} guards "
                                "no annotated member; add RECON_GUARDED_BY("
                                f"{mutex_name}) to the guarded fields (see "
                                "util/thread_annotations.h) or waive with "
                                "lint:guard-ok(reason)"))


def run_lint(paths: list[str]) -> int:
    findings: list[Finding] = []
    files = collect_files(paths, tool="lint_invariants")
    for path in files:
        lint_file(path, findings)
    print_findings(findings)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: OK ({len(files)} files clean)")
    return 0


EXPECT_RE = re.compile(r"//\s*lint-expect:\s*([a-z-]+)")


def run_selftest(fixture_dir: str) -> int:
    """Every fixture declares its expected findings with `// lint-expect: rule`
    lines; `good_*` fixtures declare none and must lint clean. A fixture that
    over- or under-reports fails the selftest, so the linter cannot rot.
    Only files directly in the fixture directory participate — subdirectories
    (e.g. the analyzer's fixture groups under analyze/) belong to other
    tools' selftests."""

    def check(files: list[str]) -> list[Finding]:
        findings: list[Finding] = []
        for path in files:
            lint_file(path, findings)
        return findings

    return _run_fixture_selftest(fixture_dir, EXPECT_RE, check,
                                 tool="lint_invariants")


def main(argv: list[str]) -> int:
    if "--list-rules" in argv:
        for rule, summary in RULES.items():
            print(f"{rule:16} {summary}")
        return 0
    if "--selftest" in argv:
        i = argv.index("--selftest")
        if i + 1 >= len(argv):
            print("usage: lint_invariants.py --selftest DIR", file=sys.stderr)
            return 2
        return run_selftest(argv[i + 1])
    paths = [a for a in argv if not a.startswith("-")]
    return run_lint(paths or ["src", "tools/recon_cli.cc", "tests"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
