#!/usr/bin/env python3
"""Cross-translation-unit program analyzer for the recon codebase.

tools/lint_invariants.py rejects per-line bug classes; this tool proves the
*whole-program* properties behind the repo's two guarantees — bit-identical
parallel selection and bit-identical crash/resume — that no single-file
lexical rule can see. Four passes, each a named rule with the shared
`// lint:<rule>-ok(reason)` waiver grammar (tools/lintlib/):

  lockgraph       Extracts the whole-program lock-acquisition-order graph
                  from util::MutexLock / std::lock_guard sites, RECON_ACQUIRE
                  / RECON_REQUIRES annotations, and cross-TU call edges. A
                  cycle is a potential deadlock: the finding carries the
                  witness path, and --dot exports the graph for docs. A
                  waiver on an acquisition site drops that site's edges
                  (state the protocol that makes the order safe).
  ckpt-coverage   For every class declaring BOTH sides of a checkpoint pair
                  (save_state/restore_state or serialize/deserialize — the
                  one-sided case is lint_invariants' checkpoint-pair rule),
                  every data member must be referenced by both sides (method
                  bodies are resolved cross-TU, and references through
                  same-class helpers two calls deep count). A member that is
                  derived or transient carries a waiver at its declaration
                  naming why. This statically catches the "resume silently
                  loses state" class fixed by hand in PRs 5 and 7.
  hotpath         Computes call-graph reachability from every parallel_for /
                  parallel_reduce body lambda and from the Gamma scoring
                  kernels, and bans blocking syscalls, file I/O, mutex
                  acquisition, logging, and raw clock reads inside the
                  reachable set. A waiver on the parallel call site exempts
                  that root (e.g. a coarse fan-out of whole attacks); a
                  waiver on the banned line exempts one site.
  crash-registry  Cross-checks crashpoint.cc's kSites table against every
                  RECON_CRASH_POINT arming site in the tree, both ways, plus
                  duplicate table entries — the registry honesty check at
                  analysis time instead of test time.
  waiver          Malformed waivers: unknown rule name or empty reason.

Usage:
    analyze_program.py [options] [PATH...]   default: src/ tools/recon_cli.cc
                                             tests/ (fixture trees pruned)
      --pass RULE       run only RULE (repeatable; default: all four)
      --json            machine-readable findings (stable-sorted)
      --dot FILE        write the lock-order graph as Graphviz DOT ('-' =
                        stdout); implies the lockgraph pass runs
      --list-rules      print rule ids and summaries
    analyze_program.py --selftest DIR        check fixture expectations
                                             (files and subdirectory groups,
                                             `// analyze-expect: rule`)
    analyze_program.py --selftest-json DIR   re-run --json under different
                                             PYTHONHASHSEED values and
                                             require byte-identical,
                                             round-trippable, sorted output

Exit status: 0 clean, 1 findings (or selftest mismatch), 2 usage error.
Pure standard-library Python; the matching is lexical (comments/strings
stripped, brace-matched bodies) and deliberately over-approximate — the
waiver grammar absorbs the rare false positive, and the fixture selftests
in tests/lint_fixtures/analyze/ keep every pass honest. See
docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import cpp  # noqa: E402
from lintlib.findings import (Finding, findings_to_json,  # noqa: E402
                              print_findings, sorted_findings)
from lintlib.fixtures import run_selftest as _run_fixture_selftest  # noqa: E402
from lintlib.source import SourceFile, collect_files  # noqa: E402
from lintlib.waivers import Waivers  # noqa: E402

RULES = {
    "lockgraph": "cycle in the whole-program lock-acquisition-order graph "
                 "(potential deadlock)",
    "ckpt-coverage": "checkpoint member not referenced by both sides of its "
                     "save/restore pair",
    "hotpath": "blocking or impure construct reachable from a parallel "
               "scoring hot path",
    "crash-registry": "crashpoint site table and RECON_CRASH_POINT arming "
                      "sites disagree",
    "waiver": "malformed waiver pragma",
}

DEFAULT_PATHS = ["src", "tools/recon_cli.cc", "tests"]

# --- hotpath configuration --------------------------------------------------

# Reachability roots besides parallel-body lambdas: the scoring kernels.
HOT_ROOT_CLASSES = ("GammaKernel",)
HOT_ROOT_FUNCTIONS = ("marginal_gain", "empty_marginal_gains")

# Support files whose *internals* the hotpath pass does not scan: the thread
# pool's own chunk driver (its error-slot MutexLock sits on the exception
# path every parallel body necessarily runs under) and the logging backend
# (RECON_LOG is flagged at the usage site, not inside LogLine/log_write).
HOT_FILE_ALLOWLIST = (
    "src/util/thread_pool.h",
    "src/util/thread_pool.cc",
    "src/util/log.h",
    "src/util/log.cc",
)
# Files where raw clock reads are sanctioned tree-wide (mirrors the
# lint_invariants clock allowlist): the WallTimer wrapper and deadline code.
HOT_CLOCK_ALLOWLIST = (
    "src/util/timer.h",
    "src/solver/bnb.cc",
    "src/solver/fob.cc",
)

HOT_BANNED = (
    (re.compile(r"\bMutexLock\s+\w+\s*\("), "util::MutexLock acquisition"),
    (re.compile(r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock)\b"),
     "std mutex acquisition"),
    (re.compile(r"\bRECON_LOG\b"), "logging (RECON_LOG)"),
    (re.compile(r"\bstd\s*::\s*[oi]?fstream\b|\b[oi]fstream\b"),
     "file stream I/O"),
    (re.compile(r"\b(?:fopen|fwrite|fread|fprintf|fscanf|fgets|fputs)\s*\("),
     "C file I/O"),
    (re.compile(r"\bsleep_for\b|\bsleep_until\b|"
                r"\b(?:nanosleep|usleep)\s*\(|(?<![\w:.>_])sleep\s*\("),
     "blocking sleep"),
    (re.compile(r"\b(?:fsync|fdatasync|fork|waitpid|system|popen)\s*\("),
     "blocking syscall"),
)
HOT_BANNED_CLOCK = (
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)"
                r"\s*::\s*now\b"), "raw clock read"),
    # The timer wrappers read the same clocks: constructing one inside a hot
    # body is timing instrumentation on the scoring path. Sanctioned
    # measurement sites (e.g. the shard-calibration stopwatch, whose reading
    # steers only layout and can never change a selected batch) carry a
    # lint:hotpath-ok line waiver instead of a blanket allowlist entry.
    (re.compile(r"\b(?:util\s*::\s*)?(?:WallTimer|ScopedTimer)\b"),
     "wall-timer construction (wraps a raw clock read)"),
)

# Macro calls the lexical call scanner cannot see through: occurrences of the
# macro name in a body behave as a call to the named backend function.
MACRO_CALLS = {
    "RECON_LOG": "log_write",
    "RECON_CRASH_POINT": "hit",
}

# --- crash-registry configuration -------------------------------------------

SITE_TABLE_RE = re.compile(r"\bkSites\b[^={;()]*=\s*\{")
SITE_LITERAL_RE = re.compile(r'"([^"\n]+)"')
CRASH_POINT_RE = re.compile(r'\bRECON_CRASH_POINT\s*\(\s*"([^"\n]+)"\s*\)')

# --- lock annotations --------------------------------------------------------

REQUIRES_RE = re.compile(r"\bRECON_REQUIRES\s*\(\s*([^()]+?)\s*\)")
ACQUIRE_RE = re.compile(r"\bRECON_ACQUIRE\s*\(\s*([^()]+?)\s*\)")


# ---------------------------------------------------------------------------
# Cross-TU program model


@dataclass
class AnalyzedFile:
    sf: SourceFile
    waivers: Waivers
    functions: list[cpp.FunctionDef] = field(default_factory=list)
    classes: list[cpp.ClassBody] = field(default_factory=list)


class Program:
    """The whole-program model every pass queries: parsed files, class
    bodies, function definitions with bodies, and a simple-name call index."""

    def __init__(self, files: list[str], findings: list[Finding]):
        self.files: list[AnalyzedFile] = []
        self.by_simple: dict[str, list[tuple[AnalyzedFile, cpp.FunctionDef]]] = {}
        self.mutex_members: dict[str, list[str]] = {}  # leaf -> [Class::leaf]
        self.class_index: dict[str, list[tuple[AnalyzedFile, cpp.ClassBody]]] = {}
        for path in files:
            sf = SourceFile(path)
            waivers = Waivers(sf.path, sf.raw_lines, findings,
                              rules=RULES)
            af = AnalyzedFile(sf, waivers)
            af.functions = cpp.function_defs(sf.code, sf.path, sf.line_of)
            for fn in af.functions:
                fn.calls = cpp.called_names(fn.body)
                for macro, target in MACRO_CALLS.items():
                    if macro in fn.body:
                        fn.calls.add(target)
                self.by_simple.setdefault(fn.name, []).append((af, fn))
            af.classes = list(cpp.class_bodies(sf.code))
            for cb in af.classes:
                self.class_index.setdefault(cb.name, []).append((af, cb))
                for mm in cpp.MUTEX_MEMBER_RE.finditer(cb.body):
                    qual = f"{cb.name}::{mm.group(1)}"
                    bucket = self.mutex_members.setdefault(mm.group(1), [])
                    if qual not in bucket:
                        bucket.append(qual)
            self.files.append(af)

    def functions_sorted(self):
        for af in self.files:
            for fn in af.functions:
                yield af, fn

    def defs_of(self, simple: str, prefer_path: str | None = None):
        """All definitions of a simple name, same-file ones first."""
        out = list(self.by_simple.get(simple, ()))
        if prefer_path is not None:
            out.sort(key=lambda t: (t[0].sf.path != prefer_path,))
        return out


# ---------------------------------------------------------------------------
# Pass 1: lockgraph


def _resolve_lock(prog: Program, af: AnalyzedFile, fn: cpp.FunctionDef,
                  expr: str, leaf: str,
                  local_mutexes: set[str]) -> str:
    """Maps an acquisition expression to a stable lock node name.

    Function-local mutexes (static or not) are scoped to their function so two
    unrelated locals sharing a name cannot be conflated into a false cycle."""
    if leaf in local_mutexes:
        return f"{fn.qname}::{leaf}"
    candidates = prog.mutex_members.get(leaf, [])
    if fn.cls is not None and f"{fn.cls}::{leaf}" in candidates:
        return f"{fn.cls}::{leaf}"
    # `obj.leaf` / `obj->leaf`: resolve obj's declared type in this body.
    m = re.search(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*" + re.escape(leaf) + r"\s*$",
                  expr)
    if m is not None:
        obj = m.group(1)
        tm = re.search(
            r"\b([A-Za-z_]\w*)\s*(?:<[^;<>]*>)?\s*[&*]?\s+\b" + re.escape(obj)
            + r"\b\s*[=;({\[]", fn.body)
        if tm is not None and f"{tm.group(1)}::{leaf}" in candidates:
            return f"{tm.group(1)}::{leaf}"
    if len(candidates) == 1:
        return candidates[0]
    if candidates:
        return sorted(candidates)[0]  # ambiguous: deterministic choice
    return f"?::{leaf}"


@dataclass
class LockEdge:
    src: str
    dst: str
    path: str
    line: int
    note: str


def _lock_model(prog: Program):
    """Per-function direct acquisitions and the transitive may-acquire sets,
    then the held-while-acquiring edge list."""
    direct: dict[int, list[tuple[str, int, int, int]]] = {}
    # fn id -> [(lock, offset, scope_end, line)]
    req_held: dict[int, list[str]] = {}
    fn_by_id: dict[int, tuple[AnalyzedFile, cpp.FunctionDef]] = {}

    for af, fn in prog.functions_sorted():
        fid = id(fn)
        fn_by_id[fid] = (af, fn)
        local_mutexes = {
            m.group(1) for m in cpp.LOCAL_MUTEX_RE.finditer(fn.body)}
        acqs = []
        for a in cpp.acquisitions(fn.body):
            line = af.sf.line_of(fn.body_start + a.offset)
            # A waived acquisition site contributes no edges: the waiver
            # states the protocol that makes its ordering safe.
            if af.waivers.waived("lockgraph", line):
                continue
            lock = _resolve_lock(prog, af, fn, a.expr, a.leaf, local_mutexes)
            acqs.append((lock, a.offset, a.scope_end, line))
        # RECON_ACQUIRE(m): the function itself acquires m for its full body.
        for m in ACQUIRE_RE.finditer(fn.annotations):
            expr = m.group(1).strip()
            leaf_m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
            if leaf_m is not None:
                lock = _resolve_lock(prog, af, fn, expr, leaf_m.group(1),
                                     local_mutexes)
                acqs.append((lock, 0, len(fn.body), fn.line))
        direct[fid] = acqs
        held = []
        for m in REQUIRES_RE.finditer(fn.annotations):
            expr = m.group(1).strip()
            leaf_m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
            if leaf_m is not None:
                held.append(_resolve_lock(prog, af, fn, expr,
                                          leaf_m.group(1), local_mutexes))
        req_held[fid] = held

    # Transitive may-acquire fixpoint over the cross-TU call graph.
    may: dict[int, set[str]] = {
        fid: {lock for lock, *_ in acqs} for fid, acqs in direct.items()}
    for _ in range(32):
        changed = False
        for fid, (af, fn) in fn_by_id.items():
            acc = set(may[fid])
            for callee in fn.calls:
                for _caf, cfn in prog.by_simple.get(callee, ()):
                    if id(cfn) != fid:
                        acc |= may.get(id(cfn), set())
            if acc != may[fid]:
                may[fid] = acc
                changed = True
        if not changed:
            break

    edges: dict[tuple[str, str], LockEdge] = {}

    def add_edge(src: str, dst: str, path: str, line: int, note: str):
        key = (src, dst)
        if key not in edges:
            edges[key] = LockEdge(src, dst, path, line, note)

    for af, fn in prog.functions_sorted():
        fid = id(fn)
        acqs = direct[fid]
        held_all = [(lock, 0, len(fn.body), fn.line) for lock in req_held[fid]]
        for lock, off, scope_end, line in acqs + held_all:
            span = fn.body[off:scope_end]
            # Direct nested acquisitions inside the held scope.
            for lock2, off2, _e2, line2 in acqs:
                if off < off2 < scope_end:
                    add_edge(lock, lock2, af.sf.path, line2,
                             f"acquired in {fn.qname} while holding {lock}")
            # Calls made while holding: anything the callee may acquire.
            callees = cpp.called_names(span)
            for macro, target in MACRO_CALLS.items():
                if macro in span:
                    callees.add(target)
            for callee in sorted(callees):
                for _caf, cfn in prog.by_simple.get(callee, ()):
                    if id(cfn) == fid:
                        continue
                    for lock2 in sorted(may.get(id(cfn), ())):
                        add_edge(lock, lock2, af.sf.path, line,
                                 f"call to {cfn.qname} from {fn.qname} "
                                 f"while holding {lock}")
    return edges


def _find_cycle(edges: dict[tuple[str, str], LockEdge]):
    """Smallest-witness cycle search: self-edges first, then BFS from each
    node in sorted order. Returns an ordered edge list or None."""
    adj: dict[str, list[str]] = {}
    for (src, dst) in sorted(edges):
        adj.setdefault(src, []).append(dst)
    for (src, dst) in sorted(edges):
        if src == dst:
            return [edges[(src, dst)]]
    for start in sorted(adj):
        # BFS back to `start`.
        prev: dict[str, str] = {}
        queue = [start]
        seen = {start}
        found = None
        while queue and found is None:
            node = queue.pop(0)
            for nxt in adj.get(node, ()):
                if nxt == start:
                    found = node
                    break
                if nxt not in seen:
                    seen.add(nxt)
                    prev[nxt] = node
                    queue.append(nxt)
        if found is not None:
            path = [found]
            while path[-1] != start:
                path.append(prev[path[-1]])
            path.reverse()  # start ... found
            path.append(start)
            return [edges[(path[i], path[i + 1])]
                    for i in range(len(path) - 1)]
    return None


def pass_lockgraph(prog: Program, findings: list[Finding]):
    """Returns the edge map (for --dot) and appends cycle findings."""
    edges = _lock_model(prog)
    remaining = dict(edges)
    while True:
        cycle = _find_cycle(remaining)
        if cycle is None:
            break
        locks = [e.src for e in cycle] + [cycle[-1].dst]
        witness = " -> ".join(locks)
        evidence = "; ".join(
            f"{e.src}->{e.dst} at {e.path}:{e.line} ({e.note})"
            for e in cycle)
        anchor = cycle[0]
        findings.append(Finding(
            anchor.path, anchor.line, "lockgraph",
            f"lock-order cycle {witness}: a thread holding one lock can "
            f"block on another held in the opposite order (deadlock). "
            f"Witness: {evidence}. Fix the acquisition order or waive the "
            "acquisition site with lint:lockgraph-ok(protocol)"))
        for e in cycle:
            remaining.pop((e.src, e.dst), None)
    return edges


def export_dot(edges: dict[tuple[str, str], LockEdge]) -> str:
    lines = ["digraph lock_order {", "  rankdir=LR;",
             "  node [shape=box, fontname=\"monospace\"];"]
    nodes = sorted({n for key in edges for n in key})
    for n in nodes:
        lines.append(f'  "{n}";')
    for key in sorted(edges):
        e = edges[key]
        lines.append(f'  "{e.src}" -> "{e.dst}" '
                     f'[label="{e.path}:{e.line}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pass 2: ckpt-coverage


CKPT_PAIRS = (
    ("save_state", "restore_state"),
    ("serialize", "deserialize"),
)


def _method_body(prog: Program, af: AnalyzedFile, cb: cpp.ClassBody,
                 name: str) -> str | None:
    """Body of `cb.name::name`: inline definitions first, then out-of-line
    definitions anywhere in the program (same file preferred)."""
    for fn in af.functions:
        if fn.name == name and fn.cls == cb.name \
                and cb.body_start <= fn.body_start <= cb.body_end:
            return fn.body
    for other_af, fn in prog.defs_of(name, prefer_path=af.sf.path):
        if fn.cls == cb.name:
            return fn.body
    return None


def _method_closure(prog: Program, af: AnalyzedFile, cb: cpp.ClassBody,
                    body: str, depth: int = 2) -> str:
    """The side's body plus the bodies of same-class helpers it calls, up to
    `depth` levels — so `set_state_words(words)` counts as referencing
    `state_`."""
    parts = [body]
    frontier = [body]
    seen: set[str] = set()
    for _ in range(depth):
        nxt = []
        for text in frontier:
            for callee in sorted(cpp.called_names(text)):
                if callee in seen:
                    continue
                seen.add(callee)
                helper = _method_body(prog, af, cb, callee)
                if helper is not None:
                    parts.append(helper)
                    nxt.append(helper)
        frontier = nxt
    return "\n".join(parts)


def pass_ckpt_coverage(prog: Program, findings: list[Finding]) -> None:
    for af in prog.files:
        for cb in af.classes:
            for writer, reader in CKPT_PAIRS:
                has_w = re.search(r"\b" + writer + r"\s*\(", cb.body)
                has_r = re.search(r"\b" + reader + r"\s*\(", cb.body)
                if not (has_w and has_r):
                    continue
                wbody = _method_body(prog, af, cb, writer)
                rbody = _method_body(prog, af, cb, reader)
                if wbody is None or rbody is None:
                    continue  # declaration-only (interface): nothing to check
                wtext = _method_closure(prog, af, cb, wbody)
                rtext = _method_closure(prog, af, cb, rbody)
                for mf in cpp.member_fields(cb.body):
                    name_re = re.compile(r"\b" + re.escape(mf.name) + r"\b")
                    in_w = name_re.search(wtext) is not None
                    in_r = name_re.search(rtext) is not None
                    if in_w and in_r:
                        continue
                    line = af.sf.line_of(cb.body_start + mf.offset)
                    if af.waivers.waived("ckpt-coverage", line):
                        continue
                    if not in_w and not in_r:
                        missing = f"either {writer} or {reader}"
                    elif not in_w:
                        missing = writer
                    else:
                        missing = reader
                    findings.append(Finding(
                        af.sf.path, line, "ckpt-coverage",
                        f"member '{mf.name}' of {cb.name} is not referenced "
                        f"by {missing}: resume would silently lose or "
                        "default this state; reference it on both sides or "
                        "waive at the declaration naming why it is "
                        "derived/transient"))


# ---------------------------------------------------------------------------
# Pass 3: hotpath


PARALLEL_CALL_RE = re.compile(
    r"\bparallel_(for|reduce)\s*(?:<[^;()]*>)?\s*\(")


@dataclass
class HotRoot:
    label: str
    path: str
    line: int      # waiver anchor: the parallel call site or kernel def
    body: str
    af: AnalyzedFile
    fn_chain: tuple[str, ...]
    # File offset of the body's first character when known (inline lambda,
    # named lambda, kernel definition). Findings then anchor at the real
    # source line of the banned construct — a named-lambda body defined far
    # from its parallel_for call site would otherwise report call-site-
    # relative lines, putting waivers on the wrong statement.
    body_off: int | None = None


def _hot_roots(prog: Program) -> list[HotRoot]:
    roots: list[HotRoot] = []
    for af in prog.files:
        code = af.sf.code
        for m in PARALLEL_CALL_RE.finditer(code):
            kind = "parallel_" + m.group(1)
            open_p = m.end() - 1
            args = cpp.call_args(code, open_p)
            body_idx = 2 if m.group(1) == "for" else 3
            if len(args) <= body_idx:
                continue
            arg_text, arg_off = args[body_idx]
            line = af.sf.line_of(m.start())
            body = None
            body_off = None
            if arg_text.startswith("["):
                lb = cpp.lambda_body(code, code.index("[", arg_off))
                if lb is not None:
                    body, body_off = lb
            elif re.fullmatch(r"[A-Za-z_]\w*", arg_text):
                nl = cpp.named_lambda(code, arg_text)
                if nl is not None:
                    body, body_off = nl
                else:
                    for _oaf, fn in prog.defs_of(arg_text,
                                                 prefer_path=af.sf.path):
                        body = fn.body
                        # Offsets only make sense within this root's file.
                        if _oaf is af:
                            body_off = fn.body_start
                        break
            if body is None:
                continue
            roots.append(HotRoot(
                label=f"{kind} body at {af.sf.path}:{line}",
                path=af.sf.path, line=line, body=body, af=af,
                fn_chain=(f"{kind}@{af.sf.path}:{line}",),
                body_off=body_off))
        for fn in af.functions:
            if fn.cls in HOT_ROOT_CLASSES or \
                    (fn.cls is None and fn.name in HOT_ROOT_FUNCTIONS):
                roots.append(HotRoot(
                    label=f"scoring kernel {fn.qname} at "
                          f"{af.sf.path}:{fn.line}",
                    path=af.sf.path, line=fn.line, body=fn.body, af=af,
                    fn_chain=(fn.qname,), body_off=fn.body_start))
    roots.sort(key=lambda r: (r.path, r.line, r.label))
    return roots


def _scan_hot_body(af: AnalyzedFile, body: str, body_file_off: int | None,
                   chain: tuple[str, ...], root: HotRoot,
                   findings: list[Finding], reported: set) -> None:
    """Flags banned constructs in one body; offsets are file offsets when
    body_file_off is given (a FunctionDef or a root with a known body
    offset), else root-relative (the finding anchors at the root line)."""
    if any(af.sf.path.endswith(sfx) for sfx in HOT_FILE_ALLOWLIST):
        return
    banned = list(HOT_BANNED)
    if not any(af.sf.path.endswith(sfx) for sfx in HOT_CLOCK_ALLOWLIST):
        banned += list(HOT_BANNED_CLOCK)
    for pat, label in banned:
        for m in pat.finditer(body):
            if body_file_off is not None:
                line = af.sf.line_of(body_file_off + m.start())
            else:
                line = root.line + body.count("\n", 0, m.start())
            key = (af.sf.path, line, label)
            if key in reported:
                continue
            if af.waivers.waived("hotpath", line):
                reported.add(key)
                continue
            reported.add(key)
            via = " -> ".join(chain)
            findings.append(Finding(
                af.sf.path, line, "hotpath",
                f"{label} is reachable from {root.label} (via {via}): hot "
                "scoring paths must not block, perform I/O, take locks, "
                "log, or read raw clocks — move it off the hot path, or "
                "waive the banned line (cold/exception-only) or the "
                "parallel call site (coarse fan-out, not a scoring "
                "kernel) with lint:hotpath-ok(reason)"))


def pass_hotpath(prog: Program, findings: list[Finding]) -> None:
    reported: set = set()
    for root in _hot_roots(prog):
        if root.af.waivers.waived("hotpath", root.line):
            continue
        _scan_hot_body(root.af, root.body, root.body_off, root.fn_chain, root,
                       findings, reported)
        visited: set[int] = set()
        worklist: list[tuple[AnalyzedFile, cpp.FunctionDef,
                             tuple[str, ...]]] = []
        calls = cpp.called_names(root.body)
        for macro, target in MACRO_CALLS.items():
            if macro in root.body:
                calls.add(target)
        for callee in sorted(calls):
            for caf, cfn in prog.defs_of(callee, prefer_path=root.path):
                if id(cfn) not in visited:
                    visited.add(id(cfn))
                    worklist.append((caf, cfn,
                                     root.fn_chain + (cfn.qname,)))
        while worklist:
            caf, cfn, chain = worklist.pop(0)
            if caf.waivers.waived("hotpath", cfn.line):
                continue
            _scan_hot_body(caf, cfn.body, cfn.body_start, chain, root,
                           findings, reported)
            for callee in sorted(cfn.calls):
                for naf, nfn in prog.defs_of(callee, prefer_path=caf.sf.path):
                    if id(nfn) not in visited:
                        visited.add(id(nfn))
                        worklist.append((naf, nfn, chain + (nfn.qname,)))


# ---------------------------------------------------------------------------
# Pass 4: crash-registry


def pass_crash_registry(prog: Program, findings: list[Finding]) -> None:
    # (site -> [(path, line)]) for table entries and arming sites, from RAW
    # text: string literals are blanked in stripped code.
    table: dict[str, list[tuple[str, int]]] = {}
    armed: dict[str, list[tuple[str, int]]] = {}
    any_table = False
    for af in prog.files:
        text = af.sf.text
        for tm in SITE_TABLE_RE.finditer(text):
            open_b = text.index("{", tm.start())
            close_b = cpp.match_delim(text, open_b, "{", "}")
            if close_b < 0:
                continue
            any_table = True
            seen_here: set[str] = set()
            for lm in SITE_LITERAL_RE.finditer(text, open_b, close_b):
                site = lm.group(1)
                line = text.count("\n", 0, lm.start()) + 1
                if site in seen_here:
                    if not af.waivers.waived("crash-registry", line):
                        findings.append(Finding(
                            af.sf.path, line, "crash-registry",
                            f"duplicate kSites entry '{site}': the site "
                            "table must list each crash point exactly once"))
                    continue
                seen_here.add(site)
                table.setdefault(site, []).append((af.sf.path, line))
        for am in CRASH_POINT_RE.finditer(text):
            site = am.group(1)
            line = text.count("\n", 0, am.start()) + 1
            armed.setdefault(site, []).append((af.sf.path, line))
    if not any_table and not armed:
        return  # nothing crash-point related in the scanned set
    for site in sorted(armed):
        if site in table:
            continue
        for path, line in armed[site]:
            af = next(a for a in prog.files if a.sf.path == path)
            if af.waivers.waived("crash-registry", line):
                continue
            where = ("no kSites registry is in the scanned set"
                     if not any_table else
                     "it is missing from the kSites registry")
            findings.append(Finding(
                path, line, "crash-registry",
                f"RECON_CRASH_POINT site '{site}' is armed here but {where}:"
                " the chaos sweep enumerates the registry, so an unlisted "
                "site is never exercised — add it to the site table"))
    for site in sorted(table):
        if site in armed:
            continue
        for path, line in table[site]:
            af = next(a for a in prog.files if a.sf.path == path)
            if af.waivers.waived("crash-registry", line):
                continue
            findings.append(Finding(
                path, line, "crash-registry",
                f"registered crash site '{site}' has no RECON_CRASH_POINT "
                "arming site in the scanned tree: a stale registry entry "
                "makes the chaos sweep report coverage it does not have — "
                "remove the entry or restore the instrumentation"))


# ---------------------------------------------------------------------------
# Driver


PASSES = {
    "lockgraph": pass_lockgraph,
    "ckpt-coverage": pass_ckpt_coverage,
    "hotpath": pass_hotpath,
    "crash-registry": pass_crash_registry,
}


def analyze(files: list[str], passes: list[str]) -> tuple[list[Finding], dict]:
    findings: list[Finding] = []
    prog = Program(files, findings)
    lock_edges: dict = {}
    for name in passes:
        if name == "lockgraph":
            lock_edges = pass_lockgraph(prog, findings)
        else:
            PASSES[name](prog, findings)
    return findings, lock_edges


EXPECT_RE = re.compile(r"//\s*analyze-expect:\s*([a-z-]+)")


def run_selftest(fixture_dir: str) -> int:
    def check(files: list[str]) -> list[Finding]:
        findings, _ = analyze(files, list(PASSES))
        return sorted_findings(findings)

    return _run_fixture_selftest(fixture_dir, EXPECT_RE, check,
                                 tool="analyze_program", grouped=True)


def run_selftest_json(fixture_dir: str) -> int:
    """Runs --json over the fixture tree under two PYTHONHASHSEED values and
    requires byte-identical, parseable, stable-sorted output — the tooling
    obeys the same no-hash-order-leakage rule it enforces on the C++ tree."""
    import json
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--json", fixture_dir],
            capture_output=True, text=True, env=env)
        if proc.returncode not in (0, 1):
            print(f"analyze_program --selftest-json: child exited "
                  f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return 1
        outs.append(proc.stdout)
    if outs[0] != outs[1]:
        print("analyze_program --selftest-json: output differs across "
              "PYTHONHASHSEED values (hash-order leakage)", file=sys.stderr)
        return 1
    doc = json.loads(outs[0])  # raises (fails) if not round-trippable
    keys = [(f["path"], f["line"], f["rule"], f["message"])
            for f in doc["findings"]]
    if keys != sorted(keys):
        print("analyze_program --selftest-json: findings are not "
              "stable-sorted", file=sys.stderr)
        return 1
    if not doc["findings"]:
        print("analyze_program --selftest-json: fixture tree produced no "
              "findings — the round-trip check needs real payloads",
              file=sys.stderr)
        return 1
    print(f"analyze_program --selftest-json: OK ({len(doc['findings'])} "
          "findings byte-identical across hash seeds, sorted, "
          "round-trippable)")
    return 0


def main(argv: list[str]) -> int:
    if "--list-rules" in argv:
        for rule, summary in RULES.items():
            print(f"{rule:16} {summary}")
        return 0
    for flag, runner in (("--selftest", run_selftest),
                         ("--selftest-json", run_selftest_json)):
        if flag in argv:
            i = argv.index(flag)
            if i + 1 >= len(argv):
                print(f"usage: analyze_program.py {flag} DIR",
                      file=sys.stderr)
                return 2
            return runner(argv[i + 1])

    passes: list[str] = []
    dot_path: str | None = None
    json_out = False
    paths: list[str] = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--pass":
            i += 1
            if i >= len(argv) or argv[i] not in PASSES:
                print("analyze_program: --pass needs one of "
                      + ", ".join(sorted(PASSES)), file=sys.stderr)
                return 2
            passes.append(argv[i])
        elif a == "--dot":
            i += 1
            if i >= len(argv):
                print("analyze_program: --dot needs a file path ('-' for "
                      "stdout)", file=sys.stderr)
                return 2
            dot_path = argv[i]
        elif a == "--json":
            json_out = True
        elif a.startswith("-"):
            print(f"analyze_program: unknown option {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
        i += 1
    if not passes:
        passes = sorted(PASSES)
    if dot_path is not None and "lockgraph" not in passes:
        passes.append("lockgraph")
    passes.sort()

    files = collect_files(paths or DEFAULT_PATHS, tool="analyze_program")
    findings, lock_edges = analyze(files, passes)
    if dot_path is not None:
        dot = export_dot(lock_edges)
        if dot_path == "-":
            sys.stdout.write(dot)
        else:
            with open(dot_path, "w", encoding="utf-8") as f:
                f.write(dot)
    if json_out:
        sys.stdout.write(findings_to_json(
            findings, tool="analyze_program", files_scanned=len(files),
            extra={"passes": passes}))
    else:
        print_findings(findings)
        if findings:
            print(f"analyze_program: {len(findings)} finding(s) in "
                  f"{len(files)} file(s)", file=sys.stderr)
        else:
            print(f"analyze_program: OK ({len(files)} files clean; passes: "
                  + ", ".join(passes) + ")")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
