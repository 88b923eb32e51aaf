#!/usr/bin/env python3
"""Determinism-contract linter for the gossip reproduction.

The repo's core claim is bit-identical trajectories across TrialRunner
workers x engine threads (README "Determinism
contracts"). Most violations of that claim are not crashes - they are a
stray wall-clock read, a hash-ordered iteration, or a float reduction
whose result depends on merge order. This linter walks every C++ file
under src/ with a small C++ tokenizer (comments are kept as tokens: the
`// GOSSIP_HOT` annotations and `// gossip-lint: allow(...)` suppressions
live there) and enforces four rule classes:

  raw-random       std::mt19937 / random_device / rand() outside the
                   repo's counter-based RNG (common/rng.*). Every draw
                   must come from a seeded, forkable stream.
  wall-clock       <chrono> clock ::now() reads outside obs/ (telemetry
                   may timestamp; simulation logic may not). Clock
                   aliases (`using Clock = std::chrono::steady_clock`)
                   are tracked per file.
  unordered-decl   unordered_map/unordered_set anywhere in the
                   order-sensitive layers (cluster/, core/, runner/,
                   obs/, analysis/, membership/) - these layers feed
                   reports and merges, where hash order leaks straight
                   into output.
  unordered-iter   iteration (range-for, .begin()) over a variable
                   declared with an unordered container, anywhere in
                   src/. Membership-only probes are fine; traversal
                   order is not.
  float-accum      float/double tokens inside merge*/accumulate*
                   function bodies or RoundStats members. Cross-shard
                   merges must stay integral so the reduction order
                   cannot change the result.
  hot-throw        `throw` inside a `// GOSSIP_HOT` region.
  hot-new          `new` inside a hot region.
  hot-std-function std::function inside a hot region (type-erased call
                   + allocation on the per-contact path).
  hot-push-back    push_back/emplace_back inside a hot region with no
                   visible `<recv>.reserve(` in the file - amortized
                   growth spikes are real latency on the hot path.
                   Justified spill paths carry an inline allow.

Suppressions: `// gossip-lint: allow(<rule>[, <rule>...]) <reason>` on
the finding's line or up to 3 lines above it. Long-lived, justified
findings live in tools/lint_baseline.txt instead - the baseline is
machine-checked both ways (new findings fail; stale entries fail), so it
can only be changed deliberately via --update-baseline.

Exit codes: 0 clean (scan matches baseline exactly), 1 findings or a
stale baseline, 2 usage errors. Stdlib only; no libclang.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------


class Tok(NamedTuple):
    kind: str  # 'id' | 'num' | 'string' | 'char' | 'punct' | 'comment'
    val: str
    line: int


_RAW_OPEN = re.compile(r'R"([^()\\\s]{0,16})\(')


def tokenize(text: str) -> List[Tok]:
    toks: List[Tok] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            toks.append(Tok("comment", text[i:j], line))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            toks.append(Tok("comment", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            m = _RAW_OPEN.match(text, i)
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, m.end())
                j = n if j == -1 else j + len(close)
                toks.append(Tok("string", text[i:j], line))
                line += text.count("\n", i, j)
                i = j
                continue
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Tok("string" if c == '"' else "char", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'"):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        toks.append(Tok("punct", c, line))
        i += 1
    return toks


# --------------------------------------------------------------------------
# Findings and suppression
# --------------------------------------------------------------------------


class Finding(NamedTuple):
    rule: str
    path: str
    line: int
    message: str


ALL_RULES = (
    "raw-random",
    "wall-clock",
    "unordered-decl",
    "unordered-iter",
    "float-accum",
    "hot-throw",
    "hot-new",
    "hot-std-function",
    "hot-push-back",
)

_ALLOW_RE = re.compile(r"gossip-lint:\s*allow\(([a-z\-,\s]+)\)")
_ALLOW_WINDOW = 3  # lines above a finding an allow comment may sit on

# Layers whose outputs are order-sensitive end to end (reports, merges,
# JSON): unordered containers are banned at declaration there.
ORDER_SENSITIVE_DIRS = {"cluster", "core", "runner", "obs", "analysis", "membership"}

UNORDERED_TYPES = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
}
CHRONO_CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}
RANDOM_IDS = {
    "mt19937",
    "mt19937_64",
    "minstd_rand",
    "minstd_rand0",
    "default_random_engine",
    "random_device",
    "ranlux24",
    "ranlux48",
    "knuth_b",
}


def allow_lines(toks: Sequence[Tok]) -> Dict[int, Set[str]]:
    allows: Dict[int, Set[str]] = {}
    for t in toks:
        if t.kind != "comment":
            continue
        m = _ALLOW_RE.search(t.val)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            allows.setdefault(t.line, set()).update(rules)
    return allows


def suppressed(f: Finding, allows: Dict[int, Set[str]]) -> bool:
    for line in range(f.line - _ALLOW_WINDOW, f.line + 1):
        if f.rule in allows.get(line, set()):
            return True
    return False


# --------------------------------------------------------------------------
# Token helpers
# --------------------------------------------------------------------------


def match_brace(code: Sequence[Tok], open_idx: int) -> int:
    """Index of the '}' matching code[open_idx] == '{' (len(code) if EOF)."""
    depth = 0
    for i in range(open_idx, len(code)):
        v = code[i].val
        if code[i].kind == "punct":
            if v == "{":
                depth += 1
            elif v == "}":
                depth -= 1
                if depth == 0:
                    return i
    return len(code)


def match_paren(code: Sequence[Tok], open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(code)):
        v = code[i].val
        if code[i].kind == "punct":
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    return i
    return len(code)


def match_angle(code: Sequence[Tok], open_idx: int) -> int:
    """Heuristic template-argument matcher for code[open_idx] == '<'."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i].kind != "punct":
            continue
        v = code[i].val
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return i
        elif v == ";":  # gave up: it was a comparison, not a template
            return open_idx
    return open_idx


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


def clock_aliases(code: Sequence[Tok]) -> Set[str]:
    """Names bound via `using X = ...steady_clock...;` (and the clocks)."""
    names = set(CHRONO_CLOCKS)
    i = 0
    while i < len(code) - 3:
        if code[i].val == "using" and code[i + 1].kind == "id" and code[i + 2].val == "=":
            j = i + 3
            rhs: Set[str] = set()
            while j < len(code) and code[j].val != ";":
                if code[j].kind == "id":
                    rhs.add(code[j].val)
                j += 1
            if rhs & CHRONO_CLOCKS:
                names.add(code[i + 1].val)
            i = j
        i += 1
    return names


def rule_random_and_clock(relpath: str, code: Sequence[Tok]) -> List[Finding]:
    out: List[Finding] = []
    top = relpath.split("/", 1)[0]
    exempt_random = relpath.startswith("common/rng.") or top == "obs"
    exempt_clock = top == "obs"
    clocks = clock_aliases(code)
    for i, t in enumerate(code):
        if t.kind != "id":
            continue
        if not exempt_random:
            if t.val in RANDOM_IDS:
                out.append(Finding("raw-random", relpath, t.line,
                                   f"'{t.val}' bypasses the seeded counter-based "
                                   "RNG (common/rng.hpp); draws must be "
                                   "replayable from (seed, round, shard)"))
            elif t.val in ("rand", "srand") and i + 1 < len(code) \
                    and code[i + 1].val == "(" \
                    and (i == 0 or code[i - 1].val not in (".", ">", ":")):
                out.append(Finding("raw-random", relpath, t.line,
                                   f"'{t.val}()' is unseeded global state"))
        if not exempt_clock:
            if (t.val == "now" and i >= 3
                    and code[i - 1].val == ":" and code[i - 2].val == ":"
                    and code[i - 3].val in clocks
                    and i + 1 < len(code) and code[i + 1].val == "("):
                out.append(Finding("wall-clock", relpath, t.line,
                                   f"'{code[i - 3].val}::now()' reads the wall "
                                   "clock; simulation logic must be a pure "
                                   "function of (seed, config)"))
    return out


def unordered_decl_names(code: Sequence[Tok]) -> List[Tuple[str, int]]:
    """(name, line) of variables/members declared with an unordered type."""
    names: List[Tuple[str, int]] = []
    i = 0
    while i < len(code):
        if code[i].kind == "id" and code[i].val in UNORDERED_TYPES:
            j = i + 1
            if j < len(code) and code[j].val == "<":
                close = match_angle(code, j)
                if close > j:
                    k = close + 1
                    while k < len(code) and code[k].val in ("&", "*", "const"):
                        k += 1
                    if k < len(code) and code[k].kind == "id":
                        names.append((code[k].val, code[k].line))
        i += 1
    return names


def rule_unordered(relpath: str, code: Sequence[Tok]) -> List[Finding]:
    out: List[Finding] = []
    top = relpath.split("/", 1)[0]
    if top in ORDER_SENSITIVE_DIRS:
        for t in code:
            if t.kind == "id" and t.val in UNORDERED_TYPES:
                out.append(Finding("unordered-decl", relpath, t.line,
                                   f"'{t.val}' in an order-sensitive layer "
                                   f"(src/{top}/); hash order leaks into "
                                   "merges and reports - use a sorted or "
                                   "capacity-indexed container"))
    names = {n for n, _ in unordered_decl_names(code)}
    if not names:
        return out
    for i, t in enumerate(code):
        if t.kind == "id" and t.val == "for" and i + 1 < len(code) \
                and code[i + 1].val == "(":
            close = match_paren(code, i + 1)
            depth = 0
            for j in range(i + 1, close):
                v = code[j].val
                if code[j].kind == "punct":
                    if v == "(":
                        depth += 1
                    elif v == ")":
                        depth -= 1
                    elif v == ":" and depth == 1 \
                            and code[j - 1].val != ":" and code[j + 1].val != ":":
                        for k in range(j + 1, close):
                            if code[k].kind == "id" and code[k].val in names:
                                out.append(Finding(
                                    "unordered-iter", relpath, code[k].line,
                                    f"range-for over unordered container "
                                    f"'{code[k].val}': traversal order is the "
                                    "hash function, not the data"))
                                break
                        break
        if t.kind == "id" and t.val in ("begin", "cbegin", "rbegin") \
                and i >= 2 and code[i - 1].val == "." \
                and code[i - 2].kind == "id" and code[i - 2].val in names:
            out.append(Finding("unordered-iter", relpath, t.line,
                               f"'{code[i - 2].val}.{t.val}()' walks an "
                               "unordered container in hash order"))
    return out


_MERGE_NAME = re.compile(r"^(merge|accumulate)")


def rule_float_accum(relpath: str, code: Sequence[Tok]) -> List[Finding]:
    out: List[Finding] = []
    i = 0
    while i < len(code):
        t = code[i]
        # merge*/accumulate* function DEFINITIONS (call sites end in ';').
        if t.kind == "id" and _MERGE_NAME.match(t.val) and i + 1 < len(code) \
                and code[i + 1].val == "(":
            close = match_paren(code, i + 1)
            k = close + 1
            hops = 0
            while k < len(code) and hops < 12 and code[k].val not in ("{", ";", "="):
                k += 1
                hops += 1
            if k < len(code) and code[k].val == "{":
                end = match_brace(code, k)
                for j in range(k, end):
                    if code[j].kind == "id" and code[j].val in ("float", "double"):
                        out.append(Finding(
                            "float-accum", relpath, code[j].line,
                            f"'{code[j].val}' inside '{t.val}': cross-shard "
                            "merges must accumulate in integers so the "
                            "reduction order cannot change the result"))
                i = end
        # RoundStats members stay integral - its deltas are merged.
        if t.kind == "id" and t.val == "RoundStats" and i >= 1 \
                and code[i - 1].val in ("struct", "class") and i + 1 < len(code):
            k = i + 1
            while k < len(code) and code[k].val not in ("{", ";"):
                k += 1
            if k < len(code) and code[k].val == "{":
                end = match_brace(code, k)
                for j in range(k, end):
                    if code[j].kind == "id" and code[j].val in ("float", "double"):
                        out.append(Finding(
                            "float-accum", relpath, code[j].line,
                            "float member in RoundStats: per-shard deltas of "
                            "this struct are merged, so members must be "
                            "order-insensitive (integral) counters"))
                i = end
        i += 1
    return out


def _has_reserve(code: Sequence[Tok], receiver: Optional[str]) -> bool:
    if receiver is None:
        return False
    for i in range(len(code) - 2):
        if code[i].kind == "id" and code[i].val == receiver \
                and code[i + 1].val in (".",) and code[i + 2].val == "reserve":
            return True
        if code[i].kind == "id" and code[i].val == receiver \
                and code[i + 1].val == "-" and i + 3 < len(code) \
                and code[i + 2].val == ">" and code[i + 3].val == "reserve":
            return True
    return False


def rule_hot_regions(relpath: str, toks: Sequence[Tok],
                     code: Sequence[Tok]) -> List[Finding]:
    out: List[Finding] = []
    # Map each GOSSIP_HOT comment to the first code token after it.
    code_pos = 0
    hot_starts: List[int] = []
    for t in toks:
        if t.kind == "comment" and "GOSSIP_HOT" in t.val:
            while code_pos < len(code) and (code[code_pos].line < t.line
                                            or code[code_pos].line == t.line):
                # same-line code before the comment is already behind us;
                # a trailing `// GOSSIP_HOT` annotates what FOLLOWS.
                if code[code_pos].line > t.line:
                    break
                code_pos += 1
            hot_starts.append(code_pos)
        elif t.kind != "comment":
            pass
    seen: Set[Tuple[str, int, str]] = set()
    for start in hot_starts:
        open_idx = start
        while open_idx < len(code) and code[open_idx].val != "{":
            open_idx += 1
        if open_idx >= len(code):
            continue
        end = match_brace(code, open_idx)
        for j in range(open_idx + 1, end):
            t = code[j]
            if t.kind != "id":
                continue
            f: Optional[Finding] = None
            if t.val == "throw":
                f = Finding("hot-throw", relpath, t.line,
                            "'throw' in a GOSSIP_HOT region (use GOSSIP_DCHECK "
                            "for audit-only contracts; unwinding machinery has "
                            "no place on the per-contact path)")
            elif t.val == "new":
                f = Finding("hot-new", relpath, t.line,
                            "'new' in a GOSSIP_HOT region: allocation on the "
                            "per-contact path")
            elif t.val == "function" and j >= 2 and code[j - 1].val == ":" \
                    and code[j - 2].val == ":" and j >= 3 and code[j - 3].val == "std":
                f = Finding("hot-std-function", relpath, t.line,
                            "std::function in a GOSSIP_HOT region: type-erased "
                            "dispatch and possible allocation per call")
            elif t.val in ("push_back", "emplace_back"):
                receiver = None
                if j >= 2 and code[j - 1].val == "." and code[j - 2].kind == "id":
                    receiver = code[j - 2].val
                if not _has_reserve(code, receiver):
                    who = f"'{receiver}.{t.val}'" if receiver else f"'{t.val}'"
                    f = Finding("hot-push-back", relpath, t.line,
                                f"{who} in a GOSSIP_HOT region with no visible "
                                "reserve() for the receiver; growth "
                                "reallocation is a latency spike on the hot "
                                "path (annotate a justified spill with "
                                "gossip-lint: allow(hot-push-back))")
            if f is not None:
                key = (f.rule, f.line, f.message)
                if key not in seen:
                    seen.add(key)
                    out.append(f)
    return out


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def scan_source(relpath: str, text: str) -> List[Finding]:
    toks = tokenize(text)
    code = [t for t in toks if t.kind != "comment"]
    allows = allow_lines(toks)
    findings: List[Finding] = []
    findings += rule_random_and_clock(relpath, code)
    findings += rule_unordered(relpath, code)
    findings += rule_float_accum(relpath, code)
    findings += rule_hot_regions(relpath, toks, code)
    return sorted((f for f in findings if not suppressed(f, allows)),
                  key=lambda f: (f.path, f.line, f.rule))


def scan_tree(src_root: str) -> List[Finding]:
    findings: List[Finding] = []
    for dirpath, _dirs, files in sorted(os.walk(src_root)):
        for name in sorted(files):
            if not name.endswith((".hpp", ".cpp", ".h", ".cc")):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, src_root).replace(os.sep, "/")
            with open(full, "r", encoding="utf-8", errors="replace") as fh:
                findings += scan_source(rel, fh.read())
    return findings


def load_baseline(path: str) -> Counter:
    counts: Counter = Counter()
    if not os.path.exists(path):
        return counts
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SystemExit(f"error: malformed baseline line: {line!r}")
            counts[(parts[0], parts[1])] = int(parts[2])
    return counts


def write_baseline(path: str, counts: Counter) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# gossip_lint suppression baseline - machine checked.\n")
        fh.write("# Regenerate with: python3 tools/gossip_lint.py --update-baseline\n")
        fh.write("# rule\tpath (relative to src/)\tcount\n")
        for (rule, path_), count in sorted(counts.items()):
            fh.write(f"{rule}\t{path_}\t{count}\n")


def check_against_baseline(findings: List[Finding], baseline: Counter) -> Tuple[List[Finding], List[str]]:
    """(non-baselined findings, stale-baseline complaints)."""
    found = Counter((f.rule, f.path) for f in findings)
    fresh: List[Finding] = []
    budget = dict(baseline)
    for f in findings:
        key = (f.rule, f.path)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            fresh.append(f)
    stale = [f"stale baseline entry: {rule}\t{path} "
             f"(baseline {baseline[(rule, path)]}, found {found.get((rule, path), 0)})"
             for (rule, path) in sorted(baseline)
             if found.get((rule, path), 0) < baseline[(rule, path)]]
    return fresh, stale


# --------------------------------------------------------------------------
# Selftest: every rule class must fire on a seeded violation and stay
# quiet on the clean / suppressed variant.
# --------------------------------------------------------------------------

_SELFTEST_CASES: List[Tuple[str, str, str, List[str]]] = [
    ("raw-random fires", "core/x.cpp",
     "#include <random>\nvoid f() { std::mt19937 gen(42); }\n",
     ["raw-random"]),
    ("raw-random exempt in common/rng", "common/rng.cpp",
     "#include <random>\nvoid f() { std::random_device rd; }\n",
     []),
    ("rand() fires", "sim/x.cpp",
     "#include <cstdlib>\nint f() { return rand(); }\n",
     ["raw-random"]),
    ("wall-clock via alias fires", "sim/x.cpp",
     "#include <chrono>\nusing Clock = std::chrono::steady_clock;\n"
     "auto f() { return Clock::now(); }\n",
     ["wall-clock"]),
    ("wall-clock direct fires", "runner/x.cpp",
     "#include <chrono>\nauto f() { return std::chrono::steady_clock::now(); }\n",
     ["wall-clock"]),
    ("wall-clock exempt in obs/", "obs/x.cpp",
     "#include <chrono>\nauto f() { return std::chrono::steady_clock::now(); }\n",
     []),
    ("unordered-decl fires in cluster/", "cluster/x.cpp",
     "#include <unordered_map>\nstd::unordered_map<int, int> m;\n",
     ["unordered-decl", "unordered-decl"]),
    ("unordered decl alone OK in sim/", "sim/x.cpp",
     "#include <unordered_set>\nstd::unordered_set<int> s;\n"
     "bool f(int v) { return s.count(v) != 0; }\n",
     []),
    ("unordered-iter range-for fires", "sim/x.cpp",
     "#include <unordered_map>\nstd::unordered_map<int, int> m;\n"
     "int f() { int t = 0; for (const auto& kv : m) t += kv.second; return t; }\n",
     ["unordered-iter"]),
    ("unordered-iter begin() fires", "sim/x.cpp",
     "#include <unordered_map>\nstd::unordered_map<int, int> m;\n"
     "auto f() { return m.begin(); }\n",
     ["unordered-iter"]),
    ("float-accum in merge body fires", "sim/x.cpp",
     "struct S { long v; };\nvoid merge_delta(const S& s) { double acc = 0; (void)s; (void)acc; }\n",
     ["float-accum"]),
    ("double ratio helper is fine", "sim/x.cpp",
     "struct R { long a = 0, b = 0;\n"
     "  double ratio() const { return b == 0 ? 0.0 : double(a) / double(b); }\n};\n",
     []),
    ("RoundStats float member fires", "sim/x.cpp",
     "struct RoundStats { double mean = 0.0; };\n",
     ["float-accum"]),
    ("hot throw fires", "sim/x.cpp",
     "// GOSSIP_HOT\nvoid f(bool b) { if (b) throw 1; }\n",
     ["hot-throw"]),
    ("hot new fires", "sim/x.cpp",
     "// GOSSIP_HOT\nint* f() { return new int(3); }\n",
     ["hot-new"]),
    ("hot std::function fires", "sim/x.cpp",
     "#include <functional>\n// GOSSIP_HOT\n"
     "void f() { std::function<void()> g = [] {}; g(); }\n",
     ["hot-std-function"]),
    ("hot push_back without reserve fires", "sim/x.cpp",
     "#include <vector>\nstd::vector<int> v;\n"
     "// GOSSIP_HOT\nvoid f(int x) { v.push_back(x); }\n",
     ["hot-push-back"]),
    ("hot push_back with reserve is fine", "sim/x.cpp",
     "#include <vector>\nstd::vector<int> v;\n"
     "void setup(int n) { v.reserve(n); }\n"
     "// GOSSIP_HOT\nvoid f(int x) { v.push_back(x); }\n",
     []),
    ("hot push_back with allow is fine", "sim/x.cpp",
     "#include <vector>\nstd::vector<int> v;\n"
     "// GOSSIP_HOT\nvoid f(int x) {\n"
     "  // gossip-lint: allow(hot-push-back) rare spill path\n"
     "  v.push_back(x);\n}\n",
     []),
    ("hot region ends at its brace", "sim/x.cpp",
     "// GOSSIP_HOT\nvoid f() { }\n"
     "void g(bool b) { if (b) throw 1; }\n",
     []),
    ("suppression comment works", "core/x.cpp",
     "#include <random>\n"
     "// gossip-lint: allow(raw-random) seeded torture-test fixture\n"
     "std::mt19937 gen(42);\n",
     []),
    ("rules ignore comments and strings", "core/x.cpp",
     "// std::mt19937 in prose, for (auto x : m) too\n"
     "const char* s = \"std::unordered_map<int,int> rand() throw\";\n",
     []),
]


def selftest() -> int:
    failed = 0
    for name, relpath, source, expected in _SELFTEST_CASES:
        got = sorted(f.rule for f in scan_source(relpath, source))
        want = sorted(expected)
        if got == want:
            print(f"  PASS  {name}")
        else:
            failed += 1
            print(f"  FAIL  {name}: expected {want}, got {got}")
    total = len(_SELFTEST_CASES)
    print(f"selftest: {total - failed}/{total} cases passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def main(argv: Sequence[str]) -> int:
    repo_default = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(
        description="Determinism-contract linter for src/ (see module docstring).")
    ap.add_argument("--root", default=repo_default,
                    help="repository root (default: the checkout containing this script)")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default: <root>/tools/lint_baseline.txt)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from the current scan and exit 0")
    ap.add_argument("--no-baseline", action="store_true",
                    help="report every finding, ignoring the baseline")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write findings as JSON (CI artifact)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the embedded rule self-tests and exit")
    args = ap.parse_args(argv)

    if args.selftest:
        return selftest()

    src_root = os.path.join(args.root, "src")
    if not os.path.isdir(src_root):
        print(f"error: no src/ under {args.root}", file=sys.stderr)
        return 2
    baseline_path = args.baseline or os.path.join(args.root, "tools", "lint_baseline.txt")

    findings = scan_tree(src_root)
    counts = Counter((f.rule, f.path) for f in findings)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"findings": [f._asdict() for f in findings],
                       "counts": {f"{r}\t{p}": c for (r, p), c in sorted(counts.items())}},
                      fh, indent=2)
            fh.write("\n")

    if args.update_baseline:
        write_baseline(baseline_path, counts)
        print(f"baseline updated: {baseline_path} "
              f"({sum(counts.values())} finding(s) across {len(counts)} key(s))")
        return 0

    baseline = Counter() if args.no_baseline else load_baseline(baseline_path)
    fresh, stale = check_against_baseline(findings, baseline)

    for f in fresh:
        print(f"src/{f.path}:{f.line}: [{f.rule}] {f.message}")
    for s in stale:
        print(s)
    baselined = sum(counts.values()) - len(fresh)
    if fresh or stale:
        print(f"gossip_lint: {len(fresh)} new finding(s), {len(stale)} stale "
              f"baseline entr(ies), {baselined} baselined - FAIL")
        if stale:
            print("  (baseline out of date: rerun with --update-baseline and "
                  "review the diff)")
        return 1
    print(f"gossip_lint: clean ({baselined} baselined finding(s), "
          f"{len(baseline)} baseline key(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
