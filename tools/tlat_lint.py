#!/usr/bin/env python3
"""tlat-lint: project-owned determinism/concurrency-contract analysis.

The reproduction's guarantees -- bit-identical sweeps at any --jobs
count, byte-identical metrics JSON and checkpoints at any chunk size,
fused simulateBatch == reference loop -- depend on source-level
invariants the type system cannot see. This linter runs in two
phases: phase 1 builds a whole-tree index (every C++ file under src/,
bench/ and tools/, comment-stripped, plus the resolved project
include graph), phase 2 enforces named, individually suppressible
rules over it. tests/ is exempt: tests may use hostile randomness,
raw threads and unordered iteration to prove the production code
tolerates neither.

Per-file rules:

  unordered-iter  iterating a std::unordered_map/unordered_set feeds
                  hash order into whatever consumes the loop. Emission
                  paths (JsonWriter, checkpoints, text reports) must
                  iterate an ordered projection instead. The rule
                  accepts a loop whose collected result is passed to
                  std::sort/std::stable_sort later in the same
                  function ("ordered projection"), or an explicit
                  justification comment.

  raw-rand        rand()/srand()/std::time()/std::random_device tie
                  results to process state or the wall clock. All
                  randomness outside tests/ must come from util::Rng
                  seeded via harness::cellSeed().

  float-accum     float/double accumulation (+=) inside merge-named
                  functions: sweep merges must combine integer
                  counters; derived ratios are computed once at the
                  end, never accumulated, so cell merge order can
                  never perturb low bits.

  env-read        getenv() is process-global configuration no audit
                  can enumerate when it is scattered. Every
                  environment read goes through the util::env front
                  door (src/util/env.cc is the only sanctioned raw
                  getenv site), so the complete knob surface is one
                  grep away.

  lock-discipline raw std::mutex/std::lock_guard/std::unique_lock/
                  std::condition_variable/std::atomic spellings are
                  confined to the annotated wrapper (src/util/
                  mutex.hh) and an explicit sanctioned list. A raw
                  lock carries no thread-safety attributes, so clang's
                  -Wthread-safety analysis (the clang-thread-safety
                  preset) cannot connect it to the fields it guards;
                  util::Mutex/MutexLock/ConditionVariable can.

  gnu-extension   src/ and tools/ build as pedantic ISO C++20. The
                  GNU extensions that -Wpedantic lets through when
                  spelled right -- the __extension__ keyword, label
                  addresses (&&label) and computed goto (goto *p) --
                  are confined to GNU_EXTENSION_SANCTIONED_FILES: the
                  __int128 multiply of util::Rng and the threaded
                  micro88 interpreter. Anywhere else they would make
                  the tree quietly depend on GCC and Clang.

  bad-suppression a suppression comment that names an unknown rule or
                  omits its justification is itself an error: a typo'd
                  allow() must never silently suppress nothing (or
                  everything), and an unjustified allow() is an
                  unreviewable one.

Cross-TU rules (phase 2 proper -- these need the whole-tree index):

  batch-twin      every simulateBatch override must keep its
                  reference-loop twin reachable (the
                  BranchPredictor::simulateBatch fallback, so unsafe
                  predictor state can always drop off the lane path)
                  and be listed in the pairing manifest below, which
                  is how reviewers know the override is covered by
                  the randomized equivalence suite.

  schema-once     JSON schema version strings (tlat-run-metrics-v3,
                  tlat-bench-v1) and the TLTR format version constant
                  must each be defined in exactly one place, so a
                  version bump can never half-apply.

  simd-twin       raw vector intrinsics (_mm*/_mm256_*/NEON v*_u8
                  calls) are sanctioned only inside the util/simd
                  kernel family (SIMD_SANCTIONED_FILES below), where
                  every kernel is written against a named scalar twin
                  and fuzzed for bit-identity; any other file must
                  route vector work through util::simd::fusedPass.

  guarded-state   a lambda handed to ThreadPool::submit or
                  parallelFor runs on another thread: its captures
                  are the entire cross-thread state surface. Default
                  captures ([&]/[=]) are banned -- every capture must
                  be named so review sees exactly what crosses the
                  boundary -- and capturing `this` requires the
                  submitting class to carry thread-safety annotations
                  (TLAT_GUARDED_BY/TLAT_REQUIRES in the file or a
                  direct include), or an explicit suppression.

  layer-order     the project include graph must stay a DAG matching
                  the documented layer order (util -> {isa, trace} ->
                  {core, sim} -> {predictors, workloads, pipeline} ->
                  harness -> {bench, tools}). An include from a layer
                  into a higher or sibling layer is a back-edge; any
                  file-level include cycle is reported outright. This
                  is the refactor guard `tlat serve` needs before it
                  multiplies the shared state above harness.

Suppression syntax (same line or the line directly above the finding;
the justification after the second colon is mandatory and the rule
name must exist):

    // tlat-lint: allow(<rule-name>): <why this is safe>

Dependency-free by design: regex plus a lightweight C++ scanner that
strips comments (including backslash-continued // comments) and
tracks string literals, raw strings included -- no libclang, no pip.
Exit codes: 0 clean, 1 findings, 2 usage error. --json emits a
machine-readable report (schema tlat-lint-report-v1) for CI
artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# The one place the report schema version is spelled (the linter
# obeys its own schema-once rule).
LINT_REPORT_SCHEMA = "tlat-lint-report-v1"

# Directories scanned relative to --root. tests/ is deliberately
# exempt (see module docstring).
SCAN_DIRS = ("src", "bench", "tools")
CXX_SUFFIXES = (".hh", ".h", ".cc", ".cpp")

# simulateBatch pairing manifest: class name -> implementation file
# (relative to root) that must keep the BranchPredictor::simulateBatch
# reference fallback reachable. Every override found in the tree must
# appear here; every entry whose file exists must still contain the
# fallback call. Add a row only after extending
# tests/test_simulate_batch_fuzz.cc to cover the new override.
BATCH_TWIN_MANIFEST = {
    "TwoLevelPredictor": "src/core/two_level_predictor.cc",
    "CombiningPredictor": "src/core/combining_predictor.cc",
}

# String literals that version an on-disk schema: each may be defined
# at most once in C++ code (comments excluded; shell/python consumers
# grep for them and are not scanned).
SCHEMA_LITERAL_PATTERN = re.compile(r"tlat-[\w.-]*-v\d+$")

# Named constants versioning a binary format, matched against
# assignment/definition sites.
SCHEMA_CONSTANT_DEFS = ("kTltrFormatVersion",)

# The documented layer order, low to high. An include may only point
# from a higher rank to a strictly lower rank (same directory is
# always fine). Keep in sync with DESIGN.md section 14.
LAYER_RANKS = {
    "src/util": 0,
    "src/isa": 1,
    "src/trace": 1,
    "src/core": 2,
    "src/sim": 2,
    "src/predictors": 3,
    "src/workloads": 3,
    "src/pipeline": 3,
    "src/harness": 4,
    "src/serve": 4,
    "bench": 5,
    "tools": 5,
}

LAYER_ORDER_DOC = (
    "util -> {isa, trace} -> {core, sim} -> "
    "{predictors, workloads, pipeline} -> {harness, serve} -> "
    "{bench, tools}"
)

# Files allowed to spell raw synchronization primitives, relative to
# root: the annotated wrapper itself, the SIMD dispatch latch (one
# relaxed std::atomic word with no multi-field invariant; a mutex
# would add a capability with nothing to guard), and the serve
# engine's SPSC ring (the lock-free primitive *is* the
# synchronization — its header carries the full memory-ordering
# argument, and confining the atomics there keeps every
# acquire/release pair of src/serve in one reviewable file).
LOCK_SANCTIONED_FILES = (
    "src/util/mutex.hh",
    "src/util/simd.cc",
    "src/serve/spsc_ring.hh",
)

# The only file allowed to call getenv(): the util::env front door.
ENV_SANCTIONED_FILES = ("src/util/env.cc",)

# Thread-safety annotation macros (src/util/thread_annotations.hh)
# whose presence marks a class as carrying its concurrency contract.
ANNOTATION_TOKENS = (
    "TLAT_GUARDED_BY(",
    "TLAT_REQUIRES(",
    "TLAT_CAPABILITY(",
    "TLAT_ACQUIRE(",
)

# The only files allowed to spell raw vector intrinsics, relative to
# root: the dispatch header, the portable scalar twin, and the
# per-ISA kernels. Everything else goes through util::simd::fusedPass
# so the bit-identity contract (and its fuzz coverage) stays in one
# place. Kernel files must mention the twin's name so a reader of any
# vector block can find the scalar program it is defined against.
SIMD_SANCTIONED_FILES = (
    "src/util/simd.hh",
    "src/util/simd.cc",
    "src/util/simd_avx2.cc",
    "src/util/simd_neon.cc",
)
SIMD_TWIN_TOKEN = "fusedPassScalar"

# Intrinsic call shapes: x86 (_mm_/_mm256_/_mm512_) and NEON
# (vld1q_u8(...), vaddv_u8(...), ... -- a v-prefixed call whose name
# ends in an element-type suffix).
SIMD_INTRINSIC_RES = (
    re.compile(r"\b_mm\d*_\w+\s*\("),
    re.compile(r"\bv[a-z][a-z0-9_]*_[usfp]\d+(?:x\d+)?\s*\("),
)

# The only files allowed to use the GNU extensions __extension__,
# label addresses and computed goto, relative to root: util::Rng's
# __int128 multiply, and the threaded interpreter (one handler jump
# per micro88 instruction), which needs labels as values. Each use is
# spelled with __extension__ so -Wpedantic -Werror stays on.
GNU_EXTENSION_SANCTIONED_FILES = (
    "src/util/random.hh",
    "src/sim/simulator.cc",
)

RULES = {
    "unordered-iter": "unordered-container iteration without an "
    "ordered projection (hash order leaks into output)",
    "raw-rand": "unseeded/process-global randomness or wall-clock "
    "outside tests/",
    "float-accum": "float/double accumulation in a merge path "
    "(integer counters only)",
    "batch-twin": "simulateBatch override without a reference-loop "
    "twin in the pairing manifest",
    "schema-once": "schema version string/constant defined more than "
    "once",
    "simd-twin": "raw vector intrinsics outside the sanctioned "
    "util/simd kernel family, or a kernel file that never names its "
    "scalar twin",
    "lock-discipline": "raw std::mutex/lock/condition_variable/"
    "atomic outside the annotated util::Mutex wrapper and the "
    "sanctioned list",
    "guarded-state": "thread-pool lambda with a default capture, or "
    "a `this` capture in a file with no thread-safety annotations",
    "layer-order": "include edge against the layer DAG "
    "(" + LAYER_ORDER_DOC + "), or an include cycle",
    "env-read": "getenv() outside the util::env front door "
    "(src/util/env.cc)",
    "gnu-extension": "__extension__, a label address or a computed "
    "goto outside the sanctioned files",
    "bad-suppression": "tlat-lint: allow(...) naming an unknown rule "
    "or missing its justification",
}

# A suppression comment: rule name in parens, then a colon and a
# non-empty justification. Parsed permissively here so malformed
# variants can be *reported* rather than silently ignored.
ALLOW_RE = re.compile(
    r"tlat-lint:\s*allow\(([^()]*)\)\s*(?::\s*(.*\S)?)?"
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self, root):
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """One scanned C++ file: raw lines, comment-stripped code lines
    (string literal contents blanked), the string literals per line,
    and the validated suppression table. Line numbers are 1-based
    throughout."""

    def __init__(self, path, text):
        self.path = path
        self.raw_lines = text.split("\n")
        self.code_lines, self.strings = _strip(text)
        self.strings_by_line = {}
        for line, literal in self.strings:
            self.strings_by_line.setdefault(line, []).append(literal)
        self.suppression_findings = []
        self.allows = self._collect_allows()

    def _collect_allows(self):
        """Validates every suppression comment; well-formed ones are
        registered, malformed ones become bad-suppression findings
        (and suppress nothing)."""
        allows = {}
        for number, line in enumerate(self.raw_lines, start=1):
            for match in ALLOW_RE.finditer(line):
                rule = match.group(1).strip()
                justification = match.group(2)
                if rule not in RULES:
                    self.suppression_findings.append(Finding(
                        self.path, number, "bad-suppression",
                        f"allow() names unknown rule '{rule}'; "
                        "run --list-rules for the catalog (a typo "
                        "here would suppress nothing, silently)",
                    ))
                    continue
                if justification is None or not justification.strip():
                    self.suppression_findings.append(Finding(
                        self.path, number, "bad-suppression",
                        f"allow({rule}) has no justification; write "
                        f"// tlat-lint: allow({rule}): <why this is "
                        "safe> -- an unjustified suppression is an "
                        "unreviewable one",
                    ))
                    continue
                allows.setdefault(number, set()).add(rule)
        return allows

    def suppressed(self, line, rule):
        for candidate in (line, line - 1):
            if rule in self.allows.get(candidate, set()):
                return True
        return False


def _raw_string_prefix(current):
    """True when the code scanned so far on this line ends in a raw
    string-literal prefix (R, u8R, uR, UR, LR) that is not merely the
    tail of a longer identifier."""
    tail = "".join(current[-4:])
    return re.search(r"(?:^|[^A-Za-z0-9_])(?:u8|[uUL])?R$",
                     tail) is not None


def _strip(text):
    """Returns (code_lines, strings): code with comments removed and
    string-literal contents blanked, plus [(line, literal)] for every
    string literal. Handles //-comments (including backslash line
    continuations, which splice the next physical line into the
    comment), /* */ blocks, "..." with escapes, '...' char literals,
    and raw strings R"delim( ... )delim" -- whose contents may span
    lines and contain quotes and // without corrupting the scan."""
    code = []
    strings = []
    state = "code"  # code | line_comment | block_comment | dq | sq | raw
    current = []
    literal = []
    literal_line = 0
    raw_terminator = ""
    line_no = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n" and state != "raw":
            code.append("".join(current))
            current = []
            if state == "line_comment":
                state = "code"
            line_no += 1
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                if _raw_string_prefix(current):
                    # Raw string: R"delim( ... )delim". Scan the
                    # delimiter up to the opening parenthesis.
                    j = i + 1
                    delim = []
                    while j < n and text[j] != "(" and \
                            text[j] not in ")\\ \n\t" and \
                            len(delim) <= 16:
                        delim.append(text[j])
                        j += 1
                    if j < n and text[j] == "(":
                        state = "raw"
                        raw_terminator = ")" + "".join(delim) + '"'
                        literal = []
                        literal_line = line_no
                        current.append('"')
                        i = j + 1
                        continue
                    # Malformed raw prefix: fall through and treat as
                    # an ordinary string.
                state = "dq"
                literal = []
                literal_line = line_no
                current.append('"')
                i += 1
                continue
            if ch == "'":
                state = "sq"
                current.append("'")
                i += 1
                continue
            current.append(ch)
            i += 1
            continue
        if state == "line_comment":
            if ch == "\\" and nxt == "\n":
                # Backslash continuation: the next physical line is
                # still this comment. Emit an empty code line so line
                # numbering stays aligned.
                code.append("".join(current))
                current = []
                line_no += 1
                i += 2
                continue
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        if state == "raw":
            if text.startswith(raw_terminator, i):
                state = "code"
                strings.append((literal_line, "".join(literal)))
                current.append('"')
                i += len(raw_terminator)
                continue
            if ch == "\n":
                code.append("".join(current))
                current = []
                line_no += 1
            else:
                literal.append(ch)
            i += 1
            continue
        if state == "dq":
            if ch == "\\" and nxt:
                literal.append(ch + nxt)
                i += 2
                continue
            if ch == '"':
                state = "code"
                strings.append((literal_line, "".join(literal)))
                current.append('"')
                i += 1
                continue
            literal.append(ch)
            i += 1
            continue
        # state == "sq"
        if ch == "\\" and nxt:
            i += 2
            continue
        if ch == "'":
            state = "code"
            current.append("'")
            i += 1
            continue
        i += 1
    code.append("".join(current))
    return code, strings


def iter_source_files(root):
    for directory in SCAN_DIRS:
        base = os.path.join(root, directory)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_SUFFIXES):
                    yield os.path.join(dirpath, name)


def load(path):
    with open(path, encoding="utf-8", errors="replace") as handle:
        return SourceFile(path, handle.read())


# ---------------------------------------------------------------- #
# phase 1: whole-tree index
# ---------------------------------------------------------------- #

INCLUDE_LINE_RE = re.compile(r'^\s*#\s*include\s*""')


class TreeIndex:
    """Phase-1 product: every scanned SourceFile keyed by
    root-relative path, plus the resolved project include graph
    (quoted includes only; system headers are not project layers)."""

    def __init__(self, root):
        self.root = root
        self.sources = [load(path) for path in iter_source_files(root)]
        self.by_rel = {
            self.rel(src.path): src for src in self.sources
        }
        # rel -> [(line, target_rel)]
        self.includes = {
            rel: self._resolve_includes(rel, src)
            for rel, src in self.by_rel.items()
        }

    def rel(self, path):
        return os.path.relpath(path, self.root).replace(os.sep, "/")

    def _resolve_includes(self, rel, src):
        """Project includes of one file, resolved against the
        includer's directory, then src/, then the root -- only edges
        landing on a scanned file are kept (system and generated
        headers are outside the layer contract)."""
        edges = []
        directory = os.path.dirname(rel)
        for number, line in enumerate(src.code_lines, start=1):
            if not INCLUDE_LINE_RE.match(line):
                continue
            for target in src.strings_by_line.get(number, [])[:1]:
                for base in (directory, "src", ""):
                    candidate = os.path.normpath(
                        os.path.join(base, target)
                    ).replace(os.sep, "/")
                    if candidate in self.by_rel:
                        edges.append((number, candidate))
                        break
        return edges


def layer_of(rel):
    """The layer prefix of a root-relative path, or None when the
    file is outside the ranked layers (partial fixture trees)."""
    best = None
    for prefix in LAYER_RANKS:
        if rel == prefix or rel.startswith(prefix + "/"):
            if best is None or len(prefix) > len(best):
                best = prefix
    return best


# ---------------------------------------------------------------- #
# rule: unordered-iter
# ---------------------------------------------------------------- #

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)
IDENT_AFTER_TYPE_RE = re.compile(r"\s*(?:&\s*)?([A-Za-z_]\w*)")
SORT_RE = re.compile(r"\bstd::(?:stable_)?sort\s*\(")


def _unordered_names(src):
    """Names declared (member or local) with an unordered container
    type anywhere in the file."""
    names = set()
    text = "\n".join(src.code_lines)
    for match in UNORDERED_DECL_RE.finditer(text):
        # Walk the template argument list to its closing '>'.
        depth = 1
        i = match.end()
        while i < len(text) and depth > 0:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
            i += 1
        ident = IDENT_AFTER_TYPE_RE.match(text, i)
        if ident:
            names.add(ident.group(1))
    return names


def _line_depths(code_lines):
    """Cumulative brace depth *before* each line (1-based index)."""
    depths = [0]
    depth = 0
    for line in code_lines:
        depths.append(depth)
        depth += line.count("{") - line.count("}")
    depths.append(depth)
    return depths


def _has_ordered_projection(src, loop_line):
    """True when a std::sort/std::stable_sort appears after the loop
    but inside the same enclosing block -- the collected-then-sorted
    projection pattern."""
    depths = _line_depths(src.code_lines)
    enclosing = depths[loop_line]
    for number in range(loop_line + 1, len(src.code_lines) + 1):
        if depths[number] < enclosing:
            return False  # left the enclosing block
        if SORT_RE.search(src.code_lines[number - 1]):
            return True
    return False


def check_unordered_iter(src, findings):
    names = _unordered_names(src)
    if not names:
        return
    alternation = "|".join(re.escape(name) for name in sorted(names))
    range_for = re.compile(
        r"for\s*\([^;()]*:\s*(?:this->)?(" + alternation + r")\s*\)"
    )
    # .begin() starts an iteration; a bare .end() is the find()
    # sentinel idiom and order-independent.
    explicit_iter = re.compile(
        r"\b(" + alternation + r")\s*\.\s*c?r?begin\s*\("
    )
    for number, line in enumerate(src.code_lines, start=1):
        match = range_for.search(line) or explicit_iter.search(line)
        if not match:
            continue
        if src.suppressed(number, "unordered-iter"):
            continue
        if _has_ordered_projection(src, number):
            continue
        findings.append(Finding(
            src.path, number, "unordered-iter",
            f"iteration over unordered container '{match.group(1)}' "
            "leaks hash order; emit an ordered projection "
            "(collect + std::sort on a stable key) or justify with "
            "// tlat-lint: allow(unordered-iter): <why>",
        ))


# ---------------------------------------------------------------- #
# rule: raw-rand
# ---------------------------------------------------------------- #

RAW_RAND_PATTERNS = (
    (re.compile(r"\bstd::s?rand\s*\(|(?<![\w:.])s?rand\s*\("),
     "rand()/srand()"),
    (re.compile(r"\bstd::time\b"), "std::time"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time(NULL)"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
)


def check_raw_rand(src, findings):
    for number, line in enumerate(src.code_lines, start=1):
        for pattern, label in RAW_RAND_PATTERNS:
            if not pattern.search(line):
                continue
            if src.suppressed(number, "raw-rand"):
                continue
            findings.append(Finding(
                src.path, number, "raw-rand",
                f"{label} ties results to process/wall-clock state; "
                "use util::Rng seeded from harness::cellSeed()",
            ))


# ---------------------------------------------------------------- #
# rule: float-accum
# ---------------------------------------------------------------- #

MERGE_FN_RE = re.compile(r"^\s*(\w*(?i:merge|accumulate|reduce)\w*)\s*\(")
FLOAT_DECL_RE = re.compile(
    r"\b(?:float|double)\s+(?:&\s*)?([A-Za-z_]\w*)\s*[={;,)]"
)
ACCUM_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\+=")


def _merge_function_ranges(src):
    """(start, end) line ranges of function bodies whose name matches
    merge/accumulate/reduce. Definitions follow the house style: the
    name starts a line, the body's '{' opens at depth 0 or class
    depth."""
    depths = _line_depths(src.code_lines)
    ranges = []
    for number, line in enumerate(src.code_lines, start=1):
        if not MERGE_FN_RE.match(line):
            continue
        # Find the opening brace of the body, then its matching close.
        open_line = None
        for candidate in range(number, min(number + 8,
                                           len(src.code_lines) + 1)):
            if "{" in src.code_lines[candidate - 1]:
                open_line = candidate
                break
            if ";" in src.code_lines[candidate - 1]:
                break  # declaration only
        if open_line is None:
            continue
        body_depth = depths[open_line]
        end_line = len(src.code_lines)
        for candidate in range(open_line + 1,
                               len(src.code_lines) + 1):
            if depths[candidate] <= body_depth and \
                    "}" in src.code_lines[candidate - 1]:
                end_line = candidate
                break
        ranges.append((number, end_line))
    return ranges


def check_float_accum(src, findings):
    ranges = _merge_function_ranges(src)
    if not ranges:
        return
    float_names = set()
    for line in src.code_lines:
        for match in FLOAT_DECL_RE.finditer(line):
            float_names.add(match.group(1))
    if not float_names:
        return
    for start, end in ranges:
        for number in range(start, end + 1):
            line = src.code_lines[number - 1]
            for match in ACCUM_RE.finditer(line):
                if match.group(1) not in float_names:
                    continue
                if src.suppressed(number, "float-accum"):
                    continue
                findings.append(Finding(
                    src.path, number, "float-accum",
                    f"'{match.group(1)}' accumulates float/double in "
                    "a merge path; merge integer counters and derive "
                    "ratios once at the end",
                ))


# ---------------------------------------------------------------- #
# rule: env-read
# ---------------------------------------------------------------- #

GETENV_RE = re.compile(r"\b(?:std\s*::\s*)?(?:secure_)?getenv\s*\(")


def check_env_read(index, findings):
    sanctioned = set(ENV_SANCTIONED_FILES)
    for rel, src in sorted(index.by_rel.items()):
        if rel in sanctioned:
            continue
        for number, line in enumerate(src.code_lines, start=1):
            if not GETENV_RE.search(line):
                continue
            if src.suppressed(number, "env-read"):
                continue
            findings.append(Finding(
                src.path, number, "env-read",
                "raw getenv() outside the util::env front door; use "
                "util::envString/envUnsigned/envFlag (src/util/"
                "env.hh) so the configuration surface stays "
                "enumerable",
            ))


# ---------------------------------------------------------------- #
# rule: gnu-extension
# ---------------------------------------------------------------- #

# A label address is a unary && before an identifier: after an
# operator or opening punctuation, or leading an initializer-list
# line ("&&label," / "&&label}"); a line-leading logical-and
# continuation ("&& ready)") does not match.
GNU_EXTENSION_RES = (
    (re.compile(r"\b__extension__\b"), "__extension__"),
    (re.compile(r"(?:[=,({?:!]|\breturn\b|\b__extension__\b)\s*&&\s*"
                r"[A-Za-z_]\w*"), "label address"),
    (re.compile(r"^\s*&&\s*[A-Za-z_]\w*\s*[,}]"), "label address"),
    (re.compile(r"\bgoto\s*\*"), "computed goto"),
)


def check_gnu_extension(index, findings):
    sanctioned = set(GNU_EXTENSION_SANCTIONED_FILES)
    for rel, src in sorted(index.by_rel.items()):
        if rel in sanctioned:
            continue
        for number, line in enumerate(src.code_lines, start=1):
            what = next((name for pattern, name in GNU_EXTENSION_RES
                         if pattern.search(line)), None)
            if what is None:
                continue
            if src.suppressed(number, "gnu-extension"):
                continue
            findings.append(Finding(
                src.path, number, "gnu-extension",
                f"GNU extension ({what}) outside the sanctioned "
                "files; write ISO C++20 (or add the file to "
                "GNU_EXTENSION_SANCTIONED_FILES with a written "
                "rationale and document it in CONTRIBUTING.md)",
            ))


# ---------------------------------------------------------------- #
# rule: lock-discipline
# ---------------------------------------------------------------- #

RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*("
    r"mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|"
    r"condition_variable|condition_variable_any|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"atomic|atomic_flag|atomic_ref|atomic_[a-z0-9_]+"
    r")\b"
)


def check_lock_discipline(index, findings):
    sanctioned = set(LOCK_SANCTIONED_FILES)
    for rel, src in sorted(index.by_rel.items()):
        if rel in sanctioned:
            continue
        for number, line in enumerate(src.code_lines, start=1):
            match = RAW_SYNC_RE.search(line)
            if not match:
                continue
            if src.suppressed(number, "lock-discipline"):
                continue
            findings.append(Finding(
                src.path, number, "lock-discipline",
                f"raw std::{match.group(1)} outside the annotated "
                "wrapper; use util::Mutex/MutexLock/"
                "ConditionVariable (src/util/mutex.hh) so "
                "-Wthread-safety can tie the lock to the state it "
                "guards (or add the file to LOCK_SANCTIONED_FILES "
                "with a written rationale)",
            ))


# ---------------------------------------------------------------- #
# rule: guarded-state
# ---------------------------------------------------------------- #

POOL_CALL_RE = re.compile(r"\b(?:submit|parallelFor)\s*\(")


def _capture_list_after(text, start):
    """The contents of the first lambda capture list appearing within
    the argument window after a pool-call site, or None. The window
    ends at the first '{' (lambda body reached) or ';'."""
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            j = text.find("]", i + 1)
            if j < 0:
                return None
            return text[i + 1:j]
        if ch in "{;":
            return None
        i += 1
    return None


def _file_has_annotations(index, rel):
    """True when the file, or any project header it directly
    includes, contains thread-safety annotation macros."""
    candidates = [rel] + [t for _, t in index.includes.get(rel, [])]
    for candidate in candidates:
        src = index.by_rel.get(candidate)
        if src is None:
            continue
        text = "\n".join(src.code_lines)
        if any(token in text for token in ANNOTATION_TOKENS):
            return True
    return False


def check_guarded_state(index, findings):
    for rel, src in sorted(index.by_rel.items()):
        text = "\n".join(src.code_lines)
        for match in POOL_CALL_RE.finditer(text):
            # Skip declarations/definitions of submit/parallelFor
            # themselves: a capture list can only appear in an
            # argument position, which _capture_list_after finds.
            captures = _capture_list_after(text, match.end())
            if captures is None:
                continue
            line = text.count("\n", 0, match.start()) + 1
            if src.suppressed(line, "guarded-state"):
                continue
            names = [c.strip() for c in captures.split(",")
                     if c.strip()]
            for name in names:
                if name in ("&", "="):
                    findings.append(Finding(
                        src.path, line, "guarded-state",
                        f"default capture [{name}] in a lambda "
                        "handed to the thread pool; name every "
                        "capture so review sees the exact "
                        "cross-thread state surface",
                    ))
                elif name in ("this", "*this") and \
                        not _file_has_annotations(index, rel):
                    findings.append(Finding(
                        src.path, line, "guarded-state",
                        "lambda captures `this` but neither this "
                        "file nor its direct includes carry "
                        "thread-safety annotations "
                        "(TLAT_GUARDED_BY/TLAT_REQUIRES); annotate "
                        "the shared state or justify with "
                        "// tlat-lint: allow(guarded-state): <why>",
                    ))


# ---------------------------------------------------------------- #
# rule: layer-order
# ---------------------------------------------------------------- #

def check_layer_order(index, findings):
    # Back-edge check: an include may only point strictly downward in
    # the layer ranking (same directory prefix is always fine).
    for rel in sorted(index.includes):
        src = index.by_rel[rel]
        source_layer = layer_of(rel)
        if source_layer is None:
            continue
        for line, target in index.includes[rel]:
            target_layer = layer_of(target)
            if target_layer is None or target_layer == source_layer:
                continue
            source_rank = LAYER_RANKS[source_layer]
            target_rank = LAYER_RANKS[target_layer]
            if target_rank < source_rank:
                continue
            if src.suppressed(line, "layer-order"):
                continue
            kind = ("back-edge (upward include)"
                    if target_rank > source_rank
                    else "sideways include between same-rank layers")
            findings.append(Finding(
                src.path, line, "layer-order",
                f"{source_layer} must not include {target} -- "
                f"{kind}; the layer DAG is {LAYER_ORDER_DOC}",
            ))

    # Cycle check: the resolved include graph must be a DAG at file
    # granularity (a cycle inside one layer is just as much of a
    # refactor trap as one across layers).
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in index.by_rel}
    stack = []

    def visit(rel):
        color[rel] = GRAY
        stack.append(rel)
        for _, target in index.includes.get(rel, []):
            if color[target] == GRAY:
                cycle = stack[stack.index(target):] + [target]
                findings.append(Finding(
                    index.by_rel[rel].path, 1, "layer-order",
                    "include cycle: " + " -> ".join(cycle),
                ))
            elif color[target] == WHITE:
                visit(target)
        stack.pop()
        color[rel] = BLACK

    # Deterministic traversal order so cycle reports are stable.
    previous_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous_limit,
                              4 * len(color) + 100))
    try:
        for rel in sorted(color):
            if color[rel] == WHITE:
                visit(rel)
    finally:
        sys.setrecursionlimit(previous_limit)


# ---------------------------------------------------------------- #
# rule: batch-twin
# ---------------------------------------------------------------- #

CLASS_RE = re.compile(r"\bclass\s+([A-Za-z_]\w*)")
OVERRIDE_RE = re.compile(
    r"\bsimulateBatch\s*\([^;{]*?\boverride\b", re.S
)


def check_batch_twin(root, sources, findings):
    override_classes = {}
    for src in sources:
        text = "\n".join(src.code_lines)
        for match in OVERRIDE_RE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            owner = None
            for cls in CLASS_RE.finditer(text, 0, match.start()):
                owner = cls.group(1)
            override_classes[owner or "?"] = (src, line)

    for owner, (src, line) in sorted(override_classes.items()):
        if src.suppressed(line, "batch-twin"):
            continue
        if owner not in BATCH_TWIN_MANIFEST:
            findings.append(Finding(
                src.path, line, "batch-twin",
                f"simulateBatch override in '{owner}' is not in the "
                "pairing manifest (tools/tlat_lint.py); add it after "
                "extending test_simulate_batch_fuzz to cover it",
            ))

    for owner, rel_path in sorted(BATCH_TWIN_MANIFEST.items()):
        path = os.path.join(root, rel_path)
        if not os.path.isfile(path):
            continue  # partial tree (fixtures); nothing to pair
        src = load(path)
        text = "\n".join(src.code_lines)
        if "simulateBatch" not in text:
            findings.append(Finding(
                path, 1, "batch-twin",
                f"manifest expects a simulateBatch implementation "
                f"for '{owner}' here; update the manifest if the "
                "override moved",
            ))
        elif "BranchPredictor::simulateBatch(" not in text:
            findings.append(Finding(
                path, 1, "batch-twin",
                f"'{owner}::simulateBatch' lost its reference-loop "
                "twin: the BranchPredictor::simulateBatch fallback "
                "must stay reachable for unsafe predictor state and "
                "the equivalence suite",
            ))


# ---------------------------------------------------------------- #
# rule: simd-twin
# ---------------------------------------------------------------- #

def check_simd_twin(root, sources, findings):
    sanctioned = {
        os.path.normpath(os.path.join(root, rel))
        for rel in SIMD_SANCTIONED_FILES
    }
    for src in sources:
        uses = []
        for number, line in enumerate(src.code_lines, start=1):
            for pattern in SIMD_INTRINSIC_RES:
                match = pattern.search(line)
                if match:
                    uses.append((number,
                                 match.group(0).rstrip("( \t")))
                    break
        if not uses:
            continue
        if os.path.normpath(src.path) in sanctioned:
            # Comments count: the twin reference is navigational, and
            # the kernels cite fusedPassScalar in their doc comments.
            if SIMD_TWIN_TOKEN not in "\n".join(src.raw_lines):
                findings.append(Finding(
                    src.path, 1, "simd-twin",
                    "SIMD kernel file never references its scalar "
                    f"twin {SIMD_TWIN_TOKEN}; every vector kernel "
                    "must name the scalar program it is bit-identical "
                    "to (and test_simd_kernel must hold it there)",
                ))
            continue
        for number, token in uses:
            if src.suppressed(number, "simd-twin"):
                continue
            findings.append(Finding(
                src.path, number, "simd-twin",
                f"raw vector intrinsic '{token}' outside the "
                "sanctioned util/simd kernel family; route through "
                "util::simd::fusedPass (or add the file to "
                "SIMD_SANCTIONED_FILES with a scalar twin and fuzz "
                "coverage)",
            ))


# ---------------------------------------------------------------- #
# rule: schema-once
# ---------------------------------------------------------------- #

def check_schema_once(sources, findings):
    literal_sites = {}
    for src in sources:
        for line, literal in src.strings:
            if SCHEMA_LITERAL_PATTERN.match(literal):
                literal_sites.setdefault(literal, []).append(
                    (src, line))
    for literal, sites in sorted(literal_sites.items()):
        if len(sites) <= 1:
            continue
        for src, line in sites[1:]:
            if src.suppressed(line, "schema-once"):
                continue
            first_src, first_line = sites[0]
            findings.append(Finding(
                src.path, line, "schema-once",
                f'schema string "{literal}" already defined at '
                f"{os.path.basename(first_src.path)}:{first_line}; "
                "reference the named constant instead",
            ))

    for constant in SCHEMA_CONSTANT_DEFS:
        def_re = re.compile(r"\b" + re.escape(constant) + r"\s*=[^=]")
        sites = []
        for src in sources:
            for number, line in enumerate(src.code_lines, start=1):
                if def_re.search(line):
                    sites.append((src, number))
        for src, line in sites[1:]:
            if src.suppressed(line, "schema-once"):
                continue
            first_src, first_line = sites[0]
            findings.append(Finding(
                src.path, line, "schema-once",
                f"format version constant {constant} already defined "
                f"at {os.path.basename(first_src.path)}:"
                f"{first_line}",
            ))


# ---------------------------------------------------------------- #


def run(root):
    findings = []
    index = TreeIndex(root)  # phase 1: whole-tree symbol/include index
    # phase 2a: per-file rules
    for src in index.sources:
        check_unordered_iter(src, findings)
        check_raw_rand(src, findings)
        check_float_accum(src, findings)
        findings.extend(src.suppression_findings)
    # phase 2b: cross-TU rules over the index
    check_batch_twin(root, index.sources, findings)
    check_schema_once(index.sources, findings)
    check_simd_twin(root, index.sources, findings)
    check_env_read(index, findings)
    check_gnu_extension(index, findings)
    check_lock_discipline(index, findings)
    check_guarded_state(index, findings)
    check_layer_order(index, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv):
    parser = argparse.ArgumentParser(
        prog="tlat_lint.py",
        description="tlat determinism/concurrency-contract linter",
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))),
        help="repository root to scan (default: the tree containing "
        "this script)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable report "
        f"(schema {LINT_REPORT_SCHEMA}) on stdout; exit codes are "
        "unchanged",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, description in sorted(RULES.items()):
            print(f"{name:16s} {description}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"tlat-lint: no such directory: {root}",
              file=sys.stderr)
        return 2

    findings = run(root)
    if args.json:
        report = {
            "schema": LINT_REPORT_SCHEMA,
            "root": root,
            "rules": sorted(RULES),
            "count": len(findings),
            "findings": [
                {
                    "file": os.path.relpath(f.path, root),
                    "line": f.line,
                    "rule": f.rule,
                    "message": f.message,
                }
                for f in findings
            ],
        }
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        for finding in findings:
            print(finding.render(root))
    if findings:
        print(f"tlat-lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
