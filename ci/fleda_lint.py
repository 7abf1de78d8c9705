#!/usr/bin/env python3
"""fleda-lint: the project's determinism & concurrency linter.

Walks C++ sources enforcing the invariants every PR so far has had to
defend by hand — results must be bit-identical across thread-pool
sizes and replays, so the library must never read wall clocks, draw
from unseeded generators, or depend on hash-table iteration order:

  raw-clock       std::chrono::steady_clock / high_resolution_clock
                  anywhere except src/obs/profiler.hpp (StopWatch is
                  the single sanctioned clock wrapper; simulated time
                  comes from sim/SimClock).
  raw-random      rand()/srand()/std::random_device — all randomness
                  flows through util/rng's seeded, forkable streams.
  unordered-iter  iteration over std::unordered_{map,set} in the
                  numeric paths (src/fl, src/sim, src/tensor), where
                  iteration order would leak pointer/hash nondeterminism
                  into results. Sort the keys (or use std::map) instead.
  stdout-io       std::cout / printf / puts / fprintf(stdout, ...) in
                  library code — benches own stdout (their JSON lines
                  are CI-parsed); the library talks through util/logging.
  pragma-once     every header carries #pragma once.
  mutex-guarded   every mutex member declaration (std::mutex,
                  std::shared_mutex, or the annotated fleda::Mutex
                  wrapper) has at least one
                  FLEDA_GUARDED_BY(<that mutex>) protectee in the same
                  file — a mutex that guards nothing is either dead
                  weight or undocumented locking.
  env-knob        getenv under src/ — every environment read is a knob
                  that can change a run behind its config's back, so
                  each one is a visible, reviewed escape. Knobs belong
                  in the benches' config layer (bench/bench_common.hpp).
  fp-contract     fused multiply-add under src/: "fma" inside a
                  target(...) attribute, any _mm*_fmadd*-family
                  intrinsic, or std::fma / __builtin_fma. A fused
                  a*b + c rounds once where the portable kernels round
                  twice, so it would make results depend on the host's
                  ISA; the kernel contract is that the ISA changes
                  speed, never bits. An AVX-512 ISA in a target(...)
                  brings FMA with it, and GCC at its default
                  -ffp-contract=fast fuses a mul followed by an add
                  (intrinsics or vector types alike), so it is allowed
                  only inside the one guarded macro:
                  `#define FLEDA_TARGET_AVX512` whose definition also
                  carries optimize("fp-contract=off"), or that follows
                  a contraction-off pragma (`#pragma clang fp
                  contract(off)` or `#pragma STDC FP_CONTRACT OFF`,
                  Clang's form: it ignores optimize) in the same
                  preprocessor branch. A bare AVX-512 target anywhere
                  else is a finding.
  orphan-header   a header under src/ that no file under src/, bench/,
                  examples/ or fledabench/ includes, other than its own
                  .cpp. Such a module is reachable only from its tests:
                  code nothing runs. Checked when a linted path is a
                  directory named src (its parent is the project root);
                  a fixture tree is a directory named *_tree holding
                  that layout.

Per-line escape (with a justification comment next to it, please):

    std::mutex handshake_;  // fleda-lint: allow(mutex-guarded)

For pragma-once and orphan-header (file-level rules) the allow comment
may sit on any line of the file.

Usage:
  ci/fleda_lint.py [path ...]          lint trees/files (default: src)
  ci/fleda_lint.py --self-test \
      [--fixtures tests/lint_fixtures] run the fixture self-tests

Stdlib-only by design; exits non-zero on findings (or self-test
failures) so CI and ctest can gate on it directly.
"""

import argparse
import os
import re
import sys

ALL_RULES = (
    "raw-clock",
    "raw-random",
    "unordered-iter",
    "stdout-io",
    "pragma-once",
    "mutex-guarded",
    "env-knob",
    "fp-contract",
    "orphan-header",
)

# Trees whose files count as a header's users for orphan-header (tests
# do not: a module only its tests reach is what the rule looks for).
INCLUDER_DIRS = ("src", "bench", "examples", "fledabench")

# Directories (relative to a src root) whose numeric code must not
# iterate unordered containers.
UNORDERED_ITER_DIRS = ("fl", "sim", "tensor")

# The one file allowed to touch the raw monotonic clocks.
RAW_CLOCK_EXEMPT_SUFFIX = os.path.join("src", "obs", "profiler.hpp")

ALLOW_RE = re.compile(r"//\s*fleda-lint:\s*allow\(([a-z\-,\s]+)\)")

RAW_CLOCK_RE = re.compile(r"\b(?:steady_clock|high_resolution_clock)\b")
RAW_RANDOM_RE = re.compile(r"\b(?:s?rand\s*\(|random_device\b)")
STDOUT_RE = re.compile(
    r"std\s*::\s*cout\b"
    r"|(?<![\w:])(?:std\s*::\s*)?(?:printf|puts)\s*\("
    r"|\bfprintf\s*\(\s*stdout\b"
)
GETENV_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")
# Matched on the raw line (the ISA list is a string literal, which
# strip_code blanks); the match must start in code, not a comment.
TARGET_ATTR_RE = re.compile(r"\btarget\s*\(\s*\"([^\"]*)\"")
FUSED_ISA_RE = re.compile(r"^fma4?$")
AVX512_ISA_RE = re.compile(r"^avx512\w*$")
# The guarded AVX-512 macro, and what guards it (see fp-contract).
AVX512_MACRO_RE = re.compile(r"^\s*#\s*define\s+FLEDA_TARGET_AVX512\b")
CONTRACT_OFF_ATTR_RE = re.compile(
    r"\boptimize\s*\(\s*\"-?f?fp-contract=off\"\s*\)")
CONTRACT_OFF_PRAGMA_RE = re.compile(
    r"^\s*#\s*pragma\s+(?:clang\s+fp\s+contract\s*\(\s*off\s*\)"
    r"|STDC\s+FP_CONTRACT\s+OFF\b)")
CONDITIONAL_RE = re.compile(r"^\s*#\s*(?:if|ifdef|ifndef|elif|else|endif)\b")
FMA_CALL_RE = re.compile(
    r"\b_mm\d*_fn?m(?:add|sub)\w*"
    r"|\bstd\s*::\s*fma[fl]?\s*\("
    r"|\b__builtin_fma[fl]?\s*\("
)
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:fleda\s*::\s*)?"
    r"(?:std\s*::\s*(?:mutex|shared_mutex)|Mutex)\s+"
    r"([A-Za-z_]\w*)\s*;"
)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*?>"
    r"\s+([A-Za-z_]\w*)\s*[;{=(]"
)

HEADER_EXTS = (".hpp", ".h", ".hh", ".hxx")
SOURCE_EXTS = HEADER_EXTS + (".cpp", ".cc", ".cxx")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based; 0 = file-level
        self.rule = rule
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blanks out comments and string/char literal contents (preserving
    newlines and the quote characters), so rule regexes never fire on
    documentation or log-message text."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
            i += 1
    return "".join(out)


def allowed_rules_by_line(text):
    """Maps 1-based line number -> set of rule ids allowed on that line
    (parsed from the raw text, before comments are stripped)."""
    allows = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            allows[lineno] = rules
    return allows


def in_unordered_scope(path):
    """True when `path` sits in one of the determinism-critical numeric
    subtrees (src/fl, src/sim, src/tensor)."""
    parts = os.path.normpath(path).split(os.sep)
    for i, part in enumerate(parts[:-1]):
        if part == "src" and i + 1 < len(parts) and parts[i + 1] in UNORDERED_ITER_DIRS:
            return True
    return False


def in_src_scope(path):
    """True when `path` sits under a src/ tree (the library)."""
    return "src" in os.path.normpath(path).split(os.sep)[:-1]


def guarded_avx512_lines(raw_lines, lines):
    """Maps 1-based line number -> True for every line of a
    `#define FLEDA_TARGET_AVX512` (continuations included) that carries
    the contraction guard: optimize("fp-contract=off") in the definition
    itself, or a contraction-off pragma earlier in the same preprocessor
    branch (so the Clang branch's pragma cannot vouch for a GCC
    branch's definition)."""
    guarded = {}
    pragma_seen = False
    i = 0
    while i < len(lines):
        if CONDITIONAL_RE.match(lines[i]):
            pragma_seen = False
        if CONTRACT_OFF_PRAGMA_RE.match(lines[i]):
            pragma_seen = True
        if not AVX512_MACRO_RE.match(lines[i]):
            i += 1
            continue
        start = i
        while i + 1 < len(raw_lines) and raw_lines[i].rstrip().endswith("\\"):
            i += 1
        definition = " ".join(raw_lines[start:i + 1])
        ok = pragma_seen or bool(CONTRACT_OFF_ATTR_RE.search(definition))
        for lineno in range(start + 1, i + 2):
            guarded[lineno] = ok
        i += 1
    return guarded


FUSED_MESSAGE = (
    "fused multiply-add in the library — it rounds once where the "
    "portable kernels round twice, so bits would depend on the host ISA; "
    "multiply, then add")
UNGUARDED_AVX512_MESSAGE = (
    "AVX-512 target outside the guarded FLEDA_TARGET_AVX512 macro — "
    "AVX-512F brings FMA, and GCC contracts a mul followed by an add into "
    "it unless optimize(\"fp-contract=off\") (or Clang's contract pragma) "
    "switches that off")


def target_message(isas, guarded):
    """The fp-contract message for one target(...) ISA list, or None."""
    names = [isa.strip() for isa in isas.split(",")]
    if any(FUSED_ISA_RE.match(n) for n in names):
        return FUSED_MESSAGE
    if any(AVX512_ISA_RE.match(n) for n in names) and not guarded:
        return UNGUARDED_AVX512_MESSAGE
    return None


def lint_file(path, force_all_rules=False):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [Finding(path, 0, "io", f"unreadable: {e}")]

    findings = []
    allows = allowed_rules_by_line(raw)
    stripped = strip_code(raw)
    lines = stripped.splitlines()
    norm = os.path.normpath(os.path.abspath(path))

    def report(lineno, rule, message):
        if rule in allows.get(lineno, ()):
            return
        findings.append(Finding(path, lineno, rule, message))

    # --- file-level: pragma-once -------------------------------------
    if path.endswith(HEADER_EXTS) and not PRAGMA_ONCE_RE.search(stripped):
        if "pragma-once" not in file_allows(raw):
            findings.append(
                Finding(path, 0, "pragma-once", "header lacks #pragma once")
            )

    # --- declarations the line rules need ----------------------------
    unordered_names = set(UNORDERED_DECL_RE.findall(stripped))
    mutex_decls = []  # (lineno, name)
    for lineno, line in enumerate(lines, start=1):
        m = MUTEX_DECL_RE.match(line)
        if m:
            mutex_decls.append((lineno, m.group(1)))

    # --- line rules ---------------------------------------------------
    clock_exempt = norm.endswith(RAW_CLOCK_EXEMPT_SUFFIX)
    check_unordered = force_all_rules or in_unordered_scope(norm)
    check_env = force_all_rules or in_src_scope(norm)
    raw_lines = raw.splitlines()
    avx512_guarded = guarded_avx512_lines(raw_lines, lines)
    range_for_res = [
        re.compile(r"for\s*\([^;)]*?:\s*" + re.escape(name) + r"\s*\)")
        for name in unordered_names
    ]
    begin_res = [
        re.compile(r"\b" + re.escape(name) + r"\s*\.\s*(?:c?begin|c?end)\s*\(")
        for name in unordered_names
    ]

    for lineno, line in enumerate(lines, start=1):
        if not clock_exempt and RAW_CLOCK_RE.search(line):
            report(
                lineno,
                "raw-clock",
                "raw monotonic clock outside obs/profiler.hpp — time flows "
                "through StopWatch (host) or SimClock (simulated)",
            )
        if RAW_RANDOM_RE.search(line):
            report(
                lineno,
                "raw-random",
                "unseeded randomness — use util/rng's deterministic streams",
            )
        if STDOUT_RE.search(line):
            report(
                lineno,
                "stdout-io",
                "stdout write in library code — benches own stdout; use "
                "util/logging (stderr) instead",
            )
        if check_env and GETENV_RE.search(line):
            report(
                lineno,
                "env-knob",
                "environment read in the library — a new knob; escape it "
                "with a justification or move it to the benches' config",
            )
        if check_env:
            raw_line = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            messages = [
                target_message(m.group(1), avx512_guarded.get(lineno, False))
                for m in TARGET_ATTR_RE.finditer(raw_line)
                if line[m.start():m.start() + 6] == "target"
            ]
            if FMA_CALL_RE.search(line):
                messages.append(FUSED_MESSAGE)
            for message in dict.fromkeys(m for m in messages if m):
                report(lineno, "fp-contract", message)
        if check_unordered:
            for name, rf, bf in zip(unordered_names, range_for_res, begin_res):
                if rf.search(line) or bf.search(line):
                    report(
                        lineno,
                        "unordered-iter",
                        f"iteration over unordered container '{name}' in a "
                        "numeric path — hash order is nondeterministic; "
                        "sort keys or use std::map",
                    )

    # --- mutex-guarded ------------------------------------------------
    for lineno, name in mutex_decls:
        guarded = re.search(
            r"FLEDA_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)",
            stripped,
        )
        if not guarded:
            report(
                lineno,
                "mutex-guarded",
                f"mutex '{name}' has no FLEDA_GUARDED_BY({name}) protectee "
                "in this file — annotate what it locks (or allow with a "
                "justification)",
            )

    return findings


def file_allows(raw):
    """Rule ids allowed anywhere in a file (for the file-level rules)."""
    allowed = set()
    for rules in allowed_rules_by_line(raw).values():
        allowed |= rules
    return allowed


def orphan_headers(root):
    """orphan-header findings for the headers under root/src. An
    include resolves against root/src, then against the including
    file's directory. An include inside a comment (strip_code blanks
    its '#') does not count."""
    src = os.path.join(root, "src")
    users = {}  # normalized header path -> set of including files
    for path in iter_sources([os.path.join(root, d) for d in INCLUDER_DIRS]):
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
        code_lines = strip_code(raw).splitlines()
        for lineno, line in enumerate(raw.splitlines()):
            m = INCLUDE_RE.match(line)
            if not m or "#" not in code_lines[lineno]:
                continue
            for base in (src, os.path.dirname(path)):
                target = os.path.normpath(os.path.join(base, m.group(1)))
                if os.path.isfile(target):
                    users.setdefault(target, set()).add(os.path.normpath(path))
                    break
    findings = []
    for header in iter_sources([src]):
        if not header.endswith(HEADER_EXTS):
            continue
        key = os.path.normpath(header)
        own = os.path.splitext(key)[0] + ".cpp"
        if users.get(key, set()) - {own}:
            continue
        with open(header, "r", encoding="utf-8", errors="replace") as f:
            if "orphan-header" in file_allows(f.read()):
                continue
        findings.append(Finding(
            header, 0, "orphan-header",
            "no file under " + ", ".join(d + "/" for d in INCLUDER_DIRS) +
            " includes this header but its own .cpp — delete the module "
            "or give it a caller"))
    return findings


def iter_sources(paths):
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(SOURCE_EXTS):
                yield p
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, fn)


def run_lint(paths):
    findings = []
    for path in iter_sources(paths):
        findings.extend(lint_file(path))
    for p in paths:
        norm = os.path.normpath(os.path.abspath(p))
        if os.path.isdir(norm) and os.path.basename(norm) == "src":
            findings.extend(orphan_headers(os.path.dirname(norm)))
    for f in findings:
        print(f)
    if findings:
        print(f"fleda-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- self-test

FIXTURE_HEADER_RE = re.compile(
    r"//\s*fleda-lint-fixture:\s*(clean|expect\s+([a-z\-,\s]+))"
)


def run_self_test(fixtures_dir):
    """Every fixture declares its expectation on its first line:
    `// fleda-lint-fixture: clean` or
    `// fleda-lint-fixture: expect rule-a,rule-b`.
    Fixtures run with every rule forced on (directory scoping is a
    production nicety, not something fixtures should depend on). A
    directory named *_tree is a project root for orphan-header, whose
    findings join those of the file they name."""
    failures = []
    fixture_count = 0
    tree_rules = {}  # normalized path -> rules found by the tree rules
    for entry in sorted(os.listdir(fixtures_dir)):
        tree = os.path.join(fixtures_dir, entry)
        if entry.endswith("_tree") and os.path.isdir(tree):
            for f in orphan_headers(tree):
                key = os.path.normpath(f.path)
                tree_rules.setdefault(key, set()).add(f.rule)
    for path in iter_sources([fixtures_dir]):
        with open(path, "r", encoding="utf-8") as f:
            first_line = f.readline()
        m = FIXTURE_HEADER_RE.search(first_line)
        if not m:
            failures.append(f"{path}: missing fleda-lint-fixture header line")
            continue
        fixture_count += 1
        expected = set()
        if m.group(2):
            expected = {r.strip() for r in m.group(2).split(",") if r.strip()}
        unknown = expected - set(ALL_RULES)
        if unknown:
            failures.append(f"{path}: unknown rule(s) in expectation: {unknown}")
            continue
        got = {f.rule for f in lint_file(path, force_all_rules=True)}
        got |= tree_rules.get(os.path.normpath(path), set())
        if got != expected:
            failures.append(
                f"{path}: expected rules {sorted(expected) or '[]'}, "
                f"got {sorted(got) or '[]'}"
            )
    if fixture_count == 0:
        failures.append(f"{fixtures_dir}: no fixtures found")
    for msg in failures:
        print(f"self-test FAIL: {msg}", file=sys.stderr)
    if not failures:
        print(f"fleda-lint self-test: {fixture_count} fixtures ok")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture self-tests and exit")
    parser.add_argument("--fixtures", default="tests/lint_fixtures",
                        help="fixture directory for --self-test")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test(args.fixtures)
    return run_lint(args.paths or ["src"])


if __name__ == "__main__":
    sys.exit(main())
