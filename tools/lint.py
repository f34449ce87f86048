#!/usr/bin/env python3
"""Repo-invariant linter: machine-checks conventions generic tools can't.

Rules (each with an ID used in findings and suppressions):

  throw-type          Only the pinned exception types may be thrown in src/:
                      std::invalid_argument / std::length_error (the public
                      error contract), MacError / ReplayError /
                      NonceExhaustedError (its authenticated-session
                      refinements), std::out_of_range (table-domain
                      contracts), and std::logic_error / std::runtime_error
                      (API misuse / environment exhaustion) — the last three
                      only in files allowlisted below, so new code can't
                      casually reach for them.

  throw-allowlist     Every allowlist entry must still be needed: the file
                      must exist and still contain a `throw` of the listed
                      type. A stale entry would silently license the type
                      for whatever code lands in that file next.

  length-error-msg    The error-type convention pinned in PR 6: every
                      std::length_error means "short output buffer" and must
                      say so in its message ("output buffer too small" /
                      "buffer too small"); no std::invalid_argument (or
                      MacError/ReplayError) message may claim a buffer size
                      problem. This keeps the runtime contract and the
                      convention test sweep (error_convention_test.cpp)
                      pinned to each other.

  weak-random         No std::rand/srand, no time()-style seeding, no
                      std::random_device in src/ — every generator in this
                      repository is deterministic from a printed seed
                      (util/rng.hpp), and key/nonce material comes from the
                      caller or the V2 schedule, never from wall-clock.

  memset-on-secret    Fields tagged `[[mhhea::secret]]` (in a trailing
                      comment on their declaration) hold key material and are
                      wiped with util::secure_wipe, whose stores the optimizer
                      must keep. A raw memset on a tagged field is a wipe the
                      compiler may elide — banned.

  assert-on-secret    `assert(...)` conditions naming a secret-tagged field
                      compile to branches on key material in debug builds and
                      can leak through NDEBUG divergence; use the throwing
                      validators instead.

Zero findings exits 0; findings are printed one per line
(`path:line: rule-id: message`) and exit 1. `--self-test` seeds one
violation per rule into a temp tree and asserts the linter catches each —
the negative test that proves the rules actually fire.

A finding can be suppressed by appending `// lint-ok: <rule-id> <reason>`
to the offending line.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SOURCE_GLOBS = ("src/**/*.hpp", "src/**/*.cpp")

# --- throw-type ------------------------------------------------------------

ALLOWED_THROWS_EVERYWHERE = {
    "std::invalid_argument",
    "std::length_error",
    "MacError",
    "ReplayError",
    "NonceExhaustedError",
    "std::bad_alloc",
}

# Files that may throw the restricted types, with the contract that licenses
# them. Paths are repo-relative POSIX.
RESTRICTED_THROW_ALLOWLIST = {
    "std::out_of_range": {
        "src/lfsr/polynomials.cpp", # polynomial table domain [2,32]
    },
    "std::runtime_error": {
        "src/exec/executor.cpp",    # submit after shutdown
        "src/server/server.cpp",    # socket/epoll environment failures
    },
    "std::logic_error": {
        "src/crypto/mhhea_cipher.cpp",  # v2 entry point under wrong framing
    },
}

THROW_RE = re.compile(r"\bthrow\s+(?!;)([A-Za-z_][\w:]*)")

# --- length-error-msg ------------------------------------------------------

LENGTH_THROW_RE = re.compile(r"\bthrow\s+std::length_error\s*\(")
BUFFERISH_RE = re.compile(r"(output\s+buffer|buffer\s+too\s+small)", re.IGNORECASE)
INVALID_THROW_RE = re.compile(r"\bthrow\s+(std::invalid_argument|MacError|ReplayError)\s*\(")

# --- weak-random -----------------------------------------------------------

WEAK_RANDOM_RES = (
    (re.compile(r"\bstd::s?rand\s*\("), "std::rand/std::srand"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time()-seeding"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
)

# --- secret tags -----------------------------------------------------------

SECRET_TAG = "[[mhhea::secret]]"
# A declared name: identifier directly followed by an optional {...}
# initializer and then , ; or =  (how the tagged declarations in this repo
# are shaped: `MacKey mac_key{};`, `lfsr::Lfsr a_, b_, c_;`, `KeyType key_;`).
DECL_NAME_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?(?:\{[^}]*\})?\s*(?:[,;]|=[^=])")
CPP_KEYWORDS = {"const", "constexpr", "static", "mutable", "volatile", "struct", "class",
                "public", "private", "protected", "using", "typename", "noexcept"}

MEMSET_RE = re.compile(r"\bmemset\s*\(")
ASSERT_RE = re.compile(r"(?<!static_)\bassert\s*\(")

SUPPRESS_RE = re.compile(r"//\s*lint-ok:\s*([\w-]+)")


def strip_comment(line: str) -> str:
    """Code portion of a line (drops // comments; block comments are rare
    enough here that a line-local heuristic suffices)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def is_comment_or_string_context(code: str, match_start: int) -> bool:
    """True when the match sits inside a string literal on this line."""
    quotes = 0
    i = 0
    while i < match_start:
        if code[i] == '"' and (i == 0 or code[i - 1] != "\\"):
            quotes += 1
        i += 1
    return quotes % 2 == 1


class Finding:
    def __init__(self, path: Path, lineno: int, rule: str, message: str):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: {self.rule}: {self.message}"


def collect_secret_names(files: list[tuple[Path, str, list[str]]]) -> set[str]:
    """All identifiers declared on a `[[mhhea::secret]]`-tagged line."""
    names: set[str] = set()
    for _path, _rel, lines in files:
        for line in lines:
            if SECRET_TAG not in line:
                continue
            code = line.split("//", 1)[0]
            for m in DECL_NAME_RE.finditer(code):
                name = m.group(1)
                if name not in CPP_KEYWORDS and not name[0].isupper():
                    names.add(name)
    return names


def lint_tree(root: Path,
              allowlist: dict[str, set[str]] = RESTRICTED_THROW_ALLOWLIST) -> list[Finding]:
    files: list[tuple[Path, str, list[str]]] = []
    for glob in SOURCE_GLOBS:
        for path in sorted(root.glob(glob)):
            rel = path.relative_to(root).as_posix()
            files.append((path, rel, path.read_text(encoding="utf-8").splitlines()))

    secret_names = collect_secret_names(files)
    secret_res = [re.compile(rf"\b{re.escape(n)}\b") for n in sorted(secret_names)]

    findings: list[Finding] = []
    thrown_in: set[tuple[str, str]] = set()  # (type, file) of every throw seen
    for path, rel, lines in files:
        for lineno, line in enumerate(lines, start=1):
            suppressed = {m.group(1) for m in SUPPRESS_RE.finditer(line)}
            code = strip_comment(line)

            def report(rule: str, message: str) -> None:
                if rule not in suppressed:
                    findings.append(Finding(path, lineno, rule, message))

            # throw-type
            for m in THROW_RE.finditer(code):
                if is_comment_or_string_context(code, m.start()):
                    continue
                thrown = m.group(1)
                thrown_in.add((thrown, rel))
                if thrown in ALLOWED_THROWS_EVERYWHERE:
                    continue
                allow = allowlist.get(thrown)
                if allow is not None and rel in allow:
                    continue
                if allow is not None:
                    report("throw-type",
                           f"{thrown} is restricted to {sorted(allow)}; "
                           "use the pinned public error types here")
                else:
                    report("throw-type",
                           f"thrown type '{thrown}' is outside the pinned error "
                           "contract (invalid_argument/length_error/MacError/"
                           "ReplayError + allowlisted internals)")

            # length-error-msg
            if LENGTH_THROW_RE.search(code) and not BUFFERISH_RE.search(code):
                report("length-error-msg",
                       "std::length_error must describe a short output buffer "
                       '(message should contain "output buffer too small")')
            im = INVALID_THROW_RE.search(code)
            if im and BUFFERISH_RE.search(code):
                report("length-error-msg",
                       f"{im.group(1)} message claims a buffer-size problem — "
                       "short output buffers are std::length_error by convention")

            # weak-random
            for rx, what in WEAK_RANDOM_RES:
                m = rx.search(code)
                if m and not is_comment_or_string_context(code, m.start()):
                    report("weak-random",
                           f"{what} is banned: all randomness must be "
                           "deterministic from an explicit seed (util/rng.hpp)")
                    break

            # memset-on-secret / assert-on-secret
            mm = MEMSET_RE.search(code)
            if mm and not is_comment_or_string_context(code, mm.start()):
                args = code[mm.end():]
                for rx in secret_res:
                    if rx.search(args):
                        report("memset-on-secret",
                               "raw memset on a [[mhhea::secret]] field can be "
                               "elided by the optimizer; use util::secure_wipe")
                        break
            am = ASSERT_RE.search(code)
            if am and not is_comment_or_string_context(code, am.start()):
                cond = code[am.end():]
                for rx in secret_res:
                    if rx.search(cond):
                        report("assert-on-secret",
                               "assert() naming a [[mhhea::secret]] field "
                               "branches on key material; use a throwing check")
                        break

    # throw-allowlist
    for thrown, paths in sorted(allowlist.items()):
        for rel in sorted(paths):
            if (thrown, rel) in thrown_in:
                continue
            why = ("no longer throws it" if (root / rel).is_file()
                   else "the file does not exist")
            findings.append(Finding(root / rel, 1, "throw-allowlist",
                                    f"stale allowlist entry for {thrown}: {why}; "
                                    "remove the entry"))

    return findings


# --- negative self-test ----------------------------------------------------

# Every self-test tree holds this allowlisted file and lints against this
# allowlist, so the real allowlist's entries never show up as stale there.
SELF_TEST_ALLOWED = (
    "src/core/allowed.cpp",
    'void f() { throw std::runtime_error("allowlisted here"); }\n',
)
SELF_TEST_ALLOWLIST = {"std::runtime_error": {SELF_TEST_ALLOWED[0]}}


def write_tree(root: Path, files: dict[str, str]) -> None:
    for relpath, contents in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(contents, encoding="utf-8")


SELF_TEST_SOURCES = {
    # rule-id -> (filename, contents that must trigger exactly that rule)
    "throw-type": (
        "src/core/bad_throw.cpp",
        'void f() { throw std::domain_error("nope"); }\n',
    ),
    "throw-type-restricted": (
        "src/core/bad_restricted.cpp",
        'void f() { throw std::runtime_error("not allowlisted here"); }\n',
    ),
    "length-error-msg": (
        "src/core/bad_length.cpp",
        'void f() { throw std::length_error("bad input"); }\n',
    ),
    "length-error-msg-inverse": (
        "src/core/bad_invalid.cpp",
        'void f() { throw std::invalid_argument("output buffer too small"); }\n',
    ),
    "weak-random": (
        "src/core/bad_random.cpp",
        "unsigned f() { return std::rand(); }\n",
    ),
    "weak-random-time": (
        "src/core/bad_time.cpp",
        "long f() { return time(nullptr); }\n",
    ),
    "memset-on-secret": (
        "src/core/bad_memset.cpp",
        "struct S {\n"
        "  unsigned char mac_key[16];  // [[mhhea::secret]]\n"
        "};\n"
        "void wipe(S& s) { memset(s.mac_key, 0, sizeof(s.mac_key)); }\n",
    ),
    "assert-on-secret": (
        "src/core/bad_assert.cpp",
        "struct S {\n"
        "  unsigned long seed_word{};  // [[mhhea::secret]]\n"
        "};\n"
        "void check(const S& s) { assert(s.seed_word != 0); }\n",
    ),
}

# Which rule each self-test case must fire (cases above may share a rule).
SELF_TEST_EXPECT = {
    "throw-type": "throw-type",
    "throw-type-restricted": "throw-type",
    "length-error-msg": "length-error-msg",
    "length-error-msg-inverse": "length-error-msg",
    "weak-random": "weak-random",
    "weak-random-time": "weak-random",
    "memset-on-secret": "memset-on-secret",
    "assert-on-secret": "assert-on-secret",
}


def run_self_test() -> int:
    failures = []
    # 1. Each seeded violation must be caught, in isolation.
    for case, (relpath, contents) in SELF_TEST_SOURCES.items():
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_tree(root, dict([SELF_TEST_ALLOWED, (relpath, contents)]))
            found = lint_tree(root, SELF_TEST_ALLOWLIST)
            want = SELF_TEST_EXPECT[case]
            if not any(f.rule == want for f in found):
                failures.append(f"self-test '{case}': expected a {want} finding, got "
                                f"{[str(f) for f in found] or 'none'}")
    # 2. A clean file must NOT trigger anything.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tree(root, dict([SELF_TEST_ALLOWED, (
            "src/core/clean.cpp",
            'void f(bool bad) {\n'
            '  if (bad) throw std::invalid_argument("malformed input");\n'
            '  throw std::length_error("output buffer too small");\n'
            "}\n",
        )]))
        found = lint_tree(root, SELF_TEST_ALLOWLIST)
        if found:
            failures.append(f"self-test clean file: unexpected findings {[str(f) for f in found]}")
    # 3. Suppression comments must work.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tree(root, dict([SELF_TEST_ALLOWED, (
            "src/core/suppressed.cpp",
            "void f() { throw std::domain_error(\"x\"); }  "
            "// lint-ok: throw-type exercised by a unit test\n",
        )]))
        if lint_tree(root, SELF_TEST_ALLOWLIST):
            failures.append("self-test suppression: lint-ok comment did not suppress")
    # 4. Stale allowlist entries must be caught: one naming a file that is
    #    gone, one naming a file that no longer throws the listed type.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tree(root, dict([SELF_TEST_ALLOWED]))
        stale = {**SELF_TEST_ALLOWLIST,
                 "std::logic_error": {SELF_TEST_ALLOWED[0], "src/core/gone.cpp"}}
        found = lint_tree(root, stale)
        flagged = sorted(f.path.relative_to(root).as_posix() for f in found
                         if f.rule == "throw-allowlist")
        if flagged != [SELF_TEST_ALLOWED[0], "src/core/gone.cpp"] or len(found) != 2:
            failures.append("self-test stale allowlist: expected throw-allowlist findings "
                            f"for both stale entries only, got {[str(f) for f in found]}")

    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        return 1
    print(f"lint self-test: {len(SELF_TEST_SOURCES) + 3} cases OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root to lint (default: this repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations into a temp tree and verify each rule fires")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test()

    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
