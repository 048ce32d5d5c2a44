#!/usr/bin/env python3
"""Repo-specific lint for debruijn-routing, driven by compile_commands.json.

House rules (each one exists because the generic tooling cannot express it):

  naked-assert        <cassert>'s assert() is compiled out by NDEBUG, which
                      the RelWithDebInfo production build sets — a contract
                      that silently vanishes is worse than none. Library,
                      tool, bench and example code must use the DBN_REQUIRE /
                      DBN_ENSURE / DBN_ASSERT / DBN_AUDIT macros
                      (src/common/contract.hpp). tests/ may assert freely.

  std-rand            std::rand is shared mutable state (flagged by TSan,
                      breaks replayable seeding). Use common/rng.hpp.

  raw-new             src/ owns memory through containers and smart pointers
                      only; a raw `new` expression is either a leak or a
                      job for std::make_unique.

  schema-literal      On-disk schema tags ("trace/1", "metrics/1", ...) are
                      declared once in src/common/schema.hpp; writers and
                      readers reference the constants so a version bump is
                      one diff (plus the code it breaks).

  include-order       A foo.cpp must include its own foo.hpp first — the
                      cheap way to keep every header self-contained.

  mutex-needs-annotation
                      Concurrency state in src/ is checkable by Clang's
                      Thread Safety Analysis only when the mutex is a
                      dbn::Mutex (common/mutex.hpp) and the state it guards
                      carries DBN_GUARDED_BY. A raw std::mutex member can
                      never be named as a capability; a dbn::Mutex in a file
                      with no DBN_GUARDED_BY at all guards nothing the
                      analysis can see. Either annotate or justify inline.

  tsa-exemption       DBN_NO_THREAD_SAFETY_ANALYSIS switches Clang's Thread
                      Safety Analysis off for a whole function. Each use in
                      src/ must justify inline why its unchecked accesses
                      are safe. The macro's home, src/common/annotations.hpp,
                      is exempt.

  oracle-include      src/oracle/ holds the differential oracles and ablation
                      engines (suffix tree and array, Z rows, the Algorithm
                      2/4 routers, ...); production runs none of them. No
                      file under src/ outside src/oracle/ and src/testkit/,
                      and none under tools/ or examples/, may include an
                      oracle/ header, so production code and its link lines
                      stay free of dbn_oracle. Tests and benches may.

  argv-parse          Every tool and example reads its command line through
                      one parser, tools/args.hpp (both flag forms,
                      whole-number parsing, usage errors). A private
                      flag_value/has_flag or a std::ato*/std::sto*/strto*
                      call in tools/ or examples/ outside that header is a
                      second parser: atoi("abc") is a silent 0, stod("1x")
                      a silent 1.

Suppressing a finding requires an inline justification on the same line:
    ... // dbn-lint: allow(<rule>) <reason>

Suppressions are audited: an allow() naming an unknown rule, or one on a
line where that rule no longer fires, is itself a finding
(stale-suppression) — dead suppressions hide real regressions when the
code under them changes.

Usage:
    dbn_lint.py --compile-commands build/compile_commands.json
    dbn_lint.py <file.cpp> [file.hpp ...]     # explicit file list

The compilation database supplies the .cpp universe; headers are collected
by scanning the repo directories the database's sources live in.  Exits 1
if any finding is reported.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_DIRS = ("src", "tools", "bench", "examples", "tests")
SCHEMA_REGISTRY = Path("src") / "common" / "schema.hpp"
ANNOTATIONS_HEADER = Path("src") / "common" / "annotations.hpp"

# Rules -----------------------------------------------------------------------

ALLOW_RE = re.compile(r"//\s*dbn-lint:\s*allow\(([a-z-]+)\)\s*\S")

NAKED_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
STD_RAND_RE = re.compile(r"std\s*::\s*rand\b|(?<![A-Za-z0-9_:])s?rand\s*\(")
# A `new` expression: preceded by something that makes it an expression
# context. `= delete`, `delete` expressions and member names like `renew`
# don't match.
RAW_NEW_RE = re.compile(r"(?<![A-Za-z0-9_])new\b(?!\s*\()")
SCHEMA_LITERAL_RE = re.compile(
    r"(?:trace|metricsts|metrics|introspect|chaos|dbn-bench|serve|loadgen"
    r"|case|corpus)/[0-9]+"
)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
# A mutex *declaration* (member or local): optional qualifiers, the type,
# one identifier, `;`. References (`Mutex&`) alias an existing capability
# and don't match.
STD_MUTEX_DECL_RE = re.compile(
    r"\bstd\s*::\s*(?:recursive_|shared_|timed_)?mutex\s+\w+\s*;"
)
DBN_MUTEX_DECL_RE = re.compile(
    r"(?:(?<![A-Za-z0-9_:])Mutex|\bdbn\s*::\s*Mutex)\s+\w+\s*;"
)
TSA_EXEMPTION_RE = re.compile(r"\bDBN_NO_THREAD_SAFETY_ANALYSIS\b")
# The src/ subdirectories that may include oracle/ headers.
ORACLE_INCLUDERS = ("oracle", "testkit")
# A C/C++ text-to-number call or a hand-rolled flag lookup; `.store(`,
# `->stop(` and similar members do not match.
ARGV_PARSE_RE = re.compile(
    r"(?<![A-Za-z0-9_.>])(?:std\s*::\s*)?"
    r"(?:ato(?:i|l|ll|f)|sto(?:i|l|ll|ul|ull|f|d|ld)"
    r"|strto(?:l|ll|ul|ull|f|d|ld|imax|umax))\s*\("
    r"|(?<![A-Za-z0-9_])(?:flag_value|has_flag)\s*\("
)
ARGS_HEADER = Path("tools") / "args.hpp"

KNOWN_RULES = frozenset({
    "naked-assert", "std-rand", "raw-new", "schema-literal",
    "include-order", "mutex-needs-annotation", "tsa-exemption",
    "oracle-include", "argv-parse",
})


def strip_comments_keep_strings(text: str) -> str:
    """Removes // and /* */ comments, preserving line structure and strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i : i + 2])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_strings(line: str) -> str:
    """Removes string/char literal contents from one comment-free line."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[str] = []

    def report(self, path: Path, lineno: int, rule: str, message: str) -> None:
        rel = path.relative_to(self.root) if path.is_absolute() else path
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(self.root) if path.is_absolute() else path
        top = rel.parts[0] if rel.parts else ""
        if top not in REPO_DIRS:
            return
        raw = path.read_text(encoding="utf-8")
        code = strip_comments_keep_strings(raw)
        raw_lines = raw.splitlines()
        code_lines = code.splitlines()

        in_tests = top == "tests"
        file_has_guarded_by = "DBN_GUARDED_BY" in code
        production = top in ("tools", "examples") or (
            top == "src" and rel.parts[1] not in ORACLE_INCLUDERS
        )
        for lineno, (code_line, raw_line) in enumerate(
            zip(code_lines, raw_lines), start=1
        ):
            allowed = {m.group(1) for m in ALLOW_RE.finditer(raw_line)}
            bare = strip_strings(code_line)
            # Every rule that would fire on this line, allowed or not —
            # feeds both the findings and the stale-suppression audit.
            fired: set[str] = set()

            if not in_tests:
                for m in NAKED_ASSERT_RE.finditer(bare):
                    before = bare[: m.start()]
                    if before.rstrip().endswith(("static_", "_")):
                        continue
                    fired.add("naked-assert")
                if "naked-assert" in fired and "naked-assert" not in allowed:
                    self.report(
                        path, lineno, "naked-assert",
                        "use DBN_REQUIRE/DBN_ENSURE/DBN_ASSERT/DBN_AUDIT "
                        "(common/contract.hpp); assert() vanishes under NDEBUG",
                    )
            if top in ("src", "tools"):
                if STD_RAND_RE.search(bare):
                    fired.add("std-rand")
                    if "std-rand" not in allowed:
                        self.report(
                            path, lineno, "std-rand",
                            "std::rand/srand are unseeded shared state; "
                            "use common/rng.hpp",
                        )
            if top == "src":
                if RAW_NEW_RE.search(bare) and "= delete" not in bare:
                    fired.add("raw-new")
                    if "raw-new" not in allowed:
                        self.report(
                            path, lineno, "raw-new",
                            "raw new expression; "
                            "use std::make_unique/containers",
                        )
            if top in ("src", "tools") and rel != SCHEMA_REGISTRY:
                if SCHEMA_LITERAL_RE.search(code_line):
                    fired.add("schema-literal")
                    if "schema-literal" not in allowed:
                        self.report(
                            path, lineno, "schema-literal",
                            "schema version strings are declared once in "
                            "src/common/schema.hpp; reference the constant",
                        )
            if top == "src":
                if STD_MUTEX_DECL_RE.search(bare):
                    fired.add("mutex-needs-annotation")
                    if "mutex-needs-annotation" not in allowed:
                        self.report(
                            path, lineno, "mutex-needs-annotation",
                            "raw std::mutex cannot carry thread-safety "
                            "annotations; use dbn::Mutex (common/mutex.hpp) "
                            "and DBN_GUARDED_BY",
                        )
                elif DBN_MUTEX_DECL_RE.search(bare) and not file_has_guarded_by:
                    fired.add("mutex-needs-annotation")
                    if "mutex-needs-annotation" not in allowed:
                        self.report(
                            path, lineno, "mutex-needs-annotation",
                            "this file declares a Mutex but no state is "
                            "DBN_GUARDED_BY it; annotate the guarded fields "
                            "or justify inline",
                        )
            if top == "src" and rel != ANNOTATIONS_HEADER:
                if TSA_EXEMPTION_RE.search(bare):
                    fired.add("tsa-exemption")
                    if "tsa-exemption" not in allowed:
                        self.report(
                            path, lineno, "tsa-exemption",
                            "DBN_NO_THREAD_SAFETY_ANALYSIS turns the lock "
                            "analysis off for the whole function; guard the "
                            "state instead or justify inline",
                        )

            if production:
                m = INCLUDE_RE.match(code_line)
                if m and m.group(2).startswith("oracle/"):
                    fired.add("oracle-include")
                    if "oracle-include" not in allowed:
                        self.report(
                            path, lineno, "oracle-include",
                            f'production code includes "{m.group(2)}"; '
                            "oracle/ is for tests, the testkit and benches "
                            "(production routes run core/route_engine.hpp)",
                        )

            if top in ("tools", "examples") and rel != ARGS_HEADER:
                if ARGV_PARSE_RE.search(bare):
                    fired.add("argv-parse")
                    if "argv-parse" not in allowed:
                        self.report(
                            path, lineno, "argv-parse",
                            "tools and examples parse argv with "
                            "tools/args.hpp "
                            "(ArgParser, parse_number); no private flag "
                            "lookup or ato*/sto*/strto* call",
                        )

            # Stale-suppression audit. include-order is checked in its own
            # whole-file pass below, so its allows are exempt here.
            for rule in sorted(allowed - fired - {"include-order"}):
                if rule not in KNOWN_RULES:
                    self.report(
                        path, lineno, "stale-suppression",
                        f"allow({rule}) names an unknown rule",
                    )
                else:
                    self.report(
                        path, lineno, "stale-suppression",
                        f"allow({rule}) suppresses nothing on this line; "
                        "remove the stale comment",
                    )

        if top == "src" and path.suffix == ".cpp":
            self.check_own_header_first(path, rel, code_lines)

    def check_own_header_first(
        self, path: Path, rel: Path, code_lines: list[str]
    ) -> None:
        own = rel.with_suffix(".hpp")
        if not (self.root / own).exists():
            return
        # The include form used in this repo is "subdir/name.hpp" relative
        # to src/.
        expected = own.relative_to("src").as_posix()
        for lineno, line in enumerate(code_lines, start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            if m.group(2) != expected:
                self.report(
                    path, lineno, "include-order",
                    f'first include must be the own header "{expected}" '
                    "(keeps headers self-contained)",
                )
            return


def sources_from_compile_commands(db_path: Path, root: Path) -> list[Path]:
    entries = json.loads(db_path.read_text(encoding="utf-8"))
    files: set[Path] = set()
    dirs: set[Path] = set()
    for entry in entries:
        src = Path(entry["directory"], entry["file"]).resolve()
        try:
            rel = src.relative_to(root)
        except ValueError:
            continue  # generated / external source
        files.add(root / rel)
        if rel.parts:
            dirs.add(Path(rel.parts[0]))
    # The database only lists .cpp files; pull in the headers next to them.
    for top in sorted(dirs):
        for header in (root / top).rglob("*.hpp"):
            files.add(header)
    return sorted(files)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json supplying the file set")
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root (default: this script's parent dir)")
    parser.add_argument("files", nargs="*", type=Path,
                        help="explicit files to lint instead")
    args = parser.parse_args()

    root = (args.root or Path(__file__).resolve().parent.parent).resolve()
    if args.files:
        files = [f.resolve() for f in args.files]
    elif args.compile_commands:
        files = sources_from_compile_commands(
            args.compile_commands.resolve(), root
        )
    else:
        files = sorted(
            f for top in REPO_DIRS for f in (root / top).rglob("*")
            if f.suffix in (".cpp", ".hpp") and (root / top).is_dir()
        )
    if not files:
        print("dbn_lint: no files to lint", file=sys.stderr)
        return 2

    linter = Linter(root)
    for f in files:
        if f.suffix in (".cpp", ".hpp"):
            linter.lint_file(f)

    for finding in linter.findings:
        print(finding)
    if linter.findings:
        print(f"dbn_lint: {len(linter.findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"dbn_lint: OK ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
