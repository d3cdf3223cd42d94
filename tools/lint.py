#!/usr/bin/env python3
"""Repo-specific lint gate for Jarvis (registered as the `repo_lint` ctest).

Enforced invariants (see DESIGN.md "Correctness tooling"):

  1. Every header starts with `#pragma once` (first preprocessor directive).
  2. Every header is self-contained: it compiles standalone with
     `$CXX -fsyntax-only` and the project include paths.
  3. No `using namespace` at any scope inside headers.
  4. Randomness goes through util/rng: no `rand()`, `srand()`, or
     `std::random_device` anywhere outside src/util/rng.* (deterministic
     replay of episodes is part of the safety story).
  5. No <iostream> in src/ — the library must not drag streams into hot
     paths or emit stray output; CLIs under examples/ may use it freely.
  6. No `std::cout` / `std::cerr` / `printf` writes in src/ (logging goes
     through the events logger).
  7. No mutable static/global state in src/ — every object is per-instance
     so distinct Jarvis/Fleet tenants can run concurrently on distinct
     threads (DESIGN.md §10). `static const`/`constexpr`/`constinit`
     constants are fine; anything else needs an entry in
     MUTABLE_STATIC_ALLOWLIST with a justification.
  8. No raw std synchronization primitives in src/ outside the annotated
     wrapper (src/util/mutex.*): std::mutex, std::shared_mutex,
     std::lock_guard, std::unique_lock, std::scoped_lock,
     std::shared_lock, std::condition_variable(_any) and their headers
     are banned — locking goes through util::Mutex so Clang
     -Wthread-safety sees every acquisition (DESIGN.md §13).
     RAW_SYNC_ALLOWLIST is empty on purpose. Tests may use std
     primitives freely (they synchronize test scaffolding, not library
     state).
  9. Guard coverage: in any src/ header class that declares a
     util::Mutex / util::SharedMutex member, every `_`-suffixed data
     member must either carry JARVIS_GUARDED_BY / JARVIS_PT_GUARDED_BY
     or justify itself with an `// unguarded: <why>` comment on its
     declaration line. Clang's analysis only WEAKENS when an annotation
     is deleted — this rule is what makes deleting one a test failure
     (repo_lint) instead of a silent coverage loss.
 10. No raw file-write handles in src/ outside src/util/io.*:
     std::ofstream, std::fstream, fopen, freopen are banned — durable
     writes go through util::io, whose atomic temp-fsync-rename replace
     never leaves a half-written checkpoint behind and whose append-only
     log loses at most the line a crash tore (DESIGN.md §14). Reads
     (std::ifstream) are unaffected; tests and examples/ may open files
     however they like. RAW_IO_ALLOWLIST is empty on purpose.
 11. No raw socket/fd I/O in src/ outside the transport layer
     (src/serve/transport.*) and the io layer (src/util/io.*): socket
     headers, socket/poll syscalls, and global-scope fd calls
     (::read/::write/::open/::close/...) are banned everywhere else —
     every byte stream rides serve::FramedTransport and every durable
     write rides util::io, so framing recovery and crash atomicity are
     enforced in exactly one place each (DESIGN.md §15).
     RAW_SOCKET_ALLOWLIST is empty on purpose. Tests and examples/ may
     use OS I/O freely.
 12. Every quoted `#include "..."` in src/, tests/, bench/ and examples/
     resolves — against the including file's directory, then against
     src/ — to a file `git ls-files` tracks. An ignored or never-added
     header builds in the author's tree and breaks every clean clone.
     Skipped (with a note) outside a git checkout.
 13. Every backticked `src/`, `tests/`, `tools/`, `bench/` or
     `examples/` path in DESIGN.md and README.md names a file or
     directory that exists; a module stem (`src/sim/attack`) counts when
     a .h or .cpp with that stem exists. `<...>` placeholders and glob or
     brace patterns are skipped, and so are fenced code blocks. A doc
     that names a deleted file describes code that is gone.

Run with --self-test to exercise the rule engine against embedded
fixtures (wired into CI's static-analysis job).

Exit status 0 when clean; 1 with a readable report otherwise.
"""

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

SCAN_DIRS = ("src", "tests", "bench", "examples")

# Every src/ module the lint invariants are consciously applied to. A new
# src/ subdirectory must be registered here (and in DESIGN.md §3) so its
# headers inherit the hygiene/RNG/iostream rules on purpose, not by luck.
SRC_MODULES = frozenset({
    "core", "events", "fsm", "neural", "obs", "persist", "rl", "runtime",
    "serve", "sim", "spl", "util",
})

# Files allowed to use raw OS randomness.
RNG_ALLOWLIST = {
    os.path.join("src", "util", "rng.h"),
    os.path.join("src", "util", "rng.cpp"),
}

# src/ files allowed to hold mutable static/global state. Empty on purpose:
# the concurrency audit for the fleet runtime found none, and keeping it
# that way is what lets tenants run on any worker without locks. Add a
# file here only with a written justification next to the entry.
MUTABLE_STATIC_ALLOWLIST: frozenset = frozenset()

# The annotated locking layer itself — the only src/ files allowed to name
# raw std synchronization primitives (they wrap them).
SYNC_WRAPPER_FILES = {
    os.path.join("src", "util", "mutex.h"),
    os.path.join("src", "util", "mutex.cpp"),
}

# src/ files (beyond the wrapper) allowed to use raw std synchronization.
# Empty on purpose: every lock in the library is a util::Mutex so the
# thread-safety analysis sees it. Add a file here only with a written
# justification next to the entry.
RAW_SYNC_ALLOWLIST: frozenset = frozenset()

# The atomic-write layer itself — the only src/ files allowed to hold raw
# file-write handles (they implement the temp-fsync-rename commit).
IO_WRAPPER_FILES = {
    os.path.join("src", "util", "io.h"),
    os.path.join("src", "util", "io.cpp"),
}

# src/ files (beyond the io wrapper) allowed to write files directly.
# Empty on purpose: every durable write rides the atomic path, which is
# what makes checkpoint recovery trustworthy. Add a file here only with a
# written justification next to the entry.
RAW_IO_ALLOWLIST: frozenset = frozenset()

# The byte-stream boundary — the only src/ files allowed to touch sockets
# and raw file descriptors: the serve transport (framing + connection I/O)
# and the io layer (atomic durable writes). Everything else in src/ speaks
# serve::FramedTransport or util::io.
TRANSPORT_IO_FILES = {
    os.path.join("src", "serve", "transport.h"),
    os.path.join("src", "serve", "transport.cpp"),
    os.path.join("src", "util", "io.h"),
    os.path.join("src", "util", "io.cpp"),
}

# src/ files (beyond the transport/io boundary) allowed raw socket/fd I/O.
# Empty on purpose: one transport means hostile-input recovery and framing
# are tested in one place. Add a file here only with a written
# justification next to the entry.
RAW_SOCKET_ALLOWLIST: frozenset = frozenset()

PRAGMA_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
DIRECTIVE_RE = re.compile(r"^\s*#")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
RAND_RE = re.compile(r"(?<![\w:])(?:std\s*::\s*)?(?:rand|srand)\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
IOSTREAM_RE = re.compile(r'^\s*#\s*include\s*[<"]iostream[>"]')
STREAM_WRITE_RE = re.compile(r"\bstd\s*::\s*(cout|cerr)\b|(?<![\w:])f?printf\s*\(")
# A namespace/function-scope `static` (or thread_local) object declaration.
# Lines with '(' are skipped below: static functions and static member
# function declarations are linkage, not state. `static_assert` has no \b
# match ('_' is a word character).
STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?(?:static|thread_local)\b")
CONST_QUAL_RE = re.compile(r"\bconst(?:expr|init)?\b")
RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b")
SYNC_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")
# Write-capable file handles (rule 10). std::ifstream is deliberately NOT
# matched: reads cannot tear a durable artifact.
RAW_IO_WRITE_RE = re.compile(
    r"\bstd\s*::\s*(?:basic_)?(?:ofstream|fstream)\b"
    r"|(?<![\w:])f(?:re)?open\s*\(")
# Rule 11: socket headers, socket/poll syscalls, and global-scope posix fd
# calls. The bare-name socket alternatives use a lookbehind so member calls
# (obj.accept(...)) and std:: helpers (std::bind(...)) never match; the fd
# alternatives require an explicit global-scope `::` so names like
# vector::close stay legal.
SOCKET_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*<(?:sys/socket\.h|netinet/in\.h|netinet/tcp\.h|"
    r"arpa/inet\.h|sys/un\.h|poll\.h|sys/select\.h|sys/epoll\.h)>")
SOCKET_CALL_RE = re.compile(
    r"(?<![\w:.>])(?:::\s*)?(?:socket|bind|listen|accept4?|connect|"
    r"recv|send|recvfrom|sendto|setsockopt|getsockopt|getaddrinfo|"
    r"freeaddrinfo|poll|ppoll|epoll_(?:create1?|ctl|wait))\s*\(")
POSIX_FD_RE = re.compile(
    r"(?<![\w>)\]])::\s*(?:open|openat|creat|read|write|close|pipe2?|"
    r"dup2?|fsync|fdatasync|ftruncate|lseek)\s*\(")
# A util::Mutex / util::SharedMutex / util::CondVar data-member statement
# (the lock vocabulary itself is exempt from guard coverage).
SYNC_TYPE_RE = re.compile(r"\butil\s*::\s*(?:Mutex|SharedMutex|CondVar)\b")
MUTEX_MEMBER_RE = re.compile(r"\butil\s*::\s*(?:Shared)?Mutex\s+\w+\s*$")
GUARDED_MACRO_RE = re.compile(r"\bJARVIS_(?:PT_)?GUARDED_BY\s*\(")
JARVIS_MACRO_CALL_RE = re.compile(r"\bJARVIS_\w+\s*\([^()]*\)")
TRAILING_INIT_RE = re.compile(r"=[^=]*$")
TRAILING_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*$")
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
CLASS_HEAD_RE = re.compile(r"\b(?:class|struct)\b")
# Rule 13: the docs it reads, their fenced code blocks, and an inline code
# span that starts with a repo path (group 1: the path, up to whitespace).
DOC_FILES = ("DESIGN.md", "README.md")
FENCED_BLOCK_RE = re.compile(r"^```.*?^```", re.M | re.S)
DOC_PATH_RE = re.compile(
    r"`((?:src|tests|tools|bench|examples)/[^`\s]*)[^`]*`")
ENUM_HEAD_RE = re.compile(r"\benum\b")


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments and string literals (keeps line count)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def check_guard_coverage(rel, raw, errors):
    """Rule 9: per-class guard coverage in src/ headers.

    Single-pass brace scanner over comment-stripped text. Tracks a stack of
    {} scopes, marking which are class/struct bodies; statements terminated
    by ';' at a class body's top level are candidate data members. A class
    that declares a util::Mutex/util::SharedMutex member must have every
    `_`-suffixed data member either annotated (JARVIS_GUARDED_BY /
    JARVIS_PT_GUARDED_BY) or tagged `// unguarded: <why>` in the raw
    source on its declaration lines.
    """
    code = strip_comments(raw)
    raw_lines = raw.splitlines()
    line = 1
    # Scope stack: each entry is a dict for a '{' scope; class bodies carry
    # a member list and a mutex flag.
    stack = []
    pending = []          # statement text accumulated at the current level
    pending_start = line  # first line of the pending statement

    def flush_member(frame, stmt_text, start_line, end_line):
        stmt = stmt_text.strip()
        if not stmt:
            return
        # Leading blank space in the accumulated text belongs to earlier
        # lines; the statement starts at its first content character.
        lead = stmt_text[:len(stmt_text) - len(stmt_text.lstrip())]
        start_line += lead.count("\n")
        if GUARDED_MACRO_RE.search(stmt):
            return  # annotated: fine
        cleaned = JARVIS_MACRO_CALL_RE.sub("", stmt)
        if MUTEX_MEMBER_RE.search(cleaned.strip()):
            frame["has_mutex"] = True
            return
        if SYNC_TYPE_RE.search(cleaned):
            return  # the lock vocabulary itself needs no guard
        cleaned = TRAILING_INIT_RE.sub("", cleaned).strip()
        name_match = TRAILING_NAME_RE.search(cleaned)
        if not name_match or not name_match.group(1).endswith("_"):
            return  # function declaration, using-alias, ... — not a member
        tagged = any(
            "unguarded:" in raw_lines[i - 1]
            for i in range(start_line, min(end_line, len(raw_lines)) + 1))
        if not tagged:
            frame["members"].append((name_match.group(1), start_line))

    i, n = 0, len(code)
    while i < n:
        ch = code[i]
        if ch == "\n":
            line += 1
            pending.append(ch)
        elif ch == "{":
            head = "".join(pending)
            is_class = (CLASS_HEAD_RE.search(head) is not None
                        and ENUM_HEAD_RE.search(head) is None)
            stack.append({
                "is_class": is_class,
                "members": [],
                "has_mutex": False,
            })
            pending = []
            pending_start = line
        elif ch == "}":
            if stack:
                frame = stack.pop()
                if frame["is_class"] and frame["has_mutex"]:
                    for name, lineno in frame["members"]:
                        if name is None:
                            continue
                        errors.append(
                            f"{rel}:{lineno}: member '{name}' of a "
                            "mutex-holding class has no JARVIS_GUARDED_BY /"
                            " JARVIS_PT_GUARDED_BY and no '// unguarded: "
                            "<why>' justification (guard coverage, lint "
                            "rule 9)")
            pending = []
            pending_start = line
        elif ch == ";":
            if stack and stack[-1]["is_class"]:
                flush_member(stack[-1], "".join(pending), pending_start, line)
            pending = []
            pending_start = line
        else:
            if not pending and not ch.isspace():
                pending_start = line
            pending.append(ch)
        i += 1


def check_includes_tracked(rel, raw, tracked, errors):
    """Rule 12: quoted includes resolve to git-tracked files.

    `rel` and every entry of `tracked` are '/'-separated paths relative to
    the repository root.
    """
    rel = rel.replace(os.sep, "/")
    here = os.path.dirname(rel)
    for lineno, line in enumerate(raw.splitlines(), 1):
        match = QUOTED_INCLUDE_RE.match(line)
        if not match:
            continue
        target = match.group(1)
        candidates = [os.path.normpath(os.path.join(base, target))
                      .replace(os.sep, "/") for base in (here, "src")]
        if not any(candidate in tracked for candidate in candidates):
            errors.append(
                f"{rel}:{lineno}: #include \"{target}\" does not resolve "
                "to a git-tracked file (checked "
                f"{' and '.join(candidates)}) — a clean clone cannot build "
                "it (lint rule 12)")


def check_doc_paths(rel, text, exists, errors):
    """Rule 13: backticked repo paths in a doc name something that exists.

    `exists(path)` answers for a '/'-separated path relative to the root.
    """
    # Blank the fenced blocks (keeping their newlines) so line numbers hold
    # and their backticks cannot pair with inline ones.
    text = FENCED_BLOCK_RE.sub(lambda m: "\n" * m.group(0).count("\n"),
                               text)
    for match in DOC_PATH_RE.finditer(text):
        path = match.group(1)
        if any(ch in path for ch in "<>*?{}[]"):
            continue  # a placeholder or a pattern, not one path
        stem = path.rstrip("/")
        if not any(exists(p) for p in (stem, stem + ".h", stem + ".cpp")):
            lineno = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{rel}:{lineno}: `{path}` names no file or directory "
                "(lint rule 13)")


def git_tracked_files(root):
    """The repository's tracked paths, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", root, "ls-files", "-z"],
                              capture_output=True, check=False)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return {path for path in proc.stdout.decode("utf-8").split("\0") if path}


def iter_files(root):
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith((".h", ".hpp", ".cpp", ".cc")):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root)


def check_pragma_once(rel, lines, errors):
    for lineno, line in enumerate(lines, 1):
        if DIRECTIVE_RE.match(line):
            if not PRAGMA_RE.match(line):
                errors.append(
                    f"{rel}:{lineno}: first preprocessor directive must be "
                    "'#pragma once'")
            return
    errors.append(f"{rel}:1: header has no '#pragma once'")


def check_file_text(root, rel, errors, text=None):
    is_header = rel.endswith((".h", ".hpp"))
    in_src = rel.startswith("src" + os.sep)
    if text is None:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            raw = f.read()
    else:
        raw = text
    code = strip_comments(raw)
    code_lines = code.splitlines()

    if is_header:
        check_pragma_once(rel, raw.splitlines(), errors)
        for lineno, line in enumerate(code_lines, 1):
            if USING_NAMESPACE_RE.match(line):
                errors.append(
                    f"{rel}:{lineno}: 'using namespace' is banned in headers")

    if rel not in RNG_ALLOWLIST:
        for lineno, line in enumerate(code_lines, 1):
            if RAND_RE.search(line) or RANDOM_DEVICE_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: raw randomness is banned; route through "
                    "util/rng (seeded, replayable)")

    if in_src:
        for lineno, line in enumerate(code_lines, 1):
            if IOSTREAM_RE.match(line):
                errors.append(
                    f"{rel}:{lineno}: <iostream> is banned in src/ "
                    "(keep streams out of library hot paths)")
            if STREAM_WRITE_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: direct console output is banned in src/ "
                    "(use the events logger)")
            if (rel not in MUTABLE_STATIC_ALLOWLIST
                    and STATIC_DECL_RE.match(line)
                    and "(" not in line
                    and not CONST_QUAL_RE.search(line)):
                errors.append(
                    f"{rel}:{lineno}: mutable static/global state is banned "
                    "in src/ — keep objects per-instance so tenants stay "
                    "thread-safe (DESIGN.md §10); constants must be "
                    "const/constexpr")
            if (rel not in SYNC_WRAPPER_FILES
                    and rel not in RAW_SYNC_ALLOWLIST
                    and (RAW_SYNC_RE.search(line)
                         or SYNC_INCLUDE_RE.match(line))):
                errors.append(
                    f"{rel}:{lineno}: raw std synchronization is banned in "
                    "src/ — use util::Mutex / util::MutexLock / "
                    "util::CondVar so Clang -Wthread-safety sees the lock "
                    "(lint rule 8, DESIGN.md §13)")
            if (rel not in IO_WRAPPER_FILES
                    and rel not in RAW_IO_ALLOWLIST
                    and RAW_IO_WRITE_RE.search(line)):
                errors.append(
                    f"{rel}:{lineno}: raw file-write handles are banned in "
                    "src/ — route durable writes through util::io's atomic "
                    "replace or append-only log (lint rule 10, DESIGN.md "
                    "§14)")
            if (rel not in TRANSPORT_IO_FILES
                    and rel not in RAW_SOCKET_ALLOWLIST
                    and (SOCKET_INCLUDE_RE.match(line)
                         or SOCKET_CALL_RE.search(line)
                         or POSIX_FD_RE.search(line))):
                errors.append(
                    f"{rel}:{lineno}: raw socket/fd I/O is banned in src/ — "
                    "byte streams go through serve::FramedTransport and "
                    "durable writes through util::io (lint rule 11, "
                    "DESIGN.md §15)")
        if is_header:
            check_guard_coverage(rel, raw, errors)


def check_self_contained(root, rel, cxx, extra_flags):
    """Compiles the header alone; returns an error string or None."""
    # Include by absolute path: quoted includes inside the header still
    # resolve against its own directory, and nothing project-local can
    # shadow system headers (e.g. spl/features.h vs glibc <features.h>).
    wrapper = f'#include "{os.path.join(root, rel)}"\n'
    with tempfile.TemporaryDirectory() as tmp:
        tu = os.path.join(tmp, "self_containment_check.cpp")
        with open(tu, "w", encoding="utf-8") as f:
            f.write(wrapper)
        cmd = [
            cxx, "-std=c++20", "-fsyntax-only",
            "-I", os.path.join(root, "src"),
        ] + extra_flags + [tu]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            head = "\n    ".join(detail[:8])
            return f"{rel}: header is not self-contained:\n    {head}"
    return None


# --- Self-test fixtures ----------------------------------------------------
#
# Each case: (name, virtual path, file text, list of substrings that must
# each appear in exactly one finding; [] = must be clean). Exercised by
# --self-test (wired into CI's static-analysis job) so a regression in the
# rule engine fails loudly instead of silently passing dirty code.

_CLEAN_GUARDED_CLASS = """#pragma once
namespace fixture {
class Guarded {
 public:
  void Poke() JARVIS_EXCLUDES(mutex_);
  std::size_t count() const { return count_; }

 private:
  mutable util::Mutex mutex_;
  util::CondVar ready_;
  std::size_t count_ JARVIS_GUARDED_BY(mutex_) = 0;
  std::map<int, int> table_
      JARVIS_GUARDED_BY(mutex_);
  const int fixed_ = 3;  // unguarded: fixed at construction
};
}  // namespace fixture
"""

SELF_TEST_CASES = [
    ("rule8 flags std::mutex member", "src/fix/a.h",
     "#pragma once\nclass A { std::mutex m_; };\n",
     ["raw std synchronization"]),
    ("rule8 flags lock_guard use", "src/fix/a.cpp",
     "void f() { std::lock_guard<std::mutex> lock(m); }\n",
     ["raw std synchronization"]),
    ("rule8 flags <mutex> include", "src/fix/b.cpp",
     "#include <mutex>\n",
     ["raw std synchronization"]),
    ("rule8 flags condition_variable", "src/fix/c.cpp",
     "void f(std::condition_variable& cv);\n",
     ["raw std synchronization"]),
    ("rule8 exempts the wrapper itself", "src/util/mutex.h",
     "#pragma once\nclass Mutex { std::mutex mutex_; };\n",
     []),
    ("rule8 does not apply to tests", "tests/fix_test.cpp",
     "#include <mutex>\nstd::mutex m;\n",
     []),
    ("rule9 clean annotated class", "src/fix/clean.h",
     _CLEAN_GUARDED_CLASS, []),
    ("rule9 flags unannotated member", "src/fix/bad.h",
     _CLEAN_GUARDED_CLASS.replace(
         "std::size_t count_ JARVIS_GUARDED_BY(mutex_) = 0;",
         "std::size_t count_ = 0;"),
     ["member 'count_'"]),
    ("rule9 flags a deleted GUARDED_BY", "src/fix/deleted.h",
     _CLEAN_GUARDED_CLASS.replace(
         "std::map<int, int> table_\n      JARVIS_GUARDED_BY(mutex_);",
         "std::map<int, int> table_;"),
     ["member 'table_'"]),
    ("rule9 flags a removed unguarded tag", "src/fix/untagged.h",
     _CLEAN_GUARDED_CLASS.replace(
         "  // unguarded: fixed at construction", ""),
     ["member 'fixed_'"]),
    ("rule9 ignores mutex-free classes", "src/fix/nomutex.h",
     "#pragma once\nclass Plain { std::size_t count_ = 0; };\n",
     []),
    ("rule9 scopes guards per class", "src/fix/sibling.h",
     "#pragma once\n"
     "class Guarded { util::Mutex mutex_;\n"
     "  int v_ JARVIS_GUARDED_BY(mutex_); };\n"
     "class Plain { int free_ = 0; };\n",
     []),
    ("rule10 flags std::ofstream member", "src/fix/w.h",
     "#pragma once\nclass W { std::ofstream out_; };\n",
     ["raw file-write handles"]),
    ("rule10 flags std::fstream use", "src/fix/w.cpp",
     "void f() { std::fstream io(path); }\n",
     ["raw file-write handles"]),
    ("rule10 flags fopen call", "src/fix/x.cpp",
     'void f() { FILE* fp = fopen("x", "w"); }\n',
     ["raw file-write handles"]),
    ("rule10 flags freopen call", "src/fix/y.cpp",
     'void f() { freopen("x", "w", fp); }\n',
     ["raw file-write handles"]),
    ("rule10 allows ifstream reads", "src/fix/r.cpp",
     "void f() { std::ifstream in(path); }\n",
     []),
    ("rule10 exempts the io layer itself", "src/util/io.cpp",
     "void f() { std::ofstream out(path); }\n",
     []),
    ("rule10 does not apply to tests", "tests/fix_io_test.cpp",
     "void f() { std::ofstream out(path); }\n",
     []),
    ("rule11 flags socket() call", "src/fix/sock.cpp",
     "void f() { int fd = socket(AF_INET, SOCK_STREAM, 0); }\n",
     ["raw socket/fd I/O"]),
    ("rule11 flags a socket header include", "src/fix/sock2.cpp",
     "#include <sys/socket.h>\n",
     ["raw socket/fd I/O"]),
    ("rule11 flags global-scope ::write", "src/fix/sock3.cpp",
     "void f(int fd) { ::write(fd, buf, n); }\n",
     ["raw socket/fd I/O"]),
    ("rule11 flags poll()", "src/fix/sock4.cpp",
     "void f() { ::poll(&pfd, 1, 100); }\n",
     ["raw socket/fd I/O"]),
    ("rule11 ignores std::bind and member accept", "src/fix/sock5.cpp",
     "void f() { auto g = std::bind(h, 1); obj.accept(v); q->connect(w); }\n",
     []),
    ("rule11 ignores scoped ::close lookalikes", "src/fix/sock6.cpp",
     "void f() { file_stream::close(handle); }\n",
     []),
    ("rule11 exempts the transport layer", "src/serve/transport.cpp",
     "void f() { int fd = socket(AF_INET, SOCK_STREAM, 0); }\n",
     []),
    ("rule11 exempts the io layer", "src/util/io.cpp",
     "void f(int fd) { ::fsync(fd); }\n",
     []),
    ("rule11 does not apply to examples", "examples/fix_daemon.cpp",
     "#include <sys/socket.h>\nvoid f(int fd) { ::close(fd); }\n",
     []),
]


# Rule 12 fixtures: (name, virtual path, file text, tracked paths,
# substrings that must each appear in exactly one finding).
INCLUDE_SELF_TEST_CASES = [
    ("rule12 resolves against src/", "src/core/jarvis.h",
     '#pragma once\n#include "core/health.h"\n#include <vector>\n',
     {"src/core/jarvis.h", "src/core/health.h"}, []),
    ("rule12 resolves against the file's directory", "bench/bench_x.cpp",
     '#include "bench_common.h"\n#include "runtime/fleet.h"\n',
     {"bench/bench_common.h", "src/runtime/fleet.h"}, []),
    ("rule12 flags an untracked header", "src/core/jarvis.h",
     '#pragma once\n#include "core/health.h"\n',
     {"src/core/jarvis.h"}, ['"core/health.h"']),
    ("rule12 flags each missing include once", "tests/x_test.cpp",
     '#include "runtime/gone.h"\n#include "util/rng.h"\n'
     '// #include "commented/out.h"\n',
     {"src/util/rng.h"}, ['"runtime/gone.h"']),
]


# Rule 13 fixtures: (name, doc text, existing paths, substrings that
# must each appear in exactly one finding).
DOC_SELF_TEST_CASES = [
    ("rule13 accepts files, dirs, stems, placeholders and patterns",
     "`src/serve/dispatcher.h` and `tests/faults/`, the `src/sim/attack`\n"
     "stem, `tests/<module>_test.cpp`, `src/util/io.*`,\n"
     "`src/serve/{frame,transport}.h` and `tools/lint.py --self-test`\n",
     {"src/serve/dispatcher.h", "tests/faults/fakes.h",
      "src/sim/attack.cpp", "tools/lint.py"}, []),
    ("rule13 flags a deleted file and a stem with no source",
     "`src/serve/gone.h` then `src/sim/attack`\n",
     {"src/serve/dispatcher.h"}, ["`src/serve/gone.h`", "`src/sim/attack`"]),
    ("rule13 skips fenced blocks and keeps line numbers",
     "```sh\nls `src/in_fence.h`\n```\nsee `src/gone.h`\n",
     set(), ["README.md:4: `src/gone.h`"]),
]


def fixture_exists(existing):
    """An exists() over a set of files: a file or a parent directory."""
    return lambda path: path in existing or any(
        f.startswith(path + "/") for f in existing)


def run_self_test():
    failures = []
    for name, text, existing, expected in DOC_SELF_TEST_CASES:
        errors = []
        check_doc_paths("README.md", text, fixture_exists(existing), errors)
        for marker in expected:
            if len([e for e in errors if marker in e]) != 1:
                failures.append(f"{name}: expected exactly one finding "
                                f"containing {marker!r}, got {errors!r}")
        if len(errors) != len(expected):
            failures.append(f"{name}: expected {len(expected)} finding(s), "
                            f"got {errors!r}")
    for name, rel, text, tracked, expected in INCLUDE_SELF_TEST_CASES:
        errors = []
        check_includes_tracked(rel, text, tracked, errors)
        for marker in expected:
            if len([e for e in errors if marker in e]) != 1:
                failures.append(f"{name}: expected exactly one finding "
                                f"containing {marker!r}, got {errors!r}")
        if len(errors) != len(expected):
            failures.append(f"{name}: expected {len(expected)} finding(s), "
                            f"got {errors!r}")
    for name, rel, text, expected in SELF_TEST_CASES:
        errors = []
        check_file_text(None, rel, errors, text=text)
        if expected:
            for marker in expected:
                hits = [e for e in errors if marker in e]
                if len(hits) != 1:
                    failures.append(
                        f"{name}: expected exactly one finding containing "
                        f"{marker!r}, got {len(hits)} in {errors!r}")
            if len(errors) != len(expected):
                failures.append(
                    f"{name}: expected {len(expected)} finding(s), got "
                    f"{errors!r}")
        elif errors:
            failures.append(f"{name}: expected clean, got {errors!r}")
    if failures:
        print(f"lint.py --self-test: {len(failures)} failure(s):\n",
              file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        return 1
    total = (len(SELF_TEST_CASES) + len(INCLUDE_SELF_TEST_CASES)
             + len(DOC_SELF_TEST_CASES))
    print(f"lint.py --self-test: {total} fixture cases pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--cxx", default=os.environ.get("CXX", "c++"),
                        help="compiler for header self-containment checks")
    parser.add_argument("--skip-self-containment", action="store_true",
                        help="text checks only (no compiler invocations)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule engine against embedded fixtures "
                             "and exit")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    root = os.path.abspath(args.root)

    files = list(iter_files(root))
    if not files:
        print("lint.py: no sources found under", root, file=sys.stderr)
        return 1

    errors = []
    src_root = os.path.join(root, "src")
    for entry in sorted(os.listdir(src_root)):
        if os.path.isdir(os.path.join(src_root, entry)) \
                and entry not in SRC_MODULES:
            errors.append(
                f"src/{entry}: module not registered in tools/lint.py "
                "SRC_MODULES (register it so lint rules apply on purpose)")
    for rel in files:
        check_file_text(root, rel, errors)

    tracked = git_tracked_files(root)
    if tracked is None:
        print("lint.py: not a git checkout; include-tracking rule 12 "
              "skipped")
    else:
        for rel in files:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                check_includes_tracked(rel, f.read(), tracked, errors)

    for doc in DOC_FILES:
        with open(os.path.join(root, doc), encoding="utf-8") as f:
            check_doc_paths(doc, f.read(),
                            lambda p: os.path.exists(os.path.join(root, p)),
                            errors)

    headers = [f for f in files if f.endswith((".h", ".hpp"))]
    if not args.skip_self_containment:
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=os.cpu_count() or 2) as pool:
            futures = {
                pool.submit(check_self_contained, root, rel, args.cxx, []): rel
                for rel in headers
            }
            for future in concurrent.futures.as_completed(futures):
                err = future.result()
                if err:
                    errors.append(err)

    if errors:
        print(f"lint.py: {len(errors)} finding(s):\n", file=sys.stderr)
        for err in sorted(errors):
            print("  " + err, file=sys.stderr)
        return 1

    mode = "text-only" if args.skip_self_containment else "full"
    print(f"lint.py: clean ({len(files)} files, {len(headers)} headers, "
          f"{mode} mode)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
