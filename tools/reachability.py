#!/usr/bin/env python3
"""Link-time reachability gate: every src/ function is linked by a shipped
binary, or is on a justified allowlist.

A function that no example, bench or the perfbench driver links is code no
product path runs. Coverage would not catch it (tests call it), so this
gate asks the linker instead. Build the tree and the perfbench project
with per-function sections, no inlining and section garbage collection:

  F="-ffunction-sections -fdata-sections -fno-inline"
  L="-Wl,--gc-sections"
  cmake -S . -B build-reach -G Ninja \\
        -DCMAKE_CXX_FLAGS="$F" -DCMAKE_EXE_LINKER_FLAGS="$L"
  cmake --build build-reach
  cmake -S perfbench -B build-reach-perfbench -G Ninja \\
        -DCMAKE_CXX_FLAGS="$F" -DCMAKE_EXE_LINKER_FLAGS="$L"
  cmake --build build-reach-perfbench
  python3 tools/reachability.py --build build-reach \\
        --perfbench-build build-reach-perfbench

The gate reads the strong (`T`) symbols of every src/**/lib*.a in
--build and the defined symbols of every executable in --build's
examples/ and bench/ directories plus --perfbench-build's
jarvis_perfbench. It fails on:

  * a library symbol no executable defines, unless it is allowlisted;
  * an allowlist entry that an executable now links (delete the entry);
  * an allowlist entry naming a symbol no library defines any more;
  * an allowlist line without an (a) or (c) reason.

Allowlist lines (tools/reachability_allow.txt) are
`<demangled symbol>  # (<a|c>) <reason>`; `#` lines are comments:

  (a) safety code (assertions, reference oracles);
  (c) a test-facing observer or constructor, naming the test that uses it
      to check behaviour a shipped binary runs.

A paper mechanism is not a reason: it stays only if a shipped binary runs
it.

Run with --self-test to exercise the checker on canned `nm` output.
Exit status 0 when clean; 1 with a report otherwise.
"""

import argparse
import os
import re
import subprocess
import sys

REQUIRED_CXX_FLAGS = ("-ffunction-sections", "-fno-inline")
REQUIRED_LINKER_FLAGS = ("--gc-sections",)
EXE_DIRS = ("examples", "bench")
PERFBENCH_EXE = "jarvis_perfbench"

ALLOW_LINE = re.compile(r"^(?P<symbol>\S.*?)\s+#\s+\((?P<kind>[ac])\)\s+"
                        r"(?P<reason>\S.*)$")


_STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
           "std::allocator<char> >")
_DEFAULT_ARGS = (", std::allocator<", ", std::default_delete<")


def simplify(name):
    """Shortens a demangled name the way a reader writes it: std::string,
    no ABI tags, no default allocator or deleter arguments."""
    name = name.replace(_STRING, "std::string").replace("[abi:cxx11]", "")
    for marker in _DEFAULT_ARGS:
        start = name.find(marker)
        while start >= 0:
            depth = 0
            end = start + len(marker) - 1  # the argument's opening '<'
            while True:
                depth += {"<": 1, ">": -1}.get(name[end], 0)
                if depth == 0:
                    break
                end += 1
            name = name[:start] + name[end + 1:]
            start = name.find(marker)
    return name.replace(" >", ">")


def parse_nm(text, strong_only):
    """Simplified symbol names from `nm -C --defined-only` output.

    strong_only keeps only global text (`T`) symbols, the out-of-line
    functions a library defines; otherwise every defined symbol counts.
    """
    symbols = set()
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or len(parts[1]) != 1:
            continue  # archive member headers, blank lines
        if strong_only and parts[1] != "T":
            continue
        symbols.add(simplify(parts[2]))
    return symbols


def parse_allowlist(text):
    """Returns ({symbol: (kind, reason)}, [errors])."""
    entries = {}
    errors = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = ALLOW_LINE.match(line)
        if match is None:
            errors.append(f"allowlist line {number}: needs "
                          f"'<symbol>  # (a|c) <reason>': {line}")
            continue
        symbol = match.group("symbol")
        if symbol in entries:
            errors.append(f"allowlist line {number}: duplicate entry "
                          f"{symbol}")
            continue
        entries[symbol] = (match.group("kind"), match.group("reason"))
    return entries, errors


def check(library_symbols, linked_symbols, allowlist):
    """Returns the gate's findings for the parsed inputs."""
    errors = [f"unreached, not allowlisted: {symbol}"
              for symbol in sorted(library_symbols - linked_symbols)
              if symbol not in allowlist]
    for symbol in sorted(allowlist):
        if symbol not in library_symbols:
            errors.append(f"allowlisted but no src library defines it "
                          f"(delete the entry): {symbol}")
        elif symbol in linked_symbols:
            errors.append(f"allowlisted but now linked by a shipped binary "
                          f"(delete the entry): {symbol}")
    return errors


def nm(path, strong_only):
    proc = subprocess.run(["nm", "-C", "--defined-only", path],
                          capture_output=True, text=True, check=True)
    return parse_nm(proc.stdout, strong_only)


def require_flags(build_dir):
    """Errors if build_dir was not configured with the gate's flags."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return [f"{build_dir}: no CMakeCache.txt (configure it first)"]
    values = {}
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    errors = []
    for key, flags in (("CMAKE_CXX_FLAGS", REQUIRED_CXX_FLAGS),
                       ("CMAKE_EXE_LINKER_FLAGS", REQUIRED_LINKER_FLAGS)):
        for flag in flags:
            if flag not in values.get(key, ""):
                errors.append(f"{build_dir}: {key} lacks {flag}; without it "
                              "every function in a linked object counts as "
                              "reached")
    return errors


def is_executable(path):
    return os.path.isfile(path) and os.access(path, os.X_OK)


def collect(build_dir, perfbench_dir):
    libraries = []
    for dirpath, _, names in os.walk(os.path.join(build_dir, "src")):
        libraries += [os.path.join(dirpath, n) for n in names
                      if n.startswith("lib") and n.endswith(".a")]
    executables = []
    for sub in EXE_DIRS:
        top = os.path.join(build_dir, sub)
        if os.path.isdir(top):
            executables += [os.path.join(top, n) for n in sorted(
                os.listdir(top)) if is_executable(os.path.join(top, n))]
    executables.append(os.path.join(perfbench_dir, PERFBENCH_EXE))
    return sorted(libraries), executables


def run_gate(build_dir, perfbench_dir, allow_path):
    errors = require_flags(build_dir) + require_flags(perfbench_dir)
    libraries, executables = collect(build_dir, perfbench_dir)
    if not libraries:
        errors.append(f"{build_dir}/src: no lib*.a (build it first)")
    errors += [f"{exe}: missing (build it first)" for exe in executables
               if not is_executable(exe)]
    with open(allow_path, encoding="utf-8") as f:
        allowlist, allow_errors = parse_allowlist(f.read())
    errors += allow_errors
    if errors:
        return report(errors)

    library_symbols = set()
    for library in libraries:
        library_symbols |= nm(library, strong_only=True)
    linked_symbols = set()
    for exe in executables:
        linked_symbols |= nm(exe, strong_only=False)
    errors = check(library_symbols, linked_symbols, allowlist)
    if errors:
        return report(errors)
    print(f"reachability.py: clean ({len(library_symbols)} src functions, "
          f"{len(executables)} binaries, {len(allowlist)} allowlisted)")
    return 0


def report(errors):
    print(f"reachability.py: {len(errors)} finding(s):\n", file=sys.stderr)
    for error in errors:
        print("  " + error, file=sys.stderr)
    return 1


# --- Self-test on canned nm output -----------------------------------------

_LIB_NM = """
stats.cpp.o:
0000000000000000 T jarvis::util::OnlineStats::Add(double)
0000000000000000 T jarvis::util::Mean(std::vector<double, std::allocator<double> > const&)
0000000000000000 T jarvis::util::Join[abi:cxx11](std::vector<std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >, std::allocator<std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > > > const&)
0000000000000000 t (anonymous namespace)::Helper(int)
0000000000000000 W jarvis::util::InlineOnly()

mutex.cpp.o:
0000000000000000 T jarvis::util::Mutex::AssertHeld() const
0000000000000000 T jarvis::util::Mutex::Lock()
"""

_EXE_NM = """
0000000000401000 T main
0000000000401100 T jarvis::util::OnlineStats::Add(double)
0000000000401200 T jarvis::util::Mutex::Lock()
0000000000401300 W jarvis::util::InlineOnly()
"""

_ALLOW_OK = """# comment
jarvis::util::Mutex::AssertHeld() const  # (a) lock assertion; util_mutex_test
"""

SELF_TEST_CASES = [
    # (name, allowlist text, substrings each in exactly one error)
    ("unreached symbol not on the allowlist fails", _ALLOW_OK,
     ["unreached, not allowlisted: jarvis::util::Mean(",
      "unreached, not allowlisted: jarvis::util::Join("]),
    ("allowlisted symbols pass", _ALLOW_OK +
     "jarvis::util::Mean(std::vector<double> const&)  # (c) util_stats_test\n"
     "jarvis::util::Join(std::vector<std::string> const&)  # (c) x\n",
     []),
    ("a now-reachable entry fails", _ALLOW_OK +
     "jarvis::util::Mean(std::vector<double> const&)  # (c) x\n"
     "jarvis::util::Join(std::vector<std::string> const&)  # (c) x\n"
     "jarvis::util::Mutex::Lock()  # (a) y\n",
     ["now linked by a shipped binary (delete the entry): "
      "jarvis::util::Mutex::Lock()"]),
    ("an entry for a deleted symbol fails", _ALLOW_OK +
     "jarvis::util::Mean(std::vector<double> const&)  # (c) x\n"
     "jarvis::util::Join(std::vector<std::string> const&)  # (c) x\n"
     "jarvis::util::Gone()  # (c) z\n",
     ["no src library defines it (delete the entry): "
      "jarvis::util::Gone()"]),
]

_BAD_ALLOW_LINES = [
    ("missing reason kind", "jarvis::util::Mean()  # because\n"),
    ("unknown reason kind", "jarvis::util::Mean()  # (d) because\n"),
    ("paper-mechanism kind", "jarvis::util::Mean()  # (b) Section III\n"),
    ("empty reason", "jarvis::util::Mean()  # (a)\n"),
    ("duplicate entry", "f()  # (a) x\nf()  # (c) y\n"),
]


def run_self_test():
    failures = []
    library = parse_nm(_LIB_NM, strong_only=True)
    if library != {
            "jarvis::util::OnlineStats::Add(double)",
            "jarvis::util::Mean(std::vector<double> const&)",
            "jarvis::util::Join(std::vector<std::string> const&)",
            "jarvis::util::Mutex::AssertHeld() const",
            "jarvis::util::Mutex::Lock()"}:
        failures.append(f"library parse kept the wrong symbols: {library!r}")
    linked = parse_nm(_EXE_NM, strong_only=False)
    if "jarvis::util::InlineOnly()" not in linked:
        failures.append("executable parse dropped a weak symbol")
    for name, allow_text, expected in SELF_TEST_CASES:
        allowlist, parse_errors = parse_allowlist(allow_text)
        errors = check(library, linked, allowlist)
        errors += parse_errors
        for marker in expected:
            if len([e for e in errors if marker in e]) != 1:
                failures.append(f"{name}: expected one finding containing "
                                f"{marker!r}, got {errors!r}")
        if len(errors) != len(expected):
            failures.append(f"{name}: expected {len(expected)} finding(s), "
                            f"got {errors!r}")
    for name, allow_text in _BAD_ALLOW_LINES:
        _, parse_errors = parse_allowlist(allow_text)
        if len(parse_errors) != 1:
            failures.append(f"allowlist {name}: expected one parse error, "
                            f"got {parse_errors!r}")
    if failures:
        return report(failures)
    total = 2 + len(SELF_TEST_CASES) + len(_BAD_ALLOW_LINES)
    print(f"reachability.py --self-test: {total} fixture cases pass")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--build", help="main build tree (gate flags)")
    parser.add_argument("--perfbench-build",
                        help="perfbench build tree (gate flags)")
    parser.add_argument("--allow", default=os.path.join(
        root, "tools", "reachability_allow.txt"))
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker on canned nm output and exit")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    if not args.build or not args.perfbench_build:
        parser.error("--build and --perfbench-build are required")
    return run_gate(args.build, args.perfbench_build, args.allow)


if __name__ == "__main__":
    sys.exit(main())
