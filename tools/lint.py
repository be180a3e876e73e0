#!/usr/bin/env python3
"""Project lint gate: the checks that need a toolchain.

All per-line and cross-file source checks (no-throw, no-naked-new,
status-ladder, include-guard, metrics-state, no-raw-thread,
no-raw-socket, net-test-clock, atomic-order, layering, lock-coverage,
protocol-drift, status-flow) live in the compiled analyzer under
tools/staticcheck/ (DESIGN.md §11), which runs as its own ctest entry
and CI job. This script keeps only what staticcheck cannot do:

  * a compile probe (--probe-compiler): discarding a Status must FAIL
    under -Werror=unused-result, proving [[nodiscard]] holds, while a
    control TU that consumes the Status must compile;
  * a clang-tidy sweep over src/ when clang-tidy is on PATH (skipped
    with a notice otherwise; --require-clang-tidy turns the skip into
    a failure for CI images that ship clang).

Exit code 0 when clean, 1 when any violation is found.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

# --------------------------------------------------- nodiscard compile probe

PROBE_COMMON = """
#include "common/result.h"
#include "common/status.h"
scidb::Status Fallible() { return scidb::Status::Invalid("probe"); }
scidb::Result<int> FallibleResult() { return scidb::Status::Invalid("p"); }
"""

PROBE_DISCARD = PROBE_COMMON + """
int main() {
  Fallible();          // must warn: discarded Status
  FallibleResult();    // must warn: discarded Result
  return 0;
}
"""

PROBE_CONSUME = PROBE_COMMON + """
int main() {
  scidb::Status st = Fallible();
  scidb::Result<int> r = FallibleResult();
  return (st.ok() ? 1 : 0) + (r.ok() ? 1 : 0);
}
"""


def run_probe(compiler, std, root):
    """Returns a list of failure strings (empty on success)."""
    if shutil.which(compiler) is None:
        return ["--probe-compiler %r not found; pass a C++ compiler on "
                "PATH or an absolute path" % compiler]
    failures = []
    with tempfile.TemporaryDirectory(prefix="scidb_lint_") as tmp:
        cases = [
            ("discard", PROBE_DISCARD, False),  # expected to FAIL to compile
            ("consume", PROBE_CONSUME, True),   # expected to compile
        ]
        for name, source, want_success in cases:
            src = os.path.join(tmp, name + ".cc")
            with open(src, "w", encoding="utf-8") as f:
                f.write(source)
            cmd = [
                compiler, "-std=" + std, "-fsyntax-only",
                "-Werror=unused-result",
                "-I", os.path.join(root, "src"), src,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            ok = proc.returncode == 0
            if ok != want_success:
                if want_success:
                    failures.append(
                        "probe '%s': expected to compile but failed:\n%s"
                        % (name, proc.stderr.strip()))
                else:
                    failures.append(
                        "probe '%s': discarding a Status/Result compiled "
                        "cleanly under -Werror=unused-result; the "
                        "[[nodiscard]] contract is broken" % name)
    return failures


# ------------------------------------------------------------- clang-tidy


def run_clang_tidy(root, require):
    tidy = shutil.which("clang-tidy")
    if tidy is None:
        msg = "clang-tidy not found on PATH; skipping .clang-tidy checks"
        if require:
            return ["--require-clang-tidy set but " + msg]
        print("NOTE: " + msg)
        return []
    sources = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        sources += [os.path.join(dirpath, f) for f in files
                    if f.endswith(".cc")]
    cmd = [tidy, "--quiet", "--warnings-as-errors=*"] + sorted(sources) + [
        "--", "-std=c++20", "-I", os.path.join(root, "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return ["clang-tidy violations:\n" + proc.stdout.strip()]
    return []


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--probe-compiler", default=None,
                    help="C++ compiler used for the -Werror=unused-result "
                         "probe (skipped when omitted)")
    ap.add_argument("--probe-std", default="c++20")
    ap.add_argument("--require-clang-tidy", action="store_true")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    failures = []
    if args.probe_compiler:
        failures += run_probe(args.probe_compiler, args.probe_std, root)
    failures += run_clang_tidy(root, args.require_clang_tidy)

    if failures:
        print("lint: %d problem(s):" % len(failures))
        for f in failures:
            print("  " + f)
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
