#!/usr/bin/env python3
"""Runs a figure binary and diffs its stdout against a committed golden.

Usage:
    python3 tools/golden_diff.py build/bench/fig01_pareto_stores \\
        tests/golden/fig01_pareto_stores.txt

The figure and ablation binaries are deterministic with default options,
so their output must match the golden byte for byte. On a mismatch this
prints a unified diff and exits 1. A change that moves a figure on purpose
regenerates the golden and says why:

    ./build/bench/fig01_pareto_stores > tests/golden/fig01_pareto_stores.txt
"""

import difflib
import os
import subprocess
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: golden_diff.py <binary> <golden.txt>")
    binary, golden = sys.argv[1], sys.argv[2]
    # The goldens are default-option outputs. CI legs export MONKEYDB_*
    # overrides (e.g. the concurrent memtable, whose arena accounting moves
    # flush points) for the whole suite; they must not reach the figures.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MONKEYDB_")}
    got = subprocess.run([binary], stdout=subprocess.PIPE, env=env,
                         check=True).stdout
    with open(golden, "rb") as f:
        want = f.read()
    if got == want:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.decode(errors="replace").splitlines(keepends=True),
        got.decode(errors="replace").splitlines(keepends=True),
        fromfile=golden, tofile=binary))
    return 1


if __name__ == "__main__":
    sys.exit(main())
