#!/usr/bin/env python3
"""Line and public-function counts of the library crates.

Usage:

    python3 scripts/loc.py [--base REV]

For each of the eight library crates (`crates/<name>/src`) and the facade
(`src`), it counts over the `.rs` files of the working tree:

* prod: production lines, the text of each file before its first
  `#[cfg(test)] mod` (the whole file when it has none);
* code: the production lines that are neither blank nor a `//` comment
  (doc comments included);
* pub fn: `pub fn` and `pub const fn` declarations in production text
  (not `pub(crate)`), as `scripts/unused_pub.py` rewrites them;
* tests: the lines from that `#[cfg(test)] mod` to the end of the file.

`--base REV` adds the same counts at a git revision, read with `git show`
so nothing is checked out, and prints each cell as `base → now (delta)`.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRATES = ["codec", "core", "energy", "gpu", "hvs", "net", "scene", "sim"]
DIRS = [f"crates/{c}/src" for c in CRATES] + ["src"]
METRICS = ["prod", "code", "pub fn", "tests"]
PUB_FN = re.compile(r"^[ \t]*pub (const )?fn ", re.MULTILINE)
TEST_MOD = re.compile(r"^[ \t]*#\[cfg\(test\)\]\s*(pub(\(\w+\))? )?mod ", re.MULTILINE)


def counts(text):
    """The four counts of one file's text."""
    found = TEST_MOD.search(text)
    cut = found.start() if found else len(text)
    prod, tests = text[:cut], text[cut:]
    lines = prod.splitlines()
    code = sum(1 for line in lines if line.strip() and not line.strip().startswith("//"))
    return [len(lines), code, len(PUB_FN.findall(prod)), len(tests.splitlines())]


def add(total, more):
    return [a + b for a, b in zip(total, more)]


def tree_counts(directory):
    """Counts of a directory's `.rs` files in the working tree."""
    total = [0] * len(METRICS)
    for path in sorted((ROOT / directory).rglob("*.rs")):
        total = add(total, counts(path.read_text()))
    return total


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def rev_counts(rev, directory):
    """Counts of a directory's `.rs` files at a git revision."""
    total = [0] * len(METRICS)
    for name in git("ls-tree", "-r", "--name-only", rev, "--", directory).splitlines():
        if name.endswith(".rs"):
            total = add(total, counts(git("show", f"{rev}:{name}")))
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV", help="also count at this revision")
    args = parser.parse_args()

    rows = []
    for directory in DIRS:
        now = tree_counts(directory)
        base = rev_counts(args.base, directory) if args.base else None
        rows.append((directory, base, now))
    total_base = None
    if args.base:
        total_base = [sum(col) for col in zip(*(base for _, base, _ in rows))]
    rows.append(("total", total_base, [sum(col) for col in zip(*(now for _, _, now in rows))]))

    def cell(base, now, i):
        if base is None:
            return str(now[i])
        return f"{base[i]} → {now[i]} ({now[i] - base[i]:+d})"

    table = [["crate", *METRICS]]
    table += [[name, *(cell(base, now, i) for i in range(len(METRICS)))] for name, base, now in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(row, widths))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
