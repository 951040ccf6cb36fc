#!/usr/bin/env python3
"""Inventory of the public functions that no non-test target reaches.

Usage:

    python3 scripts/unused_pub.py [--check | --write]

The compiler does the counting. On a temporary copy of the checkout (the
checkout itself is never written), the script:

1. rewrites every `pub fn` and `pub const fn` in the `src/` of the eight
   library crates (`CRATES`) to `pub(crate)`;
2. runs `cargo check --offline --keep-going --message-format=json` over the
   workspace's libraries, binaries and examples, and over every target of
   `benchmark/Cargo.toml`;
3. restores `pub` on each function that a privacy error names (E0603,
   E0624 and, for a `pub use` of a function, E0364/E0365, whose span is the
   `use`, so the name is resolved within that crate);
4. repeats 2-3 until no privacy error is left, then collects rustc's
   `dead_code` warnings on the rewritten lines.

Each line of the result names one function as `<file> <Type>::<fn>` (or
`<file> <fn>` for a free function), sorted, with no line numbers. Test
targets are not checked, so a function that only tests call is listed:
`scripts/unused_pub.txt` gives, after ` # `, why each listed function
stays.

Without a flag it prints the inventory. `--check` compares it with
`scripts/unused_pub.txt` and exits 1, printing the difference, when the
sets differ. `--write` rewrites that file, keeping the reason of every
function that is still listed.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INVENTORY = ROOT / "scripts" / "unused_pub.txt"
CRATES = ["codec", "core", "energy", "gpu", "hvs", "net", "scene", "sim"]
PRIVACY_CODES = {"E0603", "E0624", "E0364", "E0365"}
PUB_FN = re.compile(r"^(\s*)pub (const )?fn ")
FN_NAME = re.compile(r"\bfn\s+(\w+)")
IMPL = re.compile(r"^(\s*)impl\b(?:<[^{]*?>)?\s+(?:[\w:<>, ']+?\s+for\s+)?([\w:]+)")
CHECKS = [
    ["--workspace", "--lib", "--bins", "--examples"],
    ["--manifest-path", "benchmark/Cargo.toml", "--all-targets"],
]


def copy_checkout(dest):
    """Copies the tracked and untracked source files (no build output)."""
    ignore = shutil.ignore_patterns("target", ".git", "out", "__pycache__")
    shutil.copytree(ROOT, dest, ignore=ignore)


def rewrite(tree):
    """Makes every `pub fn` of the eight crates `pub(crate)`.

    Returns {relative path: set of 1-based rewritten line numbers}.
    """
    rewritten = {}
    for crate in CRATES:
        for path in sorted((tree / "crates" / crate / "src").rglob("*.rs")):
            lines = path.read_text().split("\n")
            hits = set()
            for i, line in enumerate(lines):
                if PUB_FN.match(line):
                    lines[i] = line.replace("pub ", "pub(crate) ", 1)
                    hits.add(i + 1)
            if hits:
                path.write_text("\n".join(lines))
                rewritten[str(path.relative_to(tree))] = hits
    return rewritten


def cargo_messages(tree, args):
    """Runs one `cargo check` and yields its compiler diagnostics."""
    cmd = ["cargo", "check", "--offline", "--keep-going", "--message-format=json"]
    # Build inside the copy even when CARGO_TARGET_DIR points elsewhere.
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / "target"))
    proc = subprocess.run(
        cmd + args, cwd=tree, env=env, capture_output=True, text=True, check=False
    )
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if msg.get("reason") == "compiler-message":
            yield msg["message"]


def spans(diag):
    """Every span of a diagnostic and of its children."""
    yield from diag.get("spans", [])
    for child in diag.get("children", []):
        yield from spans(child)


def relpath(tree, file_name):
    """A span's file relative to the copy (spans may be absolute)."""
    path = Path(file_name)
    if path.is_absolute():
        try:
            return str(path.resolve().relative_to(tree.resolve()))
        except ValueError:
            return None
    return str(path)


def restore(tree, rel, line_no):
    """Puts `pub` back on one rewritten line."""
    path = tree / rel
    lines = path.read_text().split("\n")
    lines[line_no - 1] = lines[line_no - 1].replace("pub(crate) ", "pub ", 1)
    path.write_text("\n".join(lines))


def free_fn_lines(tree, rewritten, crate_dir, name):
    """Rewritten lines of the crate at `crate_dir` that define `fn name`."""
    found = []
    for rel, hits in rewritten.items():
        if not rel.startswith(crate_dir + "/"):
            continue
        lines = (tree / rel).read_text().split("\n")
        for line_no in hits:
            m = FN_NAME.search(lines[line_no - 1])
            if m and m.group(1) == name:
                found.append((rel, line_no))
    return found


def privacy_fixes(tree, rewritten, diag):
    """The rewritten lines one privacy error asks to make `pub` again."""
    fixes = set()
    for span in spans(diag):
        rel = relpath(tree, span["file_name"])
        if rel in rewritten and span["line_start"] in rewritten[rel]:
            fixes.add((rel, span["line_start"]))
    if fixes:
        return fixes
    # `pub use` of a function: the span is the `use`; resolve the name in
    # the crate that holds the `use`.
    names = re.findall(r"`(\w+)`", diag["message"])
    for span in spans(diag):
        rel = relpath(tree, span["file_name"]) or ""
        crate_dir = rel.split("/src/")[0] if "/src/" in rel else ""
        for name in names:
            fixes.update(free_fn_lines(tree, rewritten, crate_dir, name))
    return fixes


def item_name(tree, rel, line_no):
    """`Type::fn` (or `fn`) for the function defined at `line_no`."""
    lines = (tree / rel).read_text().split("\n")
    fn_line = lines[line_no - 1]
    name = FN_NAME.search(fn_line).group(1)
    indent = len(fn_line) - len(fn_line.lstrip())
    for line in reversed(lines[: line_no - 1]):
        m = IMPL.match(line)
        if m and len(m.group(1)) < indent:
            return f"{m.group(2).split('::')[-1]}::{name}"
        stripped = line.strip()
        if stripped and len(line) - len(line.lstrip()) < indent:
            if not stripped.startswith(("#", "//", "}", ")")):
                break
    return name


def inventory():
    """Runs the rounds on a temporary copy; returns the sorted item list."""
    with tempfile.TemporaryDirectory(prefix="unused_pub-") as tmp:
        tree = Path(tmp) / "repo"
        copy_checkout(tree)
        rewritten = rewrite(tree)
        rounds = 0
        while True:
            rounds += 1
            diags = [d for args in CHECKS for d in cargo_messages(tree, args)]
            fixes = set()
            for d in diags:
                code = (d.get("code") or {}).get("code")
                if code in PRIVACY_CODES:
                    fixes |= privacy_fixes(tree, rewritten, d)
            errors = [d for d in diags if d["level"] == "error"]
            if not fixes:
                if errors:
                    for d in errors:
                        sys.stderr.write(d.get("rendered") or d["message"])
                    sys.exit("unused_pub: compile errors that are not privacy errors")
                break
            for rel, line_no in fixes:
                restore(tree, rel, line_no)
                rewritten[rel].discard(line_no)
        items = set()
        for d in diags:
            if (d.get("code") or {}).get("code") != "dead_code":
                continue
            for span in d.get("spans", []):
                rel = relpath(tree, span["file_name"])
                if rel in rewritten and span["line_start"] in rewritten[rel]:
                    items.add(f"{rel} {item_name(tree, rel, span['line_start'])}")
        print(f"unused_pub: {rounds} cargo check rounds", file=sys.stderr)
        return sorted(items)


def read_inventory():
    """{item: reason} from the committed file (reason may be empty)."""
    entries = {}
    if INVENTORY.exists():
        for line in INVENTORY.read_text().splitlines():
            if line.strip():
                item, _, reason = line.partition(" # ")
                entries[item.strip()] = reason.strip()
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args()

    items = inventory()
    if args.write:
        old = read_inventory()
        lines = [f"{i} # {old[i]}" if old.get(i) else i for i in items]
        INVENTORY.write_text("".join(line + "\n" for line in lines))
    elif args.check:
        committed = set(read_inventory())
        found = set(items)
        for item in sorted(committed - found):
            print(f"- {item}  (listed, but now reached or deleted)")
        for item in sorted(found - committed):
            print(f"+ {item}  (unreached, not listed)")
        if committed != found:
            print(f"unused_pub: differs from {INVENTORY.relative_to(ROOT)}; "
                  "delete the new item, or rerun with --write and give its reason")
            return 1
        print(f"unused_pub: {len(items)} items match {INVENTORY.relative_to(ROOT)}")
    else:
        for item in items:
            print(item)
    return 0


if __name__ == "__main__":
    sys.exit(main())
