#!/usr/bin/env python3
"""Unexecuted src/ lines per function, from a --coverage build's gcov data.

Usage:
    scripts/coverage_table.py [BUILD_DIR] [--json OUT] [--compare BASE.json]

BUILD_DIR (default: build-coverage) is a tree built with the `coverage`
preset after its tests ran, so every object has its .gcda counts. The script
runs `gcov --json-format --stdout` over every .gcda file in the tree, keeps
the records of files under the repository's src/, and merges them per source
line: a line counts as executed when any translation unit executed it (a
header's inline functions are instrumented in every file that includes it).

It prints each src/ function with unexecuted lines, most unexecuted first,
then the total of unexecuted and instrumented lines. --json OUT also writes
those totals and per-function counts to OUT. --compare BASE.json (a file an
earlier run wrote with --json, e.g. on the parent commit) prints the base and
the current totals side by side and every function whose unexecuted count
changed. The script reports; it gates nothing.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src") + os.sep


def gcda_files(build_dir):
    for dirpath, _, names in os.walk(os.path.abspath(build_dir)):
        for name in names:
            if name.endswith(".gcda"):
                yield os.path.join(dirpath, name)


def gcov_documents(gcda):
    out = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                         cwd=os.path.dirname(gcda), check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        if line.strip():
            yield json.loads(line)


def merged_lines(build_dir):
    """(path relative to the repo, line) -> [count, demangled function]."""
    lines = {}
    for gcda in gcda_files(build_dir):
        for doc in gcov_documents(gcda):
            for record in doc["files"]:
                path = os.path.realpath(os.path.join(doc.get("current_working_directory", ""),
                                                     record["file"]))
                if not path.startswith(SRC):
                    continue
                rel = os.path.relpath(path, REPO)
                names = {f["name"]: f["demangled_name"] for f in record["functions"]}
                for entry in record["lines"]:
                    key = (rel, entry["line_number"])
                    function = names.get(entry.get("function_name"), "?")
                    slot = lines.setdefault(key, [0, function])
                    slot[0] += entry["count"]
    return lines


def summarize(lines):
    """Totals and per-function unexecuted counts, in the --json layout."""
    unexecuted = defaultdict(int)
    for (path, _), (count, function) in lines.items():
        if count == 0:
            unexecuted[(path, function)] += 1
    rows = sorted(((n, path, fn) for (path, fn), n in unexecuted.items()),
                  key=lambda r: (-r[0], r[1], r[2]))
    return {
        "unexecuted": sum(unexecuted.values()),
        "instrumented": len(lines),
        "functions": [{"path": path, "function": fn, "unexecuted": n} for n, path, fn in rows],
    }


def totals_line(summary):
    total, lines = summary["unexecuted"], summary["instrumented"]
    executed = 100.0 * (lines - total) / lines if lines else 0.0
    return f"{total} of {lines} instrumented src/ lines unexecuted ({executed:.1f}% executed)"


def compare(base, current):
    print(f"base:    {totals_line(base)}")
    print(f"current: {totals_line(current)}")
    before = {(f["path"], f["function"]): f["unexecuted"] for f in base["functions"]}
    after = {(f["path"], f["function"]): f["unexecuted"] for f in current["functions"]}
    changed = sorted(((after.get(k, 0) - before.get(k, 0), k) for k in before.keys() | after.keys()
                      if after.get(k, 0) != before.get(k, 0)),
                     key=lambda r: (-abs(r[0]), r[1]))
    print(f"functions whose unexecuted count changed: {len(changed)}")
    for delta, (path, fn) in changed:
        print(f"{before.get((path, fn), 0):5d} -> {after.get((path, fn), 0):5d}  "
              f"({delta:+d})  {path}  {fn}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", nargs="?", default=os.path.join(REPO, "build-coverage"))
    parser.add_argument("--json", metavar="OUT", help="also write the totals and "
                        "per-function unexecuted counts to OUT")
    parser.add_argument("--compare", metavar="BASE.json", help="print BASE.json's totals "
                        "beside the current ones, and the functions whose count changed")
    args = parser.parse_args()

    lines = merged_lines(args.build_dir)
    if not lines:
        sys.exit(f"no gcov data for src/ under {args.build_dir}: build the coverage "
                 "preset and run its tests first")

    summary = summarize(lines)
    for f in summary["functions"]:
        print(f"{f['unexecuted']:5d}  {f['path']}  {f['function']}")
    print(f"total: {totals_line(summary)}")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(summary, out, indent=1)
            out.write("\n")
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)
        compare(base, summary)


if __name__ == "__main__":
    main()
