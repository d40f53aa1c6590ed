"""How two copies of artifacts differ, cell by cell.

Usage: python tools/artifact_diff.py DIR_A DIR_B FILE...

For each FILE (a path relative to both directories) prints one line: the
largest absolute difference over its numeric cells and the number of other
cells that differ, or "layout changed" when one file is missing or the two
do not hold the same number of rows and cells.  CSV and JSON are read
alike: a file is split into records at line ends and at JSON row
separators, read in pieces, so a table of millions of rows is never held
whole; a record's cells are its quoted strings, its bare words (numbers
included) and its brackets.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys

CELL = re.compile(r'"(?:[^"\\]|\\.)*"|[^\s,\[\]{}:"]+|[\[\]{}:]')
SEPARATOR = re.compile(r"\n|\], \[")
PIECE = 1 << 20


def records(path: str):
    """The file's records, split at line ends and JSON row separators."""
    with open(path, encoding="utf-8") as handle:
        carry = ""
        while True:
            piece = handle.read(PIECE)
            parts = SEPARATOR.split(carry + piece)
            # the last part may continue in the next piece
            carry = parts.pop() if piece else ""
            yield from parts
            if not piece:
                return


def number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(first: str, second: str) -> str:
    worst, text = 0.0, 0
    for old, new in itertools.zip_longest(records(first), records(second)):
        if old is None or new is None:
            return "layout changed"
        old, new = CELL.findall(old), CELL.findall(new)
        if len(old) != len(new):
            return "layout changed"
        for a, b in zip(old, new):
            if a == b:
                continue
            x, y = number(a), number(b)
            if x is None or y is None:
                text += 1
            elif not (math.isnan(x) and math.isnan(y)):
                gap = abs(x - y)
                worst = max(worst, math.inf if math.isnan(gap) else gap)
    return (f"max |difference| {worst:.3g} over numeric cells; "
            f"{text} other cells differ")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    first, second, *names = argv
    for name in names:
        paths = [os.path.join(root, name) for root in (first, second)]
        found = all(map(os.path.isfile, paths))
        print(f"  {name}: {compare(*paths) if found else 'layout changed'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
