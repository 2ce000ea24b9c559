"""Say by how much two directories of CLI artifacts differ.

    python tools/artifact_diff.py DIR_A DIR_B

For each file name in either directory (as `tools/artifact_hashes.py`
writes them) it prints one line: `identical`, `only in A`/`only in B`, or
the count of changed numbers with their largest absolute and relative
change (relative to the value in A).  Numbers are the cells of a CSV that
parse as floats and the numbers of a JSON document, compared at the same
data line and column or the same key path.  A CSV's data lines are those
after its leading `#` preamble, counted from 1 at the header, so a
preamble that gains or loses a line moves no data line.  The preamble's
`# key=value` lines are compared by key (any other comment line by its
text) and listed as `  preamble key: A -> B`, None for a missing side.
Every other difference (text cells, JSON strings, booleans, nulls, keys,
lengths) is listed under its file as `  where: A -> B`.  The exit code is
0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys


class Diff:
    """Changed numbers and other differences of one artifact."""

    def __init__(self) -> None:
        self.changed = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.other: list[str] = []

    def number(self, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.changed += 1
        change = abs(a - b)
        if math.isnan(change):  # one side NaN, or inf against inf of the other sign
            change = math.inf
        self.max_abs = max(self.max_abs, change)
        self.max_rel = max(self.max_rel, change / abs(a) if 0.0 < abs(a) < math.inf else math.inf)

    def text(self, where: str, a, b) -> None:
        if a != b:
            self.other.append(f"{where}: {a!r} -> {b!r}")


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _preamble(text: str) -> tuple[dict, list[str]]:
    """(the leading `#` lines as {key: value}, the data lines after them);
    a comment line that is not `key=value` is keyed by its own text."""
    lines = text.splitlines()
    n = 0
    while n < len(lines) and lines[n].startswith("#"):
        n += 1
    keyed = {}
    for line in lines[:n]:
        key, sep, value = line[1:].strip().partition("=")
        keyed[key if sep else line] = value if sep else line
    return keyed, lines[n:]


def _csv(diff: Diff, a: str, b: str) -> None:
    (pre_a, lines_a), (pre_b, lines_b) = _preamble(a), _preamble(b)
    for key in dict.fromkeys([*pre_a, *pre_b]):
        diff.text(f"preamble {key}", pre_a.get(key), pre_b.get(key))
    diff.text("data line count", len(lines_a), len(lines_b))
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        cells_a, cells_b = la.split(","), lb.split(",")
        if la.startswith("#") or len(cells_a) != len(cells_b):
            diff.text(f"data line {i}", la, lb)
            continue
        for j, (ca, cb) in enumerate(zip(cells_a, cells_b), start=1):
            fa, fb = _float(ca), _float(cb)
            if fa is None or fb is None:
                diff.text(f"data line {i} cell {j}", ca, cb)
            else:
                diff.number(fa, fb)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json(diff: Diff, a, b, where: str = "$") -> None:
    if _is_number(a) and _is_number(b):
        diff.number(float(a), float(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        diff.text(f"{where} keys", sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys()))
        for key in sorted(a.keys() & b.keys()):
            _json(diff, a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        diff.text(f"{where} length", len(a), len(b))
        for i, (va, vb) in enumerate(zip(a, b)):
            _json(diff, va, vb, f"{where}[{i}]")
    else:
        diff.text(where, a, b)


def compare(path_a: str, path_b: str) -> Diff:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = fa.read(), fb.read()
    diff = Diff()
    if path_a.endswith(".json"):
        _json(diff, json.loads(a), json.loads(b))
    else:
        _csv(diff, a, b)
    return diff


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    ns = parser.parse_args(argv)
    names_a, names_b = set(os.listdir(ns.dir_a)), set(os.listdir(ns.dir_b))
    differ = False
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            print(f"{name}: only in {'A' if name in names_a else 'B'}")
            differ = True
            continue
        diff = compare(os.path.join(ns.dir_a, name), os.path.join(ns.dir_b, name))
        if not diff.changed and not diff.other:
            print(f"{name}: identical")
            continue
        differ = True
        print(f"{name}: {diff.changed} numbers changed, max abs {diff.max_abs:.3g}, "
              f"max rel {diff.max_rel:.3g}")
        for line in diff.other:
            print(f"  {line}")
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
