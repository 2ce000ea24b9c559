"""Run the benchmark's label-batch and moment-scan ops and print a SHA-256 per op.

Each op of `bench/ops.py`'s seeded lists runs through `ops.execute`, the
call the benchmark times, and one line is printed per op:

    workload seed index sha256

The hash covers every value the op returned (Gram matrix, eigenvalues and
density rows; or the number moments and g2), bit for bit: arrays by dtype,
shape and bytes, floats and complexes by their exact bits, so -0.0 and 0.0
differ.  A failed op hashes its error text instead.  Comparing two versions
of the library is then one `diff`:

    PYTHONPATH=src python tools/op_hashes.py 1 2 3 4 > a.txt
    PYTHONPATH=/other/checkout/src python tools/op_hashes.py 1 2 3 4 > b.txt
    diff a.txt b.txt

Each seed runs the ops a `bench/run.py --seconds S` run of that seed runs
(S = 20 unless --seconds says otherwise).  Nothing under `bench/` is
changed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import ops  # noqa: E402

WORKLOADS = ("label-batch", "moment-scan")


def _feed(h, value) -> None:
    """Add the exact bits of an op's value to the hash h, with its type."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, np.ndarray):
        h.update(f"A{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(f"L{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, (complex, np.complexfloating)):
        h.update(b"C" + struct.pack("<dd", value.real, value.imag))
    elif isinstance(value, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", value))
    else:
        raise TypeError(f"cannot hash an op value of type {type(value).__name__}")


def op_hash(outcome) -> str:
    """SHA-256 of an op's outcome: its error text, else its values."""
    h = hashlib.sha256()
    if outcome.error is not None:
        h.update(b"E" + outcome.error.encode())
    else:
        _feed(h, outcome.value)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, help="op-list seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length whose op count each seed runs (default 20)")
    ns = parser.parse_args(argv)
    for workload in WORKLOADS:
        count = ops.op_count(workload, ns.seconds)
        for seed in ns.seeds:
            op_list = ops.make_ops(workload, seed, count)
            args = ops.prepare(workload, op_list, "")
            for i, (op, arg) in enumerate(zip(op_list, args)):
                print(f"{workload} {seed} {i} {op_hash(ops.execute(workload, op, arg))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
