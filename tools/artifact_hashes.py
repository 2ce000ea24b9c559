"""Write every CLI artifact at default settings and print its SHA-256.

Runs each command of the CLI's command table (`cli._COMMANDS`, in its
order) for each family it accepts (`evolve` is bessel only), writes the
artifacts into a directory and prints one line per artifact:

    command family sha256

Comparing two versions of the library is then one `diff`:

    PYTHONPATH=src python tools/artifact_hashes.py OUT_A > a.txt
    PYTHONPATH=/other/checkout/src python tools/artifact_hashes.py OUT_B > b.txt
    diff a.txt b.txt

Extra arguments after the directory are passed to every command, for
instance `--config FILE` to hash a non-default grid.  A command that
fails is reported on stderr and hashed as `-` if it wrote nothing; the
exit code is the largest command exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys

from ghcs import cli

FAMILIES = ("bessel", "jacobi")
EXTENSION = {"weight": "csv", "expect": "csv", "evolve": "csv", "thermal": "csv"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory the artifacts are written into")
    parser.add_argument("extra", nargs=argparse.REMAINDER,
                        help="arguments passed to every command")
    ns = parser.parse_args(argv)
    os.makedirs(ns.outdir, exist_ok=True)
    worst = 0
    for cmd in cli._COMMANDS:
        for family in FAMILIES:
            if cmd == "evolve" and family != "bessel":
                continue
            path = os.path.join(ns.outdir, f"{cmd}-{family}.{EXTENSION.get(cmd, 'json')}")
            if os.path.exists(path):
                os.remove(path)  # never hash a stale artifact
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.main([cmd, "--family", family, "--out", path, *ns.extra])
            except Exception as exc:  # report it and hash the other artifacts
                code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
            if code != 0:
                print(f"{cmd} {family} exit {code}: {err.getvalue().strip()}", file=sys.stderr)
                worst = max(worst, code)
            if not os.path.exists(path):
                print(f"{cmd} {family} -")
                continue
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{cmd} {family} {digest}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
