"""Regenerate ``reference.json``: the seed code's printed errors.

Usage (from the repository root): python3 bench/reference.py

Runs ``converge-five`` once and ``fit-grid`` on every geometry seed in this
process and records the errors exactly as the CLI prints them (three
significant digits). The checkers in ``workloads.py`` compare against these
strings, so only run this on a commit whose outputs are known to be right.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _run(args):
    from argyris.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    if rc != 0:
        raise SystemExit(f"argyris {' '.join(args)} exited {rc}")
    return buf.getvalue()


def main():
    out = _run(workloads.WORKLOADS["converge-five"].prepare(0, None))
    converge = re.findall(r"^\s*1/\d+\s+\d+\s+(\S+)", out, re.M)
    fits = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        fit = workloads.WORKLOADS["fit-grid"]
        for gs in range(workloads.GEOMETRY_SEEDS):
            out = _run(fit.prepare(gs, tmp))
            fits.append(re.search(r"^rel_l2_error (\S+)$", out, re.M).group(1))
            print(f"geometry seed {gs}: {fits[-1]}", file=sys.stderr)
    ref = {
        "converge-five": {"rel_l2_error": converge},
        "fit-grid": {"rel_l2_error": fits},
    }
    path = os.path.join(workloads.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
