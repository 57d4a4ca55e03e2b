"""In-process probe of the fit loop of the five-patch convergence study.

Usage, from the root of a checkout:

    python3 tools/fit_loop.py [--src DIR [--src DIR2]] [--runs K]

Runs ``convergence_study`` on ``five_patch_bilinear`` at p = 3, r = 1 with
four levels (n = 4, 8, 16, 32), the study behind ``argyris converge
--builtin five_patch_bilinear --levels 4``, in K fresh child interpreters
per checkout (default 7), each with one BLAS thread. A child imports
``argyris`` from DIR (default ``src`` of the current directory); with two
directories, say a parent checkout and a change, the children of the two
alternate, each going first in turn. Per level it records:

- dim, the rows of the edge and vertex block G, the stored entries of G and
  of the interior-interface coupling A_IG (null where the mass stores none);
- CG iterations and the Lanczos condition estimate;
- per layer (mass, solve, error integral) the time and the minor page
  faults of the call, wrapped from outside the library.

A JSON list goes to stdout, one object per checkout: the counts of its
first child, which repeat in every child, and per level and layer the
median time and the median faults over its children, with the whole
study's median wall time and faults.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONHASHSEED": "0"}
LAYERS = (("mass", "assemble_mass"), ("solve", "_solve_scaled"), ("errint", "_integral_sq"))


def _faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(src):
    """One study; the per-level records as a JSON line."""
    sys.path.insert(0, src)
    import argyris.fit as fit
    from argyris import builtin_geometry, convergence_study, cos_sin_field

    levels = []

    def wrap(layer, fn):
        def timed(*args, **kwargs):
            f0, t0 = _faults(), time.perf_counter()
            out = fn(*args, **kwargs)
            t1, f1 = time.perf_counter(), _faults()
            rec = levels[-1]
            rec[layer + "_s"], rec[layer + "_faults"] = t1 - t0, f1 - f0
            if layer == "mass":
                coupling = getattr(out, "coupling", None)
                rec.update(G_rows=out.interface.shape[0], G_nnz=out.interface.nnz,
                           A_IG_nnz=None if coupling is None else coupling.nnz)
            elif layer == "solve":
                rec.update(cg=out[1], cond=out[2])
            return out
        return timed

    for layer, name in LAYERS:
        setattr(fit, name, wrap(layer, getattr(fit, name)))
    l2_fit = fit.l2_fit

    def per_level(space, *args, **kwargs):
        levels.append({"n": space.config.n, "dim": space.dim})
        return l2_fit(space, *args, **kwargs)

    fit.l2_fit = per_level
    geometry = builtin_geometry("five_patch_bilinear")
    f0, t0 = _faults(), time.perf_counter()
    convergence_study(geometry, cos_sin_field, 4)
    t1, f1 = time.perf_counter(), _faults()
    print(json.dumps({"levels": levels, "study_s": t1 - t0, "study_faults": f1 - f0}))


def report(src, runs):
    """Counts of the first run, median times and faults over all runs."""
    keys = ("n", "dim", "G_rows", "G_nnz", "A_IG_nnz", "cg", "cond")
    out = {"src": src, "runs": len(runs), "levels": []}
    for k, first in enumerate(runs[0]["levels"]):
        rec = {key: first.get(key) for key in keys}
        for layer, _ in LAYERS:
            for what in ("_s", "_faults"):
                rec[layer + what] = statistics.median(r["levels"][k][layer + what] for r in runs)
        out["levels"].append(rec)
    out["study_s"] = statistics.median(r["study_s"] for r in runs)
    out["study_faults"] = statistics.median(r["study_faults"] for r in runs)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append",
                    help="directory that holds the argyris package (default src); given "
                         "more than once, the children of the checkouts alternate")
    ap.add_argument("--runs", type=int, default=7, help="child interpreters per checkout")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    srcs = [os.path.abspath(s) for s in args.src or ["src"]]
    if args.child:
        child(srcs[0])
        return
    runs = {src: [] for src in srcs}
    for k in range(args.runs):
        for src in srcs[k % len(srcs):] + srcs[: k % len(srcs)]:
            out = subprocess.run([sys.executable, __file__, "--child", "--src", src],
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, **ENV})
            runs[src].append(json.loads(out.stdout.splitlines()[-1]))
    print(json.dumps([report(src, r) for src, r in runs.items()], indent=1))


if __name__ == "__main__":
    main()
