"""Benchmark of the argyris CLI: one workload per invocation.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement is a fresh child interpreter (``child.py``) that calls
``argyris.cli.main``. Children run one at a time, each pinned to one BLAS
thread. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, load_reference  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_CHILDREN = 5
# mean time of the speed probe's kernel (child.py) on the reference machine
# while its host is quiet; it only sets the scale of wall_s and setup_s
PROBE_REF_S = 3.0e-3
RUN_LIMIT_S = 170.0  # every child is killed once the run has lasted this long

# per-layer metric -> unit
LAYER_METRICS = {
    "multipatch.geometry_s": "s",
    "multipatch.refine_s": "s",
    "multipatch.refine_calls": "count",
    "gluing.fit_s": "s",
    "gluing.fit_calls": "count",
    "bspline.represent_exactly_s": "s",
    "bspline.represent_exactly_calls": "count",
    "space.build_s": "s",
    "space.patch_s": "s",
    "space.edge_s": "s",
    "space.vertex_s": "s",
    "space.dim": "count",
    "fit.mass_s": "s",
    "fit.rhs_s": "s",
    "fit.mass_nnz": "count",
    "fit.solve_s": "s",
    "fit.errint_s": "s",
    "duality.biorthogonality_s": "s",
    "duality.project_s": "s",
    "fit.smoothness_s": "s",
    "trace.coverage": "fraction",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}


class BrokenCheckout(Exception):
    """argyris cannot be imported: there is nothing to measure."""


class Runner:
    """Starts children one at a time and keeps their results."""

    def __init__(self, tmpdir, deadline):
        self.tmpdir = tmpdir
        self.deadline = deadline
        self.count = 0

    def child(self, mode, cli_args=()):
        """Run one child; returns (result dict or None, stdout, stderr)."""
        self.count += 1
        result_path = os.path.join(self.tmpdir, f"child{self.count}.json")
        timeout = max(1.0, self.deadline - time.monotonic())
        env = dict(os.environ, **CHILD_ENV)
        spawn = time.monotonic()
        cmd = [sys.executable, CHILD, result_path, repr(spawn), mode, *cli_args]
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            return None, exc.stdout or "", f"timed out after {timeout:.0f}s"
        if proc.returncode == 3 and not os.path.exists(result_path):
            raise BrokenCheckout(proc.stderr.strip().splitlines()[-1:] or ["import failed"])
        if not os.path.exists(result_path):
            return None, proc.stdout, proc.stderr
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), proc.stdout, proc.stderr


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _emit(kind, obj):
    print(f"{kind} {json.dumps(obj, sort_keys=True)}", flush=True)


def _layer_metrics(tr):
    """Per-layer metric values from one recorder summary."""
    s, calls = tr["self_s"], tr["calls"]
    return {
        "multipatch.geometry_s": s["multipatch.geometry"],
        "multipatch.refine_s": s["multipatch.refine"],
        "multipatch.refine_calls": calls["multipatch.refine"],
        "gluing.fit_s": s["gluing.fit"],
        "gluing.fit_calls": calls["gluing.fit"],
        "bspline.represent_exactly_s": s["bspline.represent_exactly"],
        "bspline.represent_exactly_calls": calls["bspline.represent_exactly"],
        "space.build_s": s["space.build"],
        "space.patch_s": s["space.patch"],
        "space.edge_s": s["space.edge"],
        "space.vertex_s": s["space.vertex"],
        "space.dim": max(tr["dims"], default=0),
        "fit.mass_s": s["fit.mass"],
        "fit.rhs_s": s["fit.rhs"],
        "fit.mass_nnz": max(tr["mass_nnz"], default=0),
        "fit.solve_s": tr["solve_s"],
        "fit.errint_s": s["fit.l2_fit"] - tr["solve_s"],
        "duality.biorthogonality_s": s["duality.biorthogonality"],
        "duality.project_s": s["duality.project"],
        "fit.smoothness_s": s["fit.smoothness"],
        "trace.coverage": tr["covered_s"] / tr["wall_s"],
        "trace.uncovered_s": tr["wall_s"] - tr["covered_s"],
    }


def quiet_wall(res):
    """wall_s of a ``run`` child without the probe's own time, rescaled to
    the speed the probe measures on a quiet reference host."""
    return (res["wall_s"] - res["probe_total_s"]) * PROBE_REF_S / res["probe_mean_s"]


def quiet_setup(res):
    """setup_s of a child, rescaled the same way."""
    return res["setup_s"] * PROBE_REF_S / res["setup_probe_s"]


def exact_counts(tr):
    """The counts that must repeat exactly between traced runs."""
    return {"calls": tr["calls"], "dims": tr["dims"], "mass_nnz": tr["mass_nnz"]}


def measure(workload, seed, seconds, trace, runner, reference, tmpdir):
    cli_args = workload.prepare(seed, tmpdir)
    warm, _, err = runner.child("setup")  # also fills __pycache__
    if warm is None:
        raise BrokenCheckout([err.strip()[-300:]])
    _emit("tag", {
        "workload": workload.name,
        "seed": seed,
        "geometry_seed": workload.geometry_seed(seed) if workload.needs_geometry else None,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "child_env": CHILD_ENV,
        **warm["versions"],
    })
    setups = []
    if not trace:
        for _ in range(SETUP_CHILDREN):
            res, _, err = runner.child("setup")
            if res is None:
                raise BrokenCheckout([err.strip()[-300:]])
            setups.append(quiet_setup(res))

    # trace runs alternate traced and plain children: at least two traced
    # (to check that counts repeat) and one plain (for the overhead)
    plan = (lambda k: "trace" if k % 2 == 0 else "run") if trace else (lambda k: "run")
    min_children = 3 if trace else 1
    done = []
    start = time.monotonic()
    longest = 0.0
    while len(done) < min_children or time.monotonic() - start + longest <= seconds:
        if time.monotonic() + longest > runner.deadline and done:
            break
        mode = plan(len(done))
        t = time.monotonic()
        res, out, err = runner.child(mode, cli_args)
        longest = max(longest, time.monotonic() - t)
        if res is None:
            problems = [f"no result: {err.strip()[-300:]}"]
        else:
            problems = workload.check(res["rc"], out, reference, seed)
        done.append((mode, res, problems))
        shown = ("rc", "setup_s", "wall_s", "peak_rss_mb", "probe_mean_s", "probe_samples")
        _emit("child", {"mode": mode, "problems": problems,
                        **{k: res[k] for k in shown if res and k in res}})
        if res is None:
            break  # a crashed or killed child ends the run

    traced = [r["trace"] for m, r, _ in done if m == "trace" and r]
    if traced:
        first = exact_counts(traced[0])
        for (m, r, problems) in done:
            if m == "trace" and r and exact_counts(r["trace"]) != first:
                problems.append("exact counts differ from the first traced run")
        _emit("counts", {**exact_counts(traced[0]), "absent": traced[0]["absent"],
                         "traced_runs": len(traced)})

    attempted = len(done)
    failed = sum(1 for _, _, problems in done if problems)
    measured = [r for _, r, _ in done if r]
    if trace:
        plain = [r["wall_s"] - r["probe_total_s"] for m, r, _ in done if m == "run" and r]
        values = {}
        if traced and plain:
            per_run = [_layer_metrics(tr) for tr in traced]
            # counts repeat exactly (checked above), times take the median
            values = {k: per_run[0][k] if LAYER_METRICS[k] == "count"
                      else statistics.median(m[k] for m in per_run) for k in per_run[0]}
            values["trace.overhead_s"] = (
                statistics.median(tr["wall_s"] for tr in traced) - statistics.median(plain)
            )
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in values.items()}
    else:
        setups += [quiet_setup(r) for r in measured]
        metrics = {}
        if measured:
            metrics = {
                "wall_s": {"value": statistics.median(quiet_wall(r) for r in measured), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {
                    "value": statistics.median(r["peak_rss_mb"] for r in measured), "unit": "MB",
                },
            }
        _emit("samples", {
            "children": len(measured),
            "setup_samples": len(setups),
            "raw_wall_s": statistics.median(r["wall_s"] for r in measured) if measured else None,
            "raw_setup_s": statistics.median(r["setup_s"] for r in measured) if measured else None,
            "probe_mean_s": statistics.median(r["probe_mean_s"] for r in measured) if measured else None,
        })
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_one(name, seed, seconds, trace, reference):
    """Measure one workload in a scratch directory of the checkout."""
    deadline = time.monotonic() + RUN_LIMIT_S
    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=os.getcwd())
    try:
        return measure(WORKLOADS[name], seed, seconds, trace,
                       Runner(tmpdir, deadline), reference, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "argyris", "cli.py")):
        print("error: run from a checkout of the repository (src/argyris is missing)",
              file=sys.stderr)
        return 2
    reference = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace), reference)
    except BrokenCheckout as exc:
        print(f"error: argyris cannot be imported: {' '.join(exc.args[0])}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        _emit("result", {"workload": name, **res})
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
