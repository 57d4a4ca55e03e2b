"""Self-test of the benchmark itself; needs no argyris run.

Usage, from the repository root: python3 bench/selftest.py

Checks that every output checker accepts the seed code's output and rejects
corrupted copies of it, that the exact-count comparison notices a changed
count, that the recorder computes self times and survives a missing
callable, and, when ``src/argyris`` is importable, that the generated grid
has the topology ``argyris.infer_topology`` would give it.
"""

import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads as W  # noqa: E402
from run import exact_counts  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def converge_stdout(ref):
    e = ref["converge-five"]["rel_l2_error"]
    return (
        "         h      dim   rel_l2_error     ecr\n"
        f"       1/4      291      {e[0]}       -\n"
        f"       1/8     1211      {e[1]}    4.25\n"
        f"      1/16     4971      {e[2]}    3.99\n"
        f"      1/32    20171      {e[3]}    3.98\n"
    )


AUDIT_STDOUT = (
    "biorthogonality max |M - I| 5.154e-15\n"
    "projector reproduction error 4.259e-15\n"
    "max C1 interface jump 8.205e-15\n"
    "max C2 vertex jump 6.839e-14\n"
    "audit PASS\n"
)


def fit_stdout(ref, gs):
    return f"h 1/4\ndim {W.grid_dimension()}\nrel_l2_error {ref['fit-grid']['rel_l2_error'][gs]}\n"


def test_checkers(ref):
    conv = W.WORKLOADS["converge-five"]
    good = converge_stdout(ref)
    expect(conv.check(0, good, ref, 0) == [], "converge-five accepts the seed output")
    e3 = ref["converge-five"]["rel_l2_error"][3]
    for label, rc, text in (
        ("exit code 2", 2, good),
        ("a wrong dim", 0, good.replace("20171", "20170")),
        ("an error off in the last digit",
         0, good.replace(e3, e3[:4] + str((int(e3[4]) + 1) % 10) + e3[5:])),
        ("a missing level", 0, "\n".join(good.splitlines()[:-1])),
        ("a last ecr outside [3.7, 4.3]", 0, good.replace("3.98", "4.98")),
        ("an empty stdout", 0, ""),
    ):
        expect(conv.check(rc, text, ref, 0) != [], f"converge-five rejects {label}")
    # the monotonicity and ecr tests must hold on their own, not only through
    # the comparison with the seed's errors
    flat = dict(ref, **{"converge-five": {"rel_l2_error": ["1e-3", "2e-3", "1e-4", "1e-5"]}})
    swapped = good
    for old, new in zip(ref["converge-five"]["rel_l2_error"], ["1e-3", "2e-3", "1e-4", "1e-5"]):
        swapped = swapped.replace(old, new)
    expect(conv.check(0, swapped, flat, 0) != [], "converge-five rejects rising errors")

    audit = W.WORKLOADS["audit-three"]
    expect(audit.check(0, AUDIT_STDOUT, ref, 0) == [], "audit-three accepts the seed output")
    for label, rc, text in (
        ("exit code 2", 2, AUDIT_STDOUT),
        ("audit FAIL", 0, AUDIT_STDOUT.replace("PASS", "FAIL")),
        ("|M - I| of 1e-3", 0, AUDIT_STDOUT.replace("5.154e-15", "1.000e-03")),
        ("a projector error of nan", 0, AUDIT_STDOUT.replace("4.259e-15", "nan")),
        ("a missing projector line", 0, AUDIT_STDOUT.replace("projector", "project")),
    ):
        expect(audit.check(rc, text, ref, 0) != [], f"audit-three rejects {label}")

    fit = W.WORKLOADS["fit-grid"]
    for seed in (0, 5, W.GEOMETRY_SEEDS + 5):
        gs = fit.geometry_seed(seed)
        expect(fit.check(0, fit_stdout(ref, gs), ref, seed) == [],
               f"fit-grid accepts the seed output for seed {seed}")
    good = fit_stdout(ref, 0)
    other = ref["fit-grid"]["rel_l2_error"][1]
    for label, rc, text in (
        ("exit code 1", 1, good),
        ("a wrong dim", 0, good.replace("dim 1842", "dim 1841")),
        ("another seed's error", 0, good.replace(ref["fit-grid"]["rel_l2_error"][0], other)),
        ("a missing error line", 0, "h 1/4\ndim 1842\n"),
    ):
        expect(fit.check(rc, text, ref, 0) != [], f"fit-grid rejects {label}")


def test_exact_counts():
    a = {"calls": {"gluing.fit": 60}, "dims": [291, 1211], "mass_nnz": [15069, 54595]}
    b = {"calls": {"gluing.fit": 61}, "dims": [291, 1211], "mass_nnz": [15069, 54595]}
    c = {"calls": {"gluing.fit": 60}, "dims": [291, 1211], "mass_nnz": [15069, 54596]}
    expect(exact_counts(a) != exact_counts(b), "a changed call count is noticed")
    expect(exact_counts(a) != exact_counts(c), "a changed nnz is noticed")


def test_recorder():
    rec = tracer.Recorder()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        w_inner()

    w_inner = rec._wrap("gluing.fit", inner)
    w_outer = rec._wrap("duality.project", outer)
    t0 = time.perf_counter()
    w_outer()
    t1 = time.perf_counter()
    s = rec.summary(t0, t1)
    expect(s["calls"]["gluing.fit"] == 1 and s["calls"]["duality.project"] == 1,
           "recorder counts one call per wrapped call")
    expect(0.015 < s["self_s"]["duality.project"] < 0.035,
           "recorder subtracts nested spans from the parent's self time")
    expect(s["covered_s"] <= s["wall_s"], "coverage never exceeds the wall time")

    saved = dict(tracer.LAYERS)
    tracer.LAYERS.clear()
    tracer.LAYERS["gluing.fit"] = [("argyris_no_such_module", "fit"), ("os", "no_such_name")]
    try:
        rec = tracer.Recorder()
        rec.install()
    finally:
        tracer.LAYERS.clear()
        tracer.LAYERS.update(saved)
    expect(rec.absent == ["argyris_no_such_module.fit", "os.no_such_name"]
           and rec.calls == {"gluing.fit": 0},
           "a missing module or callable is recorded as absent with zero calls")


def test_grid_topology():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    try:
        from argyris import infer_topology, load_geometry
    except ImportError:
        print("skip grid topology check: argyris is not importable")
        return
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        path = os.path.join(tmp, "grid.txt")
        W.write_grid_geometry(path, 0)
        mp = load_geometry(path)
    inferred = infer_topology(mp.config, mp.patches)
    expect([(e.kind, e.locals) for e in mp.edges]
           == [(e.kind, e.locals) for e in inferred.edges], "grid edges match infer_topology")
    expect([(v.kind, v.corners) for v in mp.vertices]
           == [(v.kind, v.corners) for v in inferred.vertices],
           "grid vertices match infer_topology")
    expect((len(mp.patches), len(mp.edges), len(mp.vertices)) == (36, 84, 49),
           "grid has 36 patches, 84 edges and 49 vertices")


def main():
    ref = W.load_reference()
    test_checkers(ref)
    test_exact_counts()
    test_recorder()
    test_grid_topology()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
