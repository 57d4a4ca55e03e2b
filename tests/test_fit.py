import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import argyris
from argyris import (
    AnalyticField,
    ArgyrisSpace,
    ConvergenceTable,
    Patch,
    QuadratureRule,
    SpaceField,
    UnivariateSpace,
    assemble_mass,
    assemble_rhs,
    builtin_geometry,
    convergence_study,
    cos_sin_field,
    l2_fit,
    project,
    smoothness_report,
)
from argyris.cli import main
from argyris.errors import ArgyrisError, InvalidConfigError, NumericalError
from argyris.fit import (
    _block_preconditioner,
    _interface_solver,
    _lanczos_condition,
    _levels,
    _pcg,
)
from argyris.multipatch import edge_frames, rotate_grid
from argyris.space import VERTEX_INDEX_ORDER, CSRMatrix
from conftest import square_grid_geometry

AS_G1_BUILTINS = (
    "two_patch_bilinear",
    "three_patch_bilinear",
    "five_patch_bilinear",
    "lshape_bilinear",
    "two_patch_curved_asg1",
)


def test_quadrature_weights_sum_to_element_area():
    rule = QuadratureRule(5, 4)
    np.testing.assert_allclose(rule.weights.sum(axis=1), 0.2, atol=1e-15)


def test_quadrature_polynomial_exactness():
    g = 5
    rule = QuadratureRule(3, g)
    for k in range(2 * g):
        got = (rule.weights * rule.nodes**k).sum()
        assert abs(got - 1.0 / (k + 1)) < 1e-14


def test_quadrature_rule_needs_elements():
    with pytest.raises(InvalidConfigError):
        QuadratureRule(0, 5)


def test_quadrature_rule_must_match_mesh(sp_two):
    # a rule for another mesh used to fail inside scipy with a bare ValueError
    rule = QuadratureRule(sp_two.config.n + 1, 5)
    fld = cos_sin_field(sp_two.geometry)
    with pytest.raises(InvalidConfigError):
        assemble_mass(sp_two, rule)
    with pytest.raises(InvalidConfigError):
        assemble_rhs(sp_two, fld, rule)
    with pytest.raises(InvalidConfigError):
        l2_fit(sp_two, fld, rule)


@pytest.mark.parametrize(
    "p,r,n,q,singular",
    [(3, 1, 4, 2, True), (3, 1, 4, 3, False), (4, 1, 3, 3, True), (4, 1, 3, 4, False)],
)
def test_l2_fit_refuses_a_rule_that_leaves_the_mass_singular(p, r, n, q, singular):
    # q Gauss points per element determine S^{p,r} exactly when the mass is
    # positive definite; on a singular mass CG used to return one of many
    # solutions and a wrong error without complaint
    sp = ArgyrisSpace(builtin_geometry("two_patch_bilinear", UnivariateSpace(p, r, n)))
    rule = QuadratureRule(n, q)
    M = assemble_mass(sp, rule) @ np.eye(sp.dim)
    s = 1.0 / np.sqrt(np.diag(M))
    assert (np.linalg.eigvalsh(s[:, None] * M * s)[0] < 1e-12) == singular
    fld = cos_sin_field(sp.geometry)
    if singular:
        with pytest.raises(InvalidConfigError, match=f"quadrature of {q} points"):
            l2_fit(sp, fld, rule)
    else:
        assert l2_fit(sp, fld, rule).rel_error < 1e-3


def test_convergence_study_rejects_zero_rule_order(mp_two):
    # the study always uses the default rule of p+2 points; a rule of order 0
    # is refused where it is made, not replaced by the default
    with pytest.raises(InvalidConfigError):
        QuadratureRule(mp_two.config.n, 0)


def test_mass_symmetric_and_positive_definite(sp_three):
    M = assemble_mass(sp_three)
    G = M.interface.toarray()  # the one stored matrix
    assert np.count_nonzero(G - G.T) == 0
    dense = M @ np.eye(sp_three.dim)
    assert np.abs(dense - dense.T).max() <= 1e-15 * np.abs(dense).max()
    eig = np.linalg.eigvalsh(dense)
    assert eig.min() > 0.0


def test_mass_entries_against_refined_quadrature(sp_two):
    M1 = assemble_mass(sp_two, QuadratureRule(sp_two.config.n, 5))
    M2 = assemble_mass(sp_two, QuadratureRule(sp_two.config.n, 10))
    eye = np.eye(sp_two.dim)
    d = np.abs(M1 @ eye - M2 @ eye).max()
    assert d < 1e-10 * np.abs(M2 @ eye).max()


def reference_mass_rhs(space, fld, rule):
    """Element-loop reference assembler: on every element, the values of
    each basis function from its coefficient window, one einsum per element."""
    usp = space.config
    p, n, g, N, dim = usp.p, usp.n, rule.order, space.N, space.dim
    mult = p - usp.r
    _, ders = usp.basis_ders(rule.nodes.ravel(), 0)
    tabs = ders[:, 0, :].reshape(n, g, p + 1)
    uv = np.column_stack(
        [np.repeat(rule.nodes.ravel(), n * g), np.tile(rule.nodes.ravel(), n * g)]
    )
    M = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for i, patch in enumerate(space.geometry.patches):
        grids = space.extraction(i).toarray().T.reshape(dim, N, N)
        j = patch.jet(uv, 1)
        J = np.stack([j[:, 1, 0], j[:, 0, 1]], axis=-1)  # J[q, :, d] = dF / dxi_d
        det = np.abs(J[:, 0, 0] * J[:, 1, 1] - J[:, 1, 0] * J[:, 0, 1])
        det = det.reshape(n, g, n, g)
        x = rule.nodes.ravel()
        z = np.asarray(fld.jets(i, x, x, 0)[0]).reshape(n, g, n, g)
        for e1 in range(n):
            for e2 in range(n):
                W = grids[:, e1 * mult : e1 * mult + p + 1, e2 * mult : e2 * mult + p + 1]
                V = np.einsum("qi,kij,rj->kqr", tabs[e1], W, tabs[e2]).reshape(dim, -1)
                wd = det[e1, :, e2, :] * np.outer(rule.weights[e1], rule.weights[e2])
                M += (V * wd.ravel()) @ V.T
                rhs += V @ (wd * z[e1, :, e2, :]).ravel()
    return M, rhs


def check_against_element_loop_reference(space):
    rule = QuadratureRule(space.config.n, space.config.p + 2)
    fld = cos_sin_field(space.geometry)
    M_ref, rhs_ref = reference_mass_rhs(space, fld, rule)
    mass = assemble_mass(space, rule)
    M = mass @ np.eye(space.dim)
    rhs = assemble_rhs(space, fld, rule)
    assert np.abs(M - M_ref).max() < 1e-12 * np.abs(M_ref).max()
    assert np.abs(rhs - rhs_ref).max() < 1e-12 * np.abs(rhs_ref).max()
    # the load from the weights the mass was made with, as l2_fit takes it
    np.testing.assert_array_equal(assemble_rhs(space, fld, rule, weights=mass._W), rhs)


def test_assembly_matches_element_loop_reference(sp_two):
    check_against_element_loop_reference(sp_two)


@pytest.mark.parametrize(
    "name, p, r",
    [
        ("two_patch_bilinear", 4, 2),
        ("two_patch_bilinear", 5, 1),
        ("two_patch_curved_asg1", 3, 1),
        ("two_patch_curved_asg1", 4, 2),
        ("two_patch_curved_asg1", 5, 1),
    ],
)
def test_assembly_matches_element_loop_reference_across_degrees(name, p, r):
    # the layers and functions active on a boundary strip depend on (p, r)
    check_against_element_loop_reference(
        ArgyrisSpace(builtin_geometry(name, UnivariateSpace(p, r, 4)))
    )


@pytest.mark.parametrize("p,r,n", [(3, 1, 4), (4, 2, 3), (5, 1, 2), (5, 1, 1)])
@pytest.mark.parametrize("name", AS_G1_BUILTINS)
def test_matrix_free_mass_matches_element_loop_reference(name, p, r, n):
    # the operator applied to the identity, its stored diagonal and its stored
    # edge and vertex block against the dense element-loop mass; at n = 1 the
    # ring of boundary elements is the single element
    space = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(p, r, n)))
    rule = QuadratureRule(n, p + 2)
    M_ref, _ = reference_mass_rhs(space, cos_sin_field(space.geometry), rule)
    M = assemble_mass(space, rule)
    scale = np.abs(M_ref).max()
    assert np.abs(M @ np.eye(space.dim) - M_ref).max() < 1e-13 * scale
    assert np.abs(M.diagonal - np.diag(M_ref)).max() < 1e-13 * scale
    ni = space.breakdown["patch"]
    G = M.interface.toarray()
    assert np.abs(G - M_ref[ni:, ni:]).max() < 1e-13 * scale
    assert np.count_nonzero(G - G.T) == 0


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("name", AS_G1_BUILTINS)
def test_mass_exactly_symmetric_on_every_builtin(name, n):
    # the edge and vertex block is the one matrix the operator stores
    M = assemble_mass(ArgyrisSpace(builtin_geometry(name, UnivariateSpace(3, 1, n))))
    G = M.interface.toarray()
    assert np.count_nonzero(G - G.T) == 0


@pytest.mark.parametrize("kind,position,match", [
    # the first interior function of patch 0 on a second row of that patch
    ("patch", (2, 3), "an interior function is more than one B-spline"),
    # the first function of edge 0 on a row four layers away from every side
    ("edge", (5, 5), "an edge or vertex function reaches beyond the two layers"),
])
def test_mass_refuses_a_function_outside_its_rows(sp_three, kind, position, match):
    # a shallow copy of the space whose C stores one more entry, 1.0 at a
    # row of patch 0 that the column does not reach
    import copy

    N, C = sp_three.N, sp_three.C
    row, col = position[0] * N + position[1], sp_three.block(kind, 0).start
    assert min(position) >= 2 and N - 1 - max(position) >= 2
    assert col not in C.take([row]).indices
    space = copy.copy(sp_three)
    space.C = CSRMatrix.from_triplets(np.r_[C.row_ids, row], np.r_[C.indices, col],
                                      np.r_[C.data, 1.0], C.shape)
    assemble_mass(sp_three)
    with pytest.raises(ArgyrisError, match=match):
        assemble_mass(space)


def test_fields_bound_to_another_geometry_are_refused(sp_three):
    # a field samples the patch maps of the geometry it is bound to; on
    # another geometry its samples would silently sit on the wrong patches
    five = ArgyrisSpace(builtin_geometry("five_patch_bilinear", sp_three.config))
    others = [cos_sin_field(five.geometry), SpaceField(five, np.ones(five.dim))]
    for fld in others:
        with pytest.raises(InvalidConfigError, match="another geometry"):
            l2_fit(sp_three, fld)
        with pytest.raises(InvalidConfigError, match="another geometry"):
            project(sp_three, fld)
    # an equal copy of the geometry is another object, and refused too
    import copy

    with pytest.raises(InvalidConfigError, match="another geometry"):
        assemble_rhs(sp_three, cos_sin_field(copy.copy(sp_three.geometry)))
    # bound to the space's own geometry, and to a shallow copy of the space
    assert l2_fit(sp_three, cos_sin_field(sp_three.geometry)).rel_error < 1e-3
    member = SpaceField(copy.copy(sp_three), np.ones(sp_three.dim))
    np.testing.assert_allclose(project(sp_three, member), np.ones(sp_three.dim), atol=1e-9)


def test_in_space_fit_reproduces_coefficients(sp_three):
    rng = np.random.default_rng(21)
    c = rng.normal(size=sp_three.dim)
    res = l2_fit(sp_three, SpaceField(sp_three, c))
    assert res.rel_error < 1e-10
    assert np.abs(res.coeffs - c).max() < 1e-8
    assert res.galerkin_residual < 1e-10
    assert res.cg_iterations > 0
    assert res.error_seconds >= 0.0


def test_zero_target(sp_three):
    mp = sp_three.geometry
    zero = AnalyticField(mp, lambda x: np.zeros(len(x)))
    res = l2_fit(sp_three, zero)
    assert np.abs(res.coeffs).max() < 1e-14
    assert res.rel_error == 0.0
    assert res.cg_iterations == 0
    assert np.isnan(res.cond_estimate)  # no Krylov step, no estimate


def log_past_the_edge(x):
    """log(x + 1.5): -inf and nan on the left edge x = -1.5 of three_patch_bilinear."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x[:, 0] + 1.5)


@pytest.mark.parametrize("samplers,match,runs", [
    ((log_past_the_edge, lambda x: 0.0, lambda x: 0.0), "value sampler .* non-finite",
     (l2_fit, project)),
    ((lambda x: np.ones(3), lambda x: 0.0, lambda x: 0.0), r"value sampler .* shape \(3,\)",
     (l2_fit, project)),
    ((lambda x: x[:, 0], lambda x: np.ones((len(x), 3)), lambda x: 0.0),
     r"gradient sampler .* shape \(\d+, 3\)", (project,)),
    ((lambda x: x[:, 0], lambda x: 0.0, lambda x: np.full((len(x), 2, 2), np.inf)),
     "Hessian sampler .* non-finite", (project,)),
])
def test_analytic_field_samples_are_checked(sp_three, samplers, match, runs):
    # a sample that is not finite or does not broadcast to its shape is
    # refused where it is taken, by l2_fit (values only) and project; the
    # log used to fit nan with zero coefficients and no error
    fld = AnalyticField(sp_three.geometry, *samplers)
    for run in runs:
        with pytest.raises(InvalidConfigError, match=match):
            run(sp_three, fld)


def test_analytic_field_constants_broadcast(sp_three):
    # a sampler may return a constant for all points, in a fit and in the
    # projector alike
    mp = sp_three.geometry
    full = AnalyticField(mp, lambda x: np.full(len(x), 2.0), lambda x: np.zeros((len(x), 2)),
                         lambda x: np.zeros((len(x), 2, 2)))
    const = AnalyticField(mp, lambda x: 2.0, lambda x: np.zeros(2), lambda x: 0.0)
    np.testing.assert_allclose(project(sp_three, const), project(sp_three, full), atol=1e-14)
    np.testing.assert_array_equal(l2_fit(sp_three, const).coeffs, l2_fit(sp_three, full).coeffs)


@pytest.mark.parametrize("name", ["five_patch_bilinear", "two_patch_curved_asg1"])
def test_preconditioned_cg_iterations_stay_bounded(name):
    # Jacobi scaling alone took 288-532 iterations at n = 4, 8, 16
    _, results = convergence_study(builtin_geometry(name), cos_sin_field, 3)
    assert [round(1 / r.h) for r in results] == [4, 8, 16]
    for r in results:
        assert 0 < r.cg_iterations <= 40
        assert 1.0 < r.cond_estimate < 20.0


@pytest.mark.parametrize("p,r", [(3, 1), (4, 2), (5, 1)])
@pytest.mark.parametrize("name", AS_G1_BUILTINS)
def test_preconditioned_solve_matches_direct_solve(name, p, r):
    mp = builtin_geometry(name, UnivariateSpace(p, r, 4))
    space = ArgyrisSpace(mp)
    fld = cos_sin_field(mp)
    res = l2_fit(space, fld)
    ref = scipy.sparse.linalg.spsolve(
        scipy.sparse.csc_matrix(assemble_mass(space) @ np.eye(space.dim)),
        assemble_rhs(space, fld),
    )
    assert np.linalg.norm(res.coeffs - ref) < 1e-9 * np.linalg.norm(ref)


def test_pcg_reports_condition_estimate_when_it_fails():
    # singular 1D Neumann Laplacian; e_0 has a nonzero mean, so it is not in
    # the range and CG cannot reach the tolerance
    n = 8
    A = scipy.sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                           [-1, 0, 1]).toarray()
    A[0, 0] = A[-1, -1] = 1.0
    b = np.eye(n)[0]
    with pytest.raises(NumericalError, match="condition estimate") as info:
        _pcg(A, b, lambda res: res)
    estimate = float(str(info.value).rsplit(" ", 1)[1].rstrip(")"))
    assert estimate > 1e8


@pytest.mark.parametrize("bad", [-0.3, 0.0, np.inf, np.nan])
def test_lanczos_condition_is_nan_for_a_beta_that_is_not_positive(bad):
    # a non-positive-definite preconditioner gives beta <= 0; the square root
    # of it used to warn (an error under the test configuration)
    assert np.isnan(_lanczos_condition([1.0, 2.0, 1.5], [0.5, bad]))


def test_pcg_breaks_down_on_an_indefinite_preconditioner():
    # a quarter turn gives r.z = 0; dividing by it used to warn
    with pytest.raises(NumericalError, match="broke down at iteration 1"):
        _pcg(np.eye(2), np.array([1.0, 0.0]), lambda res: np.array([-res[1], res[0]]))


def test_pcg_condition_estimate_matches_spectrum():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    lam = np.linspace(1.0, 50.0, 30)
    A = (Q * lam) @ Q.T
    b = rng.normal(size=30)
    x, _, cond = _pcg(A, b, lambda res: res)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert abs(cond - 50.0) < 1e-6 * 50.0


def _csr(A):
    rows, cols = np.nonzero(A)
    return CSRMatrix.from_triplets(rows, cols, A[rows, cols], A.shape)


def _space_without_interior_or_edges():
    # N = 4 leaves no interior B-splines: the interface block is all of A
    return SimpleNamespace(
        N=4,
        config=UnivariateSpace(3, 1, 1),
        geometry=SimpleNamespace(patches=[None, None]),
        breakdown={"patch": 0},
    )


def test_block_preconditioner_without_interior_block():
    k = 6
    B = np.random.default_rng(6).normal(size=(k, k))
    A = B @ B.T + k * np.eye(k)
    space = _space_without_interior_or_edges()
    apply = _block_preconditioner(space, _csr(A))
    r = np.arange(1.0, k + 1)
    np.testing.assert_allclose(apply(r), np.linalg.solve(A, r), rtol=1e-12)


def test_singular_interface_block_raises_numerical_error():
    with pytest.raises(NumericalError, match="singular"):
        _block_preconditioner(
            _space_without_interior_or_edges(), _csr(np.ones((6, 6)))
        )


def _refined_solve(G, r):
    # G has condition ~1.6e6, so a plain LAPACK solve can itself be off by
    # ~1e-12; one step of iterative refinement puts the reference below that
    ref = np.linalg.solve(G, r)
    return ref + np.linalg.solve(G, r - G @ ref)


def _spy_on_inverse(monkeypatch):
    """Sizes of the matrices given to np.linalg.inv from now on."""
    inverted = []
    inv = np.linalg.inv

    def spy(a):
        inverted.append(len(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    return inverted


def _level_of_each_row(levels):
    level = np.full(sum(map(len, levels)), -1)
    for k, rows in enumerate(levels):
        level[rows] = k
    return level


def test_interface_solve_is_exact_with_one_narrow_block_per_level(monkeypatch):
    mp = builtin_geometry("five_patch_bilinear", UnivariateSpace(3, 1, 16))
    space = ArgyrisSpace(mp)
    M = assemble_mass(space)
    ni = space.breakdown["patch"]
    G = M.interface.toarray()
    assert len(G) == 471
    levels = _levels(M.interface)
    level = _level_of_each_row(levels)
    assert sorted(np.concatenate(levels)) == list(range(len(G)))
    # every stored entry joins rows at most one level apart, so G is block
    # tridiagonal in the level order
    assert np.abs(level[M.interface.row_ids] - level[M.interface.indices]).max() <= 1
    inverted = _spy_on_inverse(monkeypatch)
    apply = _block_preconditioner(space, M.interface)
    # one dense inverse per level, each of a narrow level
    assert inverted == [len(rows) for rows in levels]
    assert max(inverted) <= 64
    r = np.arange(1.0, space.dim + 1)
    y = apply(r)[ni:]
    ref = _refined_solve(G, r[ni:])
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


def test_interface_solve_on_a_grid_inverts_only_narrow_blocks(monkeypatch):
    # on a 10 x 10 grid at n = 4 every interface row couples to another
    # edge or a vertex; the levels still stay narrow
    space = ArgyrisSpace(square_grid_geometry(UnivariateSpace(3, 1, 4), 10, 10))
    G = assemble_mass(space).interface
    assert G.shape[0] == 1386
    inverted = _spy_on_inverse(monkeypatch)
    solve = _interface_solver(G)
    assert max(inverted) <= 200
    r = np.arange(1.0, G.shape[0] + 1)
    ref = _refined_solve(G.toarray(), r)
    assert np.linalg.norm(solve(r) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_interface_solve_levels_each_connected_part():
    # two random SPD blocks and three identity rows, interleaved: five
    # connected parts, each levelled after the one before
    rng = np.random.default_rng(31)
    A = np.eye(15)
    for rows in (np.arange(5), np.arange(8, 15)):
        B = rng.normal(size=(len(rows), len(rows)))
        A[np.ix_(rows, rows)] = B @ B.T + len(rows) * np.eye(len(rows))
    perm = rng.permutation(15)
    A = A[np.ix_(perm, perm)]
    G = _csr(A)
    levels = _levels(G)
    level = _level_of_each_row(levels)
    assert sorted(np.concatenate(levels)) == list(range(15))
    assert np.abs(level[G.row_ids] - level[G.indices]).max() <= 1
    # each level holds rows of one part: two levels per dense block, one per
    # identity row
    part = np.repeat(np.arange(5), [5, 1, 1, 1, 7])[perm]
    assert [len(np.unique(part[rows])) for rows in levels] == [1] * 7
    r = np.arange(1.0, 16)
    np.testing.assert_allclose(_interface_solver(G)(r), np.linalg.solve(A, r), rtol=1e-12)


def _loaded_modules(code, *names):
    """Whether each named module is loaded after running ``code`` in a fresh
    interpreter."""
    src = str(Path(argyris.__file__).resolve().parents[1])
    code += f"; print(*(name in sys.modules for name in {names!r}))"
    out = subprocess.run(
        [sys.executable, "-c", "import sys; " + code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    ).stdout
    return out.split()[-len(names):]


#: one run of every subcommand; ``{out}`` is the sample output prefix
SCIPY_FREE_COMMANDS = (
    ("converge", "--builtin", "two_patch_bilinear", "--levels", "2"),
    ("space", "audit", "--builtin", "three_patch_bilinear"),
    ("fit", "--builtin", "two_patch_curved_asg1"),
    ("sample", "--builtin", "lshape_bilinear", "--basis", "110", "--grid", "6",
     "--derivs", "--output", "{out}"),
    ("geom", "check", "--builtin", "five_patch_bilinear"),
    ("gluing", "--builtin", "five_patch_bilinear"),
)

_SCIPY_FREE_RUNNER = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy raises ImportError
import argyris.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = argyris.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def _project_dependencies():
    text = (Path(argyris.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    listed = project.split("dependencies = [", 1)[1].split("]", 1)[0]
    return [d.strip().strip(",").strip('"') for d in listed.splitlines() if d.strip()]


def test_import_does_not_load_sparse_linalg(capsys, tmp_path):
    # the library needs no scipy at all: every subcommand, in a fresh
    # interpreter where importing scipy raises, prints what it prints here
    # and writes the same files
    argvs = [[a.format(out=tmp_path / "s") for a in argv] for argv in SCIPY_FREE_COMMANDS]
    src = str(Path(argyris.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUNNER, json.dumps(argvs)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    isolated = json.loads(proc.stdout)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(written) == 3  # one sample file per patch of the L-shape
    for argv, (code, out) in zip(argvs, isolated):
        assert (code, out) == (main(argv), capsys.readouterr().out), argv
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
    deps = _project_dependencies()
    assert deps and not any(d.startswith("scipy") for d in deps)


def test_fit_path_does_not_load_dense_linear_algebra():
    code = (
        "import argyris.cli; "
        "argyris.cli.main(['converge', '--builtin', 'two_patch_bilinear', '--levels', '2'])"
    )
    assert _loaded_modules(code, "scipy.sparse.linalg", "scipy.linalg") == ["False", "False"]


def test_space_audit_does_not_load_numpy_random():
    # the audit's member is a fixed vector: numpy.random costs about 14 ms
    # and 5.6 MB at its first import. A plain np.unique imports numpy.ma,
    # about 15 ms, so neither the audit nor the converge path calls one
    for argv in (["space", "audit", "--builtin", "three_patch_bilinear"],
                 ["converge", "--builtin", "two_patch_bilinear", "--levels", "2"]):
        code = f"import argyris.cli; argyris.cli.main({argv!r})"
        assert _loaded_modules(code, "numpy.random", "numpy.ma") == ["False", "False"], argv


def test_fit_evaluates_the_map_on_tensor_grids_only(sp_three, monkeypatch):
    # the fit samples the patch map only through Patch.grid_jet
    fld = cos_sin_field(sp_three.geometry)

    def pointwise(*args):
        raise AssertionError("pointwise evaluation of the patch map")

    for name in ("point", "jet"):
        monkeypatch.setattr(Patch, name, pointwise)
    res = l2_fit(sp_three, fld)
    assert 0.0 < res.rel_error < 1e-2


def test_fit_errors_decrease_under_refinement(mp_three):
    table, _ = convergence_study(mp_three, cos_sin_field, 3)
    errs = [row[2] for row in table.rows]
    assert errs[0] > errs[1] > errs[2]


def test_single_patch_rate_is_degree_plus_one(mp_single):
    table, _ = convergence_study(mp_single, cos_sin_field, 3)
    last = table.rows[-1][3]
    assert abs(last - (mp_single.config.p + 1)) < 0.3


def test_in_space_target_flags_ecr(sp_three, mp_three):
    # target inside the coarsest space: errors stay at rounding level and the
    # rate column is left undefined
    rng = np.random.default_rng(22)
    c = rng.normal(size=sp_three.dim)
    fld = SpaceField(sp_three, c)

    table = ConvergenceTable()
    res = l2_fit(sp_three, fld)
    table.add(res.h, res.dim, res.rel_error)
    table.add(res.h / 2, 4 * res.dim, res.rel_error / 16)
    assert table.rows[0][3] is None
    assert table.rows[1][3] is None  # below the in-space floor, flagged as "-"
    assert "-" in table.to_text().splitlines()[1]


def test_ecr_convention_matches_reported_numbers():
    # log2(7.46e-3 / 3.03e-4) = 4.62 to two decimals
    assert round(ConvergenceTable.ecr_convention(7.46e-3, 3.03e-4), 2) == 4.62


def test_quadrature_saturation(sp_three):
    mp = sp_three.geometry
    fld = cos_sin_field(mp)
    r1 = l2_fit(sp_three, fld, QuadratureRule(sp_three.config.n, 5))
    r2 = l2_fit(sp_three, fld, QuadratureRule(sp_three.config.n, 10))
    assert abs(r1.rel_error - r2.rel_error) < 1e-8 * r2.rel_error


def test_smoothness_report_per_basis(sp_three):
    rep = smoothness_report(sp_three, samples_per_edge=50)
    assert rep.max_c1_jump < 1e-9
    assert rep.max_c2_jump < 1e-8
    assert rep.passed()


def test_smoothness_report_of_member(sp_three):
    rng = np.random.default_rng(23)
    c = rng.normal(size=sp_three.dim)
    rep = smoothness_report(sp_three, coeffs=c, samples_per_edge=50)
    assert rep.passed()


def space_with_broken_function(sp):
    """Copy of the space whose function a, the first interior function of the
    first patch of an interface, is replaced by a raw one-sided B-spline;
    returns (copy, a)."""
    import copy

    space = copy.copy(sp)
    e = space.geometry.interfaces()[0]
    (i1, k1), _ = e.locals
    grid = np.zeros(space.shape)
    grid[:2, :2] = 1.0  # corner B-splines: nonzero value on two sides of patch i1
    # overwrite the first interior function of patch i1, nonzero there only
    a = space.block("patch", i1).start
    broken = sp.C.toarray()
    broken[i1 * sp.N**2 : (i1 + 1) * sp.N**2, a] = grid.reshape(-1)
    space.C = _csr(broken)
    return space, a


def test_smoothness_report_flags_broken_function(sp_three):
    # negative control: a raw one-sided B-spline is not even C0 across the
    # interface; the audit must report a large jump for it
    space, a = space_with_broken_function(sp_three)
    rep = smoothness_report(space, samples_per_edge=50)
    assert rep.max_c1_jump > 1e-3
    worst_ids = {row[3] for row in rep.edge_rows}
    assert space.basis_id(a) in worst_ids


def test_smoothness_report_of_coefficient_matrix(sp_three):
    # the k columns of a (dim, k) matrix are k members: every row of the
    # report is the worst of the k single-column reports and names its column
    space, a = space_with_broken_function(sp_three)
    c = np.random.default_rng(29).normal(size=(space.dim, 3))
    c[:, 1] = np.eye(space.dim)[a]
    rep = smoothness_report(space, coeffs=c, samples_per_edge=50)
    singles = [smoothness_report(space, c[:, j], samples_per_edge=50) for j in range(3)]
    for row, *ones in zip(rep.edge_rows, *(s.edge_rows for s in singles)):
        assert row[:3] == (ones[0][0], max(o[1] for o in ones), max(o[2] for o in ones))
        j = int(np.argmax([max(o[1], o[2]) for o in ones]))
        assert row[3] == f"coeffs[:, {j}]"
    for row, *ones in zip(rep.vertex_rows, *(s.vertex_rows for s in singles)):
        assert row[:2] == (ones[0][0], max(o[1] for o in ones))
    assert rep.max_c1_jump == max(s.max_c1_jump for s in singles) > 1e-3
    assert rep.max_c2_jump == max(s.max_c2_jump for s in singles)
    assert "coeffs[:, 1]" in {row[3] for row in rep.edge_rows}


@pytest.mark.parametrize("column,kind",
                         [(0, "patch"), (111, "edge"), (153, "vertex"), (176, "vertex")])
def test_non_finite_coefficients_are_refused(sp_three, column, kind):
    # a NaN at edge column 111 or vertex column 176 used to pass the audit:
    # the maxima dropped a NaN that was not the first row's
    assert sp_three.basis_id(column).kind == kind
    c = np.cos(np.arange(sp_three.dim))
    c[column] = np.nan
    for call in (lambda: smoothness_report(sp_three, coeffs=c, samples_per_edge=50),
                 lambda: project(sp_three, SpaceField(sp_three, c)),
                 lambda: sp_three.combine(np.column_stack([np.zeros_like(c), c]), 0)):
        with pytest.raises(InvalidConfigError, match="non-finite"):
            call()


def test_smoothness_report_with_a_nan_in_its_second_row_does_not_pass():
    ok, nan = (0, 1e-12, 1e-12, None), (1, 1e-12, np.nan, None)
    rep = argyris.fit.SmoothnessReport([ok, nan], [])
    assert not rep.passed() and np.isnan(rep.max_c1_jump)
    rep = argyris.fit.SmoothnessReport([ok], [(0, 0.0, None, 0.0), (1, np.nan, None, np.nan)])
    assert not rep.passed() and np.isnan(rep.max_c2_jump) and np.isnan(rep.max_c2_excess)
    rep = argyris.fit.SmoothnessReport([ok], [(0, 0.0, None, 0.0), (1, 1e-9, None, 0.5)])
    assert rep.passed() and rep.max_c2_excess == 0.5


def sampled_rows(space, c, samples):
    """The report's rows for the k columns of c (dim, k), each side and corner
    sampled on its own ``rotate_grid`` grid by the public ``SpaceField.jets``:
    an oracle independent of the report's one-pass tables."""
    t = np.linspace(0.0, 1.0, samples)
    field = SpaceField(space, c)

    def worst(scores):
        return None if scores.max() <= 0.0 else f"coeffs[:, {int(np.argmax(scores))}]"

    edges = []
    for e in space.geometry.interfaces():
        (i1, k1), (i2, k2) = edge_frames(e)
        (v1, g1), (v2, g2) = (
            field.jets(i, *rotate_grid(*grid, k), 1)
            for i, k, grid in ((i1, k1, ([0.0], t)), (i2, k2, (t, [0.0])))
        )
        sv = np.maximum(1.0, np.maximum(np.abs(v1).max(0), np.abs(v2).max(0)))
        sg = np.maximum(1.0, np.maximum(np.abs(g1).max((0, 2)), np.abs(g2).max((0, 2))))
        dv, dg = np.abs(v1 - v2).max(0) / sv, np.abs(g1 - g2).max((0, 2)) / sg
        edges.append((e.id, dv.max(), dg.max(), worst(np.maximum(dv, dg))))
    vertices = []
    for v in space.geometry.vertices:
        hs = np.array([field.jets(i, *rotate_grid([0.0], [0.0], k), 2)[2][0]
                       for i, k in v.corners])
        dh = np.abs(hs - hs[0]).max((0, 2, 3)) / np.maximum(1.0, np.abs(hs).max((0, 2, 3)))
        vertices.append((v.id, dh.max(), worst(dh)))
    return edges, vertices


@pytest.mark.parametrize("degrees", [(3, 1, 4), (4, 2, 6)])
@pytest.mark.parametrize(
    "name",
    ["three_patch_bilinear", "five_patch_bilinear", "lshape_bilinear", "two_patch_curved_asg1"],
)
def test_smoothness_report_matches_sampling_each_side(name, degrees):
    # the one-pass rows agree with members sampled side by side and corner
    # by corner, and name the broken column where it is the worst
    sp = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(*degrees)))
    space, a = space_with_broken_function(sp)
    c = np.random.default_rng(31).normal(size=(space.dim, 3))
    c[:, 1] = np.eye(space.dim)[a]
    rep = smoothness_report(space, coeffs=c, samples_per_edge=60)
    edges, vertices = sampled_rows(space, c, 60)
    assert len(rep.edge_rows) == len(edges) and len(rep.vertex_rows) == len(vertices)
    for row, ref in zip(rep.edge_rows, edges):
        assert row[0] == ref[0]
        assert abs(row[1] - ref[1]) <= 1e-12 and abs(row[2] - ref[2]) <= 1e-12
        if max(ref[1], ref[2]) > 1e-6:  # not a tie of rounding-level jumps
            assert row[3] == ref[3]
    for row, ref in zip(rep.vertex_rows, vertices):
        assert row[0] == ref[0] and abs(row[1] - ref[1]) <= 1e-12
        if ref[1] > 1e-6:
            assert row[2] == ref[2]
    # the broken function's corner lies on the boundary of the L shape
    named = {row[3] for row in rep.edge_rows}
    assert ("coeffs[:, 1]" in named) == (name != "lshape_bilinear")


def negated_vertex_column(sp, j):
    """Copy of the space, sharing its dual geometry, whose vertex-0 function
    with derivative index j is negated on the patch of the vertex's first
    corner; returns (copy, its column)."""
    import copy

    space = copy.copy(sp)
    assert space._dual_geometry is sp._dual_geometry
    ipatch, _ = space.geometry.vertices[0].corners[0]
    a = space.block("vertex", 0).start + VERTEX_INDEX_ORDER.index(j)
    C = space.C
    on = (C.row_ids // space.N**2 == ipatch) & (C.indices == a)
    space.C = CSRMatrix(C.indptr, C.indices, np.where(on, -C.data, C.data), C.shape)
    return space, a


@pytest.mark.parametrize("n", [4, 64])
def test_smoothness_report_fails_a_negated_vertex_column(n):
    sp = ArgyrisSpace(builtin_geometry("five_patch_bilinear", UnivariateSpace(3, 1, n)))
    assert smoothness_report(sp).passed()
    # the value function jumps across the interfaces next to that patch
    space, a = negated_vertex_column(sp, (0, 0))
    rep = smoothness_report(space)
    assert not rep.passed() and rep.max_c1_jump > 0.5
    # a second-derivative function flips its Hessian at the vertex on one patch
    space, a = negated_vertex_column(sp, (2, 0))
    rep = smoothness_report(space)
    vid, jump, worst, excess = rep.vertex_rows[0]
    assert not rep.passed() and jump > 0.5 and excess > 1e3 and worst == space.basis_id(a)


def test_smoothness_report_memory_does_not_grow_with_the_mesh():
    # only the rows nonzero at each sample are read: five patches at n = 64
    # stay within the 6.3 MB the report took before it sampled dense
    # (N^2, members) coefficient blocks
    sp = ArgyrisSpace(builtin_geometry("five_patch_bilinear", UnivariateSpace(3, 1, 64)))
    smoothness_report(sp)  # basis tables made once per process
    tracemalloc.start()
    try:
        rep = smoothness_report(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed() and peak <= 6.3e6


def test_row_block_is_a_take_that_shares_the_entries(sp_three):
    # a patch's extraction matrix is its rows of the stacked C, not a copy
    C, N2 = sp_three.C, sp_three.N**2
    for i in range(len(sp_three.geometry.patches)):
        A = sp_three.extraction(i)
        B = C.take(np.arange(i * N2, (i + 1) * N2))
        assert A.shape == B.shape == (N2, sp_three.dim)
        for a, b in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
            np.testing.assert_array_equal(a, b)
        assert np.shares_memory(A.data, C.data) and np.shares_memory(A.indices, C.indices)
    empty = C.row_block(N2, N2)
    assert empty.shape == (0, sp_three.dim) and empty.nnz == 0


def test_smoothness_verdict_at_n_256_holds_under_rounding_noise_in_the_nets():
    # the C2 jumps of members with a large gradient grow like n^3 through the
    # rounding of the nets; the verdict compares each with its own floor, so
    # a correct space passes at n = 256 and eps-level noise on every net entry
    # does not flip it
    import copy

    sp = ArgyrisSpace(builtin_geometry("five_patch_bilinear", UnivariateSpace(3, 1, 256)))
    assert smoothness_report(sp).passed()
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for _ in range(3):
        noisy = copy.copy(sp)
        noisy.geometry = copy.copy(sp.geometry)
        noisy.geometry.patches = [
            Patch(sp.config, P.net * (1.0 + 2.0 * eps * rng.uniform(-1.0, 1.0, P.net.shape)))
            for P in sp.geometry.patches
        ]
        assert smoothness_report(noisy).passed()


def test_fit_makes_the_jacobian_weights_once_per_rule(sp_three, monkeypatch):
    # mass and load share the |det DF| weights of each patch; the error
    # integral, on a finer rule, makes its own. Within the fit only the
    # weights take first-derivative basis tables.
    basis_values = argyris.fit._basis_values
    orders = []

    def counting(space, pts, d=0):
        orders.append(d)
        return basis_values(space, pts, d)

    monkeypatch.setattr(argyris.fit, "_basis_values", counting)
    l2_fit(sp_three, cos_sin_field(sp_three.geometry))
    assert orders.count(1) == 2 * len(sp_three.geometry.patches)


def test_curved_geometry_converges_fourth_order(mp_curved):
    table, _ = convergence_study(mp_curved, cos_sin_field, 3)
    assert 3.7 <= table.rows[-1][3] <= 4.3
