"""Command-line front end.

Subcommands: ``geom check``, ``gluing``, ``space dim``, ``space audit``,
``fit``, ``converge``, ``sample``. Numeric reports print errors with three
significant digits and coefficients with 17; identical invocations produce
byte-identical output (timings go to stderr).
"""

import argparse
import sys

import numpy as np

from .bspline import UnivariateSpace
from .errors import ArgyrisError, InvalidConfigError, ValidationError
from .geometries import BUILTIN_NAMES, builtin_geometry
from .gluing import fit_asg1
from .multipatch import _min_jacobian, load_geometry, standard_form_edge
from .space import ArgyrisSpace, space_dimension


def _add_geometry_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=BUILTIN_NAMES, help="built-in geometry")
    src.add_argument("--geometry", help="geometry file path")
    p.add_argument("--p", type=int, default=3, help="spline degree (default 3)")
    p.add_argument("--r", type=int, default=1, help="spline regularity (default 1)")
    p.add_argument("--n", type=int, default=4, help="elements per direction (default 4)")


def _geometry(args):
    if args.geometry:
        return load_geometry(args.geometry)
    return builtin_geometry(args.builtin, UnivariateSpace(args.p, args.r, args.n))


def _cmd_geom_check(args):
    mp = _geometry(args)  # validation happens during construction
    print(f"patches {len(mp.patches)}")
    print(f"interfaces {len(mp.interfaces())}")
    print(f"boundary_edges {len(mp.edges) - len(mp.interfaces())}")
    print(f"interior_vertices {sum(1 for v in mp.vertices if v.is_interior)}")
    print(f"boundary_vertices {sum(1 for v in mp.vertices if not v.is_interior)}")
    for i, patch in enumerate(mp.patches):
        d = _min_jacobian(patch)
        print(f"patch {i} min_jacobian {d:.3e}")
    print("conformity OK")
    return 0


def _cmd_gluing(args):
    mp = _geometry(args)
    for e in mp.interfaces():
        F1, F2 = standard_form_edge(mp, e)
        g = fit_asg1(F1, F2, strict=False)
        verdict = "AS-G1" if g.asg1 else "NOT AS-G1"
        print(f"interface {e.id}: {verdict} residual {g.residual:.3e}")
        for name, c in (
            ("alpha1", g.alpha1),
            ("alpha2", g.alpha2),
            ("beta1", g.beta1),
            ("beta2", g.beta2),
            ("beta", g.beta),
        ):
            vals = " ".join(f"{x:.17g}" for x in c)
            print(f"  {name} {vals}")
    for e in mp.edges:
        if not e.is_interface:
            print(f"boundary edge {e.id}: alpha1 1 beta1 0")
    return 0


def _cmd_space_dim(args):
    mp = _geometry(args)
    total, parts = space_dimension(mp)
    print(
        f"dim {total} (patch {parts['patch']} / edge {parts['edge']} "
        f"/ vertex {parts['vertex']})"
    )
    return 0


def _cmd_space_audit(args):
    from .duality import SpaceField, biorthogonality_matrix, project
    from .fit import smoothness_report

    mp = _geometry(args)
    space = ArgyrisSpace(mp)
    M = biorthogonality_matrix(space)
    off = M.row_ids != M.indices  # M.diagonal() reads 0 where none is stored
    dev = max(np.abs(M.data[off]).max(initial=0.0), np.abs(M.diagonal() - 1.0).max())
    print(f"biorthogonality max |M - I| {dev:.3e}")
    c = np.cos(np.arange(space.dim))  # fixed, no zero entry, no numpy.random import
    c2 = project(space, SpaceField(space, c))
    rep = np.abs(c2 - c).max() / max(1.0, np.abs(c).max())
    print(f"projector reproduction error {rep:.3e}")
    audit = smoothness_report(space)
    print(f"max C1 interface jump {audit.max_c1_jump:.3e}")
    print(f"max C2 vertex jump {audit.max_c2_jump:.3e}")
    ok = dev < 1e-9 and rep < 1e-9 and audit.passed()
    print("audit PASS" if ok else "audit FAIL")
    return 0 if ok else 2


def _cmd_fit(args):
    from .fit import QuadratureRule, cos_sin_field, l2_fit

    mp = _geometry(args)
    space = ArgyrisSpace(mp)
    rule = None
    if args.quadrature is not None:
        rule = QuadratureRule(space.config.n, args.quadrature)
    res = l2_fit(space, cos_sin_field(mp), rule)
    print(f"h 1/{round(1 / res.h)}")
    print(f"dim {res.dim}")
    print(f"rel_l2_error {res.rel_error:.3e}")
    print(f"galerkin_residual {res.galerkin_residual:.3e}", file=sys.stderr)
    print(
        f"assemble {res.assemble_seconds:.2f}s solve {res.solve_seconds:.2f}s "
        f"error {res.error_seconds:.2f}s cg {res.cg_iterations} "
        f"cond {res.cond_estimate:.3e}",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(f"{c:.17g}" for c in res.coeffs) + "\n")
    return 0


def _cmd_converge(args):
    from .fit import convergence_study, cos_sin_field

    mp = _geometry(args)
    table, results = convergence_study(mp, cos_sin_field, args.levels)
    print(table.to_text())
    for r in results:
        print(
            f"n={round(1 / r.h)} assemble {r.assemble_seconds:.2f}s "
            f"solve {r.solve_seconds:.2f}s error {r.error_seconds:.2f}s "
            f"cg {r.cg_iterations} cond {r.cond_estimate:.3e}",
            file=sys.stderr,
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
    return 0


#: most samples per direction that ``sample`` writes for each patch
MAX_SAMPLE_GRID = 1000


def _cmd_sample(args):
    from .duality import SpaceField

    if not 1 <= args.grid <= MAX_SAMPLE_GRID:
        raise InvalidConfigError(f"--grid must be in 1..{MAX_SAMPLE_GRID}, got {args.grid}")
    mp = _geometry(args)
    space = ArgyrisSpace(mp)
    if args.basis is not None:
        space.basis_id(args.basis)  # rejects an index outside 0..dim-1
        coeffs = np.zeros(space.dim)
        coeffs[args.basis] = 1.0
    else:
        try:
            coeffs = np.loadtxt(args.coeffs, ndmin=1)
        except ValueError as exc:
            raise InvalidConfigError(f"unreadable coefficient file: {exc}") from exc
        if coeffs.shape != (space.dim,):
            raise InvalidConfigError(
                f"coefficient file has {coeffs.shape[0]} entries, need {space.dim}"
            )
        bad = np.flatnonzero(~np.isfinite(coeffs))
        if len(bad):
            raise InvalidConfigError(
                f"{args.coeffs}: non-finite coefficient {bad[0]}: {float(coeffs[bad[0]])}"
            )
    t = np.linspace(0.0, 1.0, args.grid)
    uv = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    order = 1 if args.derivs else 0
    header = "xi1,xi2,x1,x2,value" + (",dx1,dx2" if args.derivs else "")
    field = SpaceField(space, coeffs)
    for i, patch in enumerate(mp.patches):
        x = patch.grid_jet(t, t, order)[:, 0, 0]
        val, *grad = field.jets(i, t, t, order)
        cols = [uv[:, 0], uv[:, 1], x[:, 0], x[:, 1], val, *(grad[0].T if grad else ())]
        path = f"{args.output}_patch{i}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in zip(*cols):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="argyris",
        description="C1 smooth spline spaces on multi-patch planar domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    geom = sub.add_parser("geom", help="geometry operations")
    gsub = geom.add_subparsers(dest="subcommand", required=True)
    gc = gsub.add_parser("check", help="regularity and conformity report")
    _add_geometry_args(gc)
    gc.set_defaults(func=_cmd_geom_check)

    gl = sub.add_parser("gluing", help="per-interface AS-G1 diagnosis")
    _add_geometry_args(gl)
    gl.set_defaults(func=_cmd_gluing)

    spc = sub.add_parser("space", help="smooth-space operations")
    ssub = spc.add_subparsers(dest="subcommand", required=True)
    sd = ssub.add_parser("dim", help="dimension breakdown")
    _add_geometry_args(sd)
    sd.set_defaults(func=_cmd_space_dim)
    sa = ssub.add_parser("audit", help="biorthogonality and smoothness suite")
    _add_geometry_args(sa)
    sa.set_defaults(func=_cmd_space_audit)

    ft = sub.add_parser("fit", help="single L2 fit of the benchmark target")
    _add_geometry_args(ft)
    ft.add_argument("--quadrature", type=int, default=None, help="Gauss points per direction")
    ft.add_argument("--output", help="write coefficients to this file")
    ft.set_defaults(func=_cmd_fit)

    cv = sub.add_parser("converge", help="multi-level convergence table")
    _add_geometry_args(cv)
    cv.add_argument("--levels", type=int, default=4, help="number of dyadic levels")
    cv.add_argument("--csv", help="also write the table as CSV")
    cv.set_defaults(func=_cmd_converge)

    sm = sub.add_parser("sample", help="CSV field samples per patch")
    _add_geometry_args(sm)
    src = sm.add_mutually_exclusive_group(required=True)
    src.add_argument("--basis", type=int, help="sample one basis function")
    src.add_argument("--coeffs", help="coefficient file, one value per line")
    sm.add_argument("--grid", type=int, default=33, help="samples per direction")
    sm.add_argument("--derivs", action="store_true", help="include physical gradients")
    sm.add_argument("--output", required=True, help="output file prefix")
    sm.set_defaults(func=_cmd_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArgyrisError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
