"""Planar multi-patch spline geometry.

A MultiPatch bundles tensor-spline patches, all on the square of the one
univariate space that is the geometry's ``config``, with explicit topology
records:
edges (interfaces between two patches or boundary edges of one patch) and
vertices (ordered counterclockwise lists of patch corners). Local sides and
corners of a patch are numbered 0..3 counterclockwise starting at the
{xi1 = 0} side and the (0, 0) corner.

The quarter-turn reparametrization r(xi1, xi2) = (1 - xi2, xi1) acts on
coefficient grids as an exact index permutation; rotating a patch k times
moves side k to {xi1 = 0} and corner k to the parametric origin. In the
standard form of a vertex each patch turns by its corner number; in that of
an interface (decided in ``edge_frames`` alone) the first side turns to
{xi1 = 0} and the second to {xi2 = 0}, so that F1(0, t) = F2(t, 0).
"""

from functools import lru_cache

import numpy as np

from .bspline import TensorSpline, UnivariateSpace, _basis_values, _integer, represent_exactly
from .errors import (
    ConformityError,
    GeometryFormatError,
    InvalidConfigError,
    TopologyError,
)

__all__ = [
    "Patch",
    "EdgeRecord",
    "VertexRecord",
    "MultiPatch",
    "rotate_net",
    "check_regularity",
    "edge_frames",
    "standard_form_edge",
    "refine",
    "save_geometry",
    "load_geometry",
    "infer_topology",
]

#: parametric corner coordinates, indexed by local corner number
CORNER_UV = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])

CONFORMITY_TOL = 1e-12

#: net index of the control point at each local corner
_CORNER_INDEX = ((0, 0), (-1, 0), (-1, -1), (0, -1))


def rotate_net(net, k):
    """Coefficient grid of (function o r^k) for symmetric uniform knots, a
    turned view of ``net``."""
    out = np.asarray(net)
    for _ in range(k % 4):
        out = out[::-1].swapaxes(0, 1)
    return out


class Patch(TensorSpline):
    """Tensor-spline map from [0, 1]^2 into the plane: its coefficients are
    the (N, N, 2) control net, and ``grid_jet`` gives
    D[q, a, b, :] = d^a d^b F / dxi1^a dxi2^b."""

    def __init__(self, space, net):
        net = np.asarray(net, dtype=float)
        if net.shape != (space.N, space.N, 2):
            raise InvalidConfigError(f"control net {net.shape} does not match {space}")
        super().__init__(space, net)

    @property
    def net(self):
        return self.coeffs

    def rotate(self, k):
        """Same point set reparametrized by the k-fold quarter turn, on a
        contiguous copy of the turned net."""
        return Patch(self.space, np.ascontiguousarray(rotate_net(self.net, k)))

    def corner(self, k):
        """Image of local corner k: its control point, by the clamped knots."""
        return self.net[_CORNER_INDEX[k]].copy()


class EdgeRecord:
    """Global edge: an interface (two local sides) or a boundary edge (one)."""

    def __init__(self, eid, kind, locals_):
        locals_ = tuple((int(p), int(s)) for p, s in locals_)
        if kind == "interface":
            if len(locals_) != 2 or locals_[0][0] == locals_[1][0]:
                raise TopologyError(
                    f"edge {eid}: an interface needs two sides on distinct patches"
                )
        elif kind == "boundary":
            if len(locals_) != 1:
                raise TopologyError(f"edge {eid}: a boundary edge has exactly one side")
        else:
            raise TopologyError(f"edge {eid}: unknown kind {kind!r}")
        self.id = eid
        self.kind = kind
        self.locals = locals_

    @property
    def is_interface(self):
        return self.kind == "interface"


class VertexRecord:
    """Global vertex with its counterclockwise (patch, corner) list."""

    def __init__(self, vid, kind, corners):
        if kind not in ("interior", "boundary"):
            raise TopologyError(f"vertex {vid}: unknown kind {kind!r}")
        corners = tuple((int(p), int(c)) for p, c in corners)
        if len({p for p, _ in corners}) != len(corners):
            raise TopologyError(f"vertex {vid}: patches around a vertex must be distinct")
        self.id = vid
        self.kind = kind
        self.corners = corners

    @property
    def valence(self):
        return len(self.corners)

    @property
    def is_interior(self):
        return self.kind == "interior"


class MultiPatch:
    """Patches plus explicit edge/vertex topology over one shared univariate
    space ``config``."""

    def __init__(self, config, patches, edges, vertices, check=True):
        self.config = config
        self.patches = list(patches)
        self.edges = list(edges)
        self.vertices = list(vertices)
        if not self.patches:
            raise TopologyError("a geometry needs at least one patch")
        for i, patch in enumerate(self.patches):
            if patch.space != config:
                raise ConformityError(
                    f"patch {i} and the geometry are on different spline spaces: "
                    f"{patch.space} and {config}"
                )
        # records are looked up by id, so the ids must be their list positions
        for kind, records in (("edge", self.edges), ("vertex", self.vertices)):
            ids = [rec.id for rec in records]
            if ids != list(range(len(records))):
                raise TopologyError(
                    f"{kind} ids must be 0..{len(records) - 1} in order, got {ids}"
                )
        self.edge_of_side = {}
        for e in self.edges:
            for ps in e.locals:
                if ps in self.edge_of_side:
                    raise TopologyError(f"side {ps} appears in two edges")
                self.edge_of_side[ps] = e
        self.vertex_of_corner = {}
        for v in self.vertices:
            for pc in v.corners:
                if pc in self.vertex_of_corner:
                    raise TopologyError(f"corner {pc} appears in two vertices")
                self.vertex_of_corner[pc] = v
        if check:
            self.validate()

    def validate(self):
        npatch = len(self.patches)
        for e in self.edges:
            for p, s in e.locals:
                if not (0 <= p < npatch and 0 <= s < 4):
                    raise TopologyError(f"edge {e.id} references missing side ({p},{s})")
        for v in self.vertices:
            for p, c in v.corners:
                if not (0 <= p < npatch and 0 <= c < 4):
                    raise TopologyError(
                        f"vertex {v.id} references missing corner ({p},{c})"
                    )
        for p in range(npatch):
            for s in range(4):
                if (p, s) not in self.edge_of_side:
                    raise TopologyError(f"side ({p},{s}) belongs to no edge")
            for c in range(4):
                if (p, c) not in self.vertex_of_corner:
                    raise TopologyError(f"corner ({p},{c}) belongs to no vertex")
        for i, patch in enumerate(self.patches):
            d = _min_jacobian(patch)
            if not d > 0.0:  # also catches NaN
                raise ConformityError(
                    f"patch {i} is singular or flipped: min Jacobian det {d:.3e}"
                )
        for e in self.edges:
            standard_form_edge(self, e)
        for v in self.vertices:
            vertex_surrounding_edges(self, v)

    def interfaces(self):
        return [e for e in self.edges if e.is_interface]


def check_regularity(patch, m):
    """Minimum Jacobian determinant over an m x m uniform sample grid."""
    if _integer(m, "m") < 2:
        raise InvalidConfigError("need at least a 2 x 2 sample grid")
    t = np.linspace(0.0, 1.0, m)
    J = patch.grid_jet(t, t, 1)
    det = J[:, 1, 0, 0] * J[:, 0, 1, 1] - J[:, 1, 0, 1] * J[:, 0, 1, 0]
    return float(det.min())


def _min_jacobian(patch):
    """Minimum Jacobian determinant on the grid that validation samples: ten
    points per element, at most 101 per direction."""
    return check_regularity(patch, min(10 * patch.space.n + 1, 101))


def _edge_gap(p1, p2, k1=0, k2=0):
    """Largest control-point distance between the traces F1(0, t), F2(t, 0)
    of the patches turned k1 and k2 times.

    On one tensor space both traces are splines in the same clamped space;
    they coincide exactly when their coefficients do, and the distance bounds
    |F1(0, t) - F2(t, 0)|. Patches on different spaces raise ConformityError.
    """
    if p1.space != p2.space:
        raise ConformityError(
            f"patches on different spline spaces: {p1.space} and {p2.space}"
        )
    trace1, trace2 = rotate_net(p1.net, k1)[0, :], rotate_net(p2.net, k2)[:, 0]
    return float(np.abs(trace1 - trace2).max())


def edge_frames(edge):
    """(patch, quarter turns) of each side of an edge in standard form.

    The turns take the first side to {xi1 = 0} and an interface's second
    side to {xi2 = 0}; on a conforming interface F1(0, t) = F2(t, 0) then.
    """
    (i1, k1), *second = edge.locals
    return ((i1, k1),) + tuple((i2, (k2 - 1) % 4) for i2, k2 in second)


def standard_form_edge(mp, edge):
    """Rotate the adjacent patches so the edge satisfies F1(0, t) = F2(t, 0).

    For a boundary edge the single patch is rotated so the edge lies on its
    {xi1 = 0} side and the second entry of the pair is None.
    """
    frames = edge_frames(edge)
    if edge.is_interface:
        (i1, k1), (i2, k2) = frames
        gap = _edge_gap(mp.patches[i1], mp.patches[i2], k1, k2)
        if gap > CONFORMITY_TOL:
            raise ConformityError(
                f"edge {edge.id}: interface parametrizations differ by {gap:.3e}"
            )
    pair = tuple(mp.patches[i].rotate(k) for i, k in frames)
    return pair + (None,) * (2 - len(pair))


def vertex_surrounding_edges(mp, vertex):
    """Global edges around a vertex, in the counterclockwise odd-slot order.

    Raises TopologyError unless the listed corners map to one point,
    consecutive patches meet in standard form (F_prev(0, t) = F_next(t, 0),
    cyclically for an interior vertex) and a boundary list starts and ends
    at the boundary. For patch valence nu the list has nu+1 entries for a
    boundary vertex (first and last are boundary edges) and nu entries for
    an interior one. Edge ell sits between patches ell-1 and ell, cyclically
    for an interior vertex: edge 0 is on side c0+1 of the first corner.
    """
    p0, c0 = vertex.corners[0]
    out = [mp.edge_of_side[(p0, (c0 + 1) % 4)]]
    out += [mp.edge_of_side[pc] for pc in vertex.corners]
    x0 = mp.patches[p0].corner(c0)
    for p, c in vertex.corners[1:]:
        if np.abs(mp.patches[p].corner(c) - x0).max() > CONFORMITY_TOL:
            raise TopologyError(
                f"vertex {vertex.id}: listed corners map to different points"
            )
    nu = vertex.valence
    pairs = range(nu) if vertex.is_interior else range(nu - 1)
    for ell in pairs:
        (pa, ca), (pb, cb) = vertex.corners[ell], vertex.corners[(ell + 1) % nu]
        gap = _edge_gap(mp.patches[pa], mp.patches[pb], ca, cb)
        if gap > CONFORMITY_TOL:
            raise TopologyError(
                f"vertex {vertex.id}: patches {ell} and {(ell + 1) % nu} around the "
                f"vertex are not consecutive in standard form (gap {gap:.3e})"
            )
    if not vertex.is_interior:
        # first patch must start at the boundary and last must end there
        if out[0].is_interface:
            raise TopologyError(
                f"vertex {vertex.id}: boundary vertex list does not start at the boundary"
            )
        if out[-1].is_interface:
            raise TopologyError(
                f"vertex {vertex.id}: boundary vertex list does not end at the boundary"
            )
    if vertex.is_interior and out.pop() is not out[0]:
        raise TopologyError(f"vertex {vertex.id}: edge cycle does not close")
    if not all(e.is_interface for e in (out if vertex.is_interior else out[1:-1])):
        raise TopologyError(f"vertex {vertex.id}: consecutive patches share no interface")
    return out


@lru_cache(maxsize=16)
def _knot_insertion(coarse, fine):
    """Knot insertion from ``coarse`` into a ``fine`` space that contains it:
    the read-only matrix R (fine.N, coarse.N) whose column j holds the fine
    coefficients of coarse basis function j. Made once per pair of spaces,
    for ``refine`` and for the prolongation of members of the smooth space
    (``duality._prolong``)."""
    R = represent_exactly(fine, lambda x: _basis_values(coarse, x))
    R.setflags(write=False)
    return R


def refine(mp):
    """Dyadic refinement: same geometry represented on the mesh of twice as
    many elements per direction.

    Every net maps to R @ net @ R^T, coordinate by coordinate, with R the
    knot insertion of ``_knot_insertion``.
    """
    coarse = mp.config
    fine = UnivariateSpace(coarse.p, coarse.r, 2 * coarse.n)
    R = _knot_insertion(coarse, fine)
    patches = [
        Patch(fine, np.moveaxis(R @ np.moveaxis(patch.net, -1, 0) @ R.T, 0, -1))
        for patch in mp.patches
    ]
    return MultiPatch(fine, patches, mp.edges, mp.vertices, check=False)


def _order_corners(corner_set, edge_of_side):
    """Counterclockwise ordering of the patch corners around one vertex.

    Returns (kind, ordered list). Walking from a corner (p, c), the next
    patch counterclockwise is found across the edge on side c of p; the
    walk starts at the boundary for boundary vertices.
    """
    corner_set = set(corner_set)
    start = None
    for p, c in sorted(corner_set):
        if not edge_of_side[(p, (c + 1) % 4)].is_interface:
            start = (p, c)
            break
    kind = "boundary" if start is not None else "interior"
    if start is None:
        start = min(corner_set)
    order = []
    cur = start
    while True:
        order.append(cur)
        e = edge_of_side[cur]
        if not e.is_interface:
            break
        (pa, sa), (pb, sb) = e.locals
        np_, ns = (pb, sb) if (pa, sa) == cur else (pa, sa)
        nxt = (np_, (ns - 1) % 4)
        if nxt == start:
            break
        if nxt not in corner_set or len(order) > len(corner_set):
            raise TopologyError(f"cannot order corners {sorted(corner_set)} around vertex")
        cur = nxt
    if set(order) != corner_set:
        raise TopologyError(f"corner walk {order} does not cover {sorted(corner_set)}")
    return kind, order


def infer_topology(config, patches):
    """Build edge and vertex records from coincident control points.

    Convenience for geometries authored without explicit topology; the
    result is validated like any other MultiPatch.
    """
    # control points of every side, in either orientation (both are matched)
    sides = {(i, s): rotate_net(patch.net, s)[0] for i, patch in enumerate(patches)
             for s in range(4)}
    unmatched = set(sides)
    edges = []
    for a in sorted(sides):
        if a not in unmatched:
            continue
        mate = None
        for b in sorted(unmatched - {a}):
            if b[0] == a[0]:
                continue
            pa, pb = sides[a], sides[b]
            if pa.shape == pb.shape and min(
                np.abs(pa - q).max() for q in (pb, pb[::-1])
            ) <= CONFORMITY_TOL:
                mate = b
                break
        if mate is None:
            edges.append(EdgeRecord(len(edges), "boundary", [a]))
            unmatched.discard(a)
        else:
            edges.append(EdgeRecord(len(edges), "interface", [a, mate]))
            unmatched.discard(a)
            unmatched.discard(mate)
    edge_of_side = {}
    for e in edges:
        for ps in e.locals:
            edge_of_side[ps] = e

    corners = {}
    for i, patch in enumerate(patches):
        for c in range(4):
            corners[(i, c)] = patch.corner(c)
    groups = []
    for key in sorted(corners):
        for g in groups:
            if np.abs(corners[key] - corners[g[0]]).max() <= CONFORMITY_TOL:
                g.append(key)
                break
        else:
            groups.append([key])
    vertices = []
    for g in groups:
        kind, order = _order_corners(g, edge_of_side)
        vertices.append(VertexRecord(len(vertices), kind, order))
    return MultiPatch(config, patches, edges, vertices)


# ----------------------------------------------------------------------------
# geometry file I/O (format documented in docs/formats.md)
# ----------------------------------------------------------------------------

FORMAT_HEADER = "argyris-geometry"
FORMAT_VERSION = 1


def save_geometry(mp, path):
    cfg = mp.config
    N = cfg.N
    lines = [f"{FORMAT_HEADER} {FORMAT_VERSION}"]
    lines.append(f"p {cfg.p}")
    lines.append(f"r {cfg.r}")
    lines.append(f"n {cfg.n}")
    lines.append(f"patches {len(mp.patches)}")
    for i, patch in enumerate(mp.patches):
        lines.append(f"patch {i}")
        for j2 in range(N):
            for j1 in range(N):
                x, y = patch.net[j1, j2]
                lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"edges {len(mp.edges)}")
    for e in mp.edges:
        flat = " ".join(f"{p} {s}" for p, s in e.locals)
        lines.append(f"edge {e.id} {e.kind} {flat}")
    lines.append(f"vertices {len(mp.vertices)}")
    for v in mp.vertices:
        flat = " ".join(f"{p} {c}" for p, c in v.corners)
        lines.append(f"vertex {v.id} {v.kind} {flat}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_geometry(path):
    with open(path, encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = [ln.strip() for ln in raw]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise GeometryFormatError(f"{path}: unexpected end of file")
        ln = lines[pos]
        pos += 1
        return ln

    def ints(tokens, line):
        try:
            return [int(t) for t in tokens]
        except ValueError as exc:
            raise GeometryFormatError(f"{path}: bad index in {line!r}") from exc

    def take_kv(key):
        ln = take().split()
        if len(ln) != 2 or ln[0] != key:
            raise GeometryFormatError(f"{path}: expected '{key} <value>', got {ln!r}")
        try:
            return int(ln[1])
        except ValueError as exc:
            raise GeometryFormatError(f"{path}: bad value for {key}: {ln[1]!r}") from exc

    head = take().split()
    if head[:1] != [FORMAT_HEADER] or len(head) != 2 or head[1] != str(FORMAT_VERSION):
        raise GeometryFormatError(f"{path}: not a version-{FORMAT_VERSION} geometry file")
    p = take_kv("p")
    r = take_kv("r")
    n = take_kv("n")
    # a net needs N*N lines; refuse a size the file cannot hold before the
    # config is checked and the spline space allocates for it
    N = (p - r) * (n - 1) + p + 1
    if N > 0 and N * N > len(lines):
        raise GeometryFormatError(f"{path}: too short for {N}x{N} control nets")
    cfg = UnivariateSpace(p, r, n)

    npatch = take_kv("patches")
    patches = []
    for i in range(npatch):
        hdr = take().split()
        if hdr != ["patch", str(i)]:
            raise GeometryFormatError(f"{path}: expected 'patch {i}', got {hdr!r}")
        net = np.empty((N, N, 2))
        for j2 in range(N):
            for j1 in range(N):
                tok = take().split()
                if len(tok) != 2:
                    raise GeometryFormatError(
                        f"{path}: control point of patch {i} needs two coordinates"
                    )
                try:
                    net[j1, j2] = [float(tok[0]), float(tok[1])]
                except ValueError as exc:
                    raise GeometryFormatError(
                        f"{path}: bad coordinate in patch {i}: {tok!r}"
                    ) from exc
                if not np.isfinite(net[j1, j2]).all():
                    raise GeometryFormatError(
                        f"{path}: non-finite coordinate in patch {i}: {tok!r}"
                    )
        patches.append(Patch(cfg, net))

    nedges = take_kv("edges")
    edges = []
    for _ in range(nedges):
        tok = take().split()
        if len(tok) < 4 or tok[0] != "edge":
            raise GeometryFormatError(f"{path}: malformed edge line {tok!r}")
        kind = tok[2]
        eid, *nums = ints([tok[1]] + tok[3:], tok)
        if len(nums) % 2:
            raise GeometryFormatError(f"{path}: edge {eid} has dangling index")
        edges.append(EdgeRecord(eid, kind, zip(nums[::2], nums[1::2])))

    nverts = take_kv("vertices")
    vertices = []
    for _ in range(nverts):
        tok = take().split()
        if len(tok) < 4 or tok[0] != "vertex":
            raise GeometryFormatError(f"{path}: malformed vertex line {tok!r}")
        kind = tok[2]
        vid, *nums = ints([tok[1]] + tok[3:], tok)
        if len(nums) % 2:
            raise GeometryFormatError(f"{path}: vertex {vid} has dangling index")
        vertices.append(VertexRecord(vid, kind, zip(nums[::2], nums[1::2])))

    if pos != len(lines):
        raise GeometryFormatError(
            f"{path}: trailing garbage starting at {lines[pos]!r}"
        )
    return MultiPatch(cfg, patches, edges, vertices)
