"""Workload definitions, generated inputs and output checkers.

Each workload is one ``argyris`` CLI invocation. Its checker takes the exit
code and stdout of a run and returns a list of problems; an empty list
means the output is correct.
"""

import json
import math
import os
import re

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# fit-grid: a GRID x GRID array of bilinear patches on [0, EXTENT]^2
GRID = 6
EXTENT = 3.0
JITTER = 0.25  # of the cell size, interior grid points only
P, R, N_ELEM = 3, 1, 4
# --seed picks one of this many geometries; reference.json holds the seed
# code's rel_l2_error for each of them
GEOMETRY_SEEDS = 32

CONVERGE_DIMS = [291, 1211, 4971, 20171]
AUDIT_TOL = 1e-9


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# fit-grid geometry
# ----------------------------------------------------------------------------


def _greville(p, r, n):
    knots = [0.0] * (p + 1)
    for k in range(1, n):
        knots += [k / n] * (p - r)
    knots += [1.0] * (p + 1)
    nbasis = len(knots) - p - 1
    return np.array([sum(knots[i + 1 : i + p + 1]) / p for i in range(nbasis)])


def grid_points(geometry_seed):
    """(GRID+1, GRID+1, 2) grid nodes; interior nodes jittered."""
    rng = np.random.default_rng(geometry_seed)
    h = EXTENT / GRID
    t = np.arange(GRID + 1) * h
    pts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)
    pts[1:-1, 1:-1] += rng.uniform(-JITTER * h, JITTER * h, pts[1:-1, 1:-1].shape)
    return pts


def _neighbour(pid, side):
    """(patch, side) across `side` of patch `pid`, or None on the boundary.

    Patch a + GRID*b covers cell (a, b); sides 0..3 are xi1=0 (left),
    xi2=0 (bottom), xi1=1 (right), xi2=1 (top).
    """
    a, b = pid % GRID, pid // GRID
    da, db, mate = {0: (-1, 0, 2), 1: (0, -1, 3), 2: (1, 0, 0), 3: (0, 1, 1)}[side]
    a2, b2 = a + da, b + db
    if 0 <= a2 < GRID and 0 <= b2 < GRID:
        return (a2 + GRID * b2, mate)
    return None


def grid_topology():
    """Edge and vertex records in the order ``infer_topology`` produces them.

    Returns (edges, vertices): edges are (kind, [(patch, side), ...]) and
    vertices are (kind, [(patch, corner), ...]) in counterclockwise order.
    """
    npatch = GRID * GRID
    edges, edge_of_side = [], {}
    for pid in range(npatch):
        for s in range(4):
            if (pid, s) in edge_of_side:
                continue
            mate = _neighbour(pid, s)
            locs = [(pid, s)] if mate is None else [(pid, s), mate]
            kind = "boundary" if mate is None else "interface"
            for ps in locs:
                edge_of_side[ps] = len(edges)
            edges.append((kind, locs))

    def node(pid, c):  # grid node of corner c: 0=(0,0) 1=(1,0) 2=(1,1) 3=(0,1)
        a, b = pid % GRID, pid // GRID
        return (a + (c in (1, 2)), b + (c in (2, 3)))

    groups = {}
    for pid in range(npatch):
        for c in range(4):
            groups.setdefault(node(pid, c), []).append((pid, c))
    vertices = []
    for members in groups.values():  # dicts keep first-seen order
        start = next(
            (pc for pc in members if edges[edge_of_side[(pc[0], (pc[1] + 1) % 4)]][0] == "boundary"),
            None,
        )
        kind = "interior" if start is None else "boundary"
        order = [start or members[0]]
        while True:
            ekind, locs = edges[edge_of_side[order[-1]]]
            if ekind == "boundary":
                break
            (pa, sa), (pb, sb) = locs
            np_, ns = (pb, sb) if (pa, sa) == order[-1] else (pa, sa)
            nxt = (np_, (ns - 1) % 4)
            if nxt == order[0]:
                break
            order.append(nxt)
        vertices.append((kind, order))
    return edges, vertices


def grid_dimension():
    """Space dimension from topology counts alone (patch + edge + vertex)."""
    edges, vertices = grid_topology()
    N = (P - R) * (N_ELEM - 1) + P + 1
    Nm = (P - R - 1) * (N_ELEM - 1) + P
    return GRID * GRID * (N - 4) ** 2 + len(edges) * (2 * Nm - 9) + len(vertices) * 6


def write_grid_geometry(path, geometry_seed):
    """Write the jittered grid in the ``argyris-geometry 1`` file format."""
    pts = grid_points(geometry_seed)
    g = _greville(P, R, N_ELEM)
    u, v = g[:, None, None], g[None, :, None]
    edges, vertices = grid_topology()
    lines = ["argyris-geometry 1", f"p {P}", f"r {R}", f"n {N_ELEM}"]
    lines.append(f"patches {GRID * GRID}")
    for pid in range(GRID * GRID):
        a, b = pid % GRID, pid // GRID
        c00, c10 = pts[a, b], pts[a + 1, b]
        c11, c01 = pts[a + 1, b + 1], pts[a, b + 1]
        # the Greville embedding reproduces a bilinear map exactly
        net = (1 - u) * (1 - v) * c00 + u * (1 - v) * c10 + u * v * c11 + (1 - u) * v * c01
        lines.append(f"patch {pid}")
        for j2 in range(len(g)):
            for j1 in range(len(g)):
                lines.append(f"{net[j1, j2, 0]:.17g} {net[j1, j2, 1]:.17g}")
    lines.append(f"edges {len(edges)}")
    for eid, (kind, locs) in enumerate(edges):
        lines.append(f"edge {eid} {kind} " + " ".join(f"{p} {s}" for p, s in locs))
    lines.append(f"vertices {len(vertices)}")
    for vid, (kind, order) in enumerate(vertices):
        lines.append(f"vertex {vid} {kind} " + " ".join(f"{p} {c}" for p, c in order))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------------

_NUM = r"([-+0-9.eE]+|nan|inf)"


def check_converge(rc, stdout, reference):
    """Dims, monotone errors, final ecr near 4, errors equal to the seed's."""
    if rc != 0:
        return [f"exit code {rc}"]
    rows = re.findall(r"^\s*1/(\d+)\s+(\d+)\s+(\S+)\s+(\S+)\s*$", stdout, re.M)
    if len(rows) != len(CONVERGE_DIMS):
        return [f"expected {len(CONVERGE_DIMS)} table rows, found {len(rows)}"]
    problems = []
    dims = [int(r[1]) for r in rows]
    if dims != CONVERGE_DIMS:
        problems.append(f"dims {dims} != {CONVERGE_DIMS}")
    errs_s = [r[2] for r in rows]
    if errs_s != reference["converge-five"]["rel_l2_error"]:
        problems.append(f"errors {errs_s} != {reference['converge-five']['rel_l2_error']}")
    try:
        errs = [float(e) for e in errs_s]
        ecr = [float(r[3]) for r in rows[-2:]]
    except ValueError:
        return problems + ["unparsable error or ecr"]
    if not all(a > b for a, b in zip(errs, errs[1:])):
        problems.append(f"errors not strictly decreasing: {errs_s}")
    if not all(3.7 <= e <= 4.3 for e in ecr):
        problems.append(f"last two ecr {ecr} outside [3.7, 4.3]")
    return problems


def check_audit(rc, stdout, reference=None):
    """Exit 0, ``audit PASS`` and biorthogonality/projector below 1e-9."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not re.search(r"^audit PASS$", stdout, re.M):
        problems.append("no 'audit PASS' line")
    for label in ("biorthogonality max |M - I|", "projector reproduction error"):
        m = re.search("^" + re.escape(label) + " " + _NUM + "$", stdout, re.M)
        value = float(m.group(1)) if m else math.nan
        if not value < AUDIT_TOL:  # also rejects a missing line (nan)
            problems.append(f"{label} {value} not below {AUDIT_TOL}")
    return problems


def check_fit(rc, stdout, reference, geometry_seed):
    """Exit 0, dim equal to the topology formula, error equal to the seed's."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    m = re.search(r"^dim (\d+)$", stdout, re.M)
    dim = int(m.group(1)) if m else None
    if dim != grid_dimension():
        problems.append(f"dim {dim} != {grid_dimension()}")
    m = re.search(r"^rel_l2_error (\S+)$", stdout, re.M)
    err = m.group(1) if m else None
    want = reference["fit-grid"]["rel_l2_error"][geometry_seed]
    if err != want:
        problems.append(f"rel_l2_error {err} != {want} (geometry seed {geometry_seed})")
    return problems


class Workload:
    """CLI arguments, input preparation and checker of one workload."""

    def __init__(self, name, why, args, checker, needs_geometry=False):
        self.name = name
        self.why = why
        self._args = args
        self._checker = checker
        self.needs_geometry = needs_geometry

    def geometry_seed(self, seed):
        return seed % GEOMETRY_SEEDS

    def prepare(self, seed, tmpdir):
        """Write any input file and return the CLI arguments."""
        if not self.needs_geometry:
            return list(self._args)
        path = os.path.join(tmpdir, f"grid_{self.geometry_seed(seed)}.txt")
        write_grid_geometry(path, self.geometry_seed(seed))
        return list(self._args) + ["--geometry", path]

    def check(self, rc, stdout, reference, seed):
        if self.needs_geometry:
            return self._checker(rc, stdout, reference, self.geometry_seed(seed))
        return self._checker(rc, stdout, reference)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge-five",
            "headline run: grows n to 32, so it carries refine, assembly, both solver branches and error integration",
            ["converge", "--builtin", "five_patch_bilinear", "--levels", "4"],
            check_converge,
        ),
        Workload(
            "audit-three",
            "dual basis and audit layer alone: no assembly or solve, three-quarters biorthogonality_matrix",
            ["space", "audit", "--builtin", "three_patch_bilinear"],
            check_audit,
        ),
        Workload(
            "fit-grid",
            "topology-heavy file input: 36 jittered patches, 180 distinct gluing fits, load and validation",
            ["fit"],
            check_fit,
            needs_geometry=True,
        ),
    )
}
