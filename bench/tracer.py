"""Span recorder that wraps argyris callables from outside the package.

Each layer of the library is a list of (module, attribute) pairs. A wrapper
is installed on every attribute a caller resolves at call time, so a name
imported into several modules (``fit_asg1`` lives in ``gluing``, ``space``
and ``cli``) is wrapped in each of them. A pair that does not exist is
recorded as absent and skipped, so a later rename or removal shows up as a
layer with zero calls instead of an error.

Spans are kept in memory as (layer, start, end, parent index) tuples and
reduced to per-layer self times at the end; counts are taken at the same
boundaries.
"""

import functools
import importlib
import time

# layer -> [(module, attribute)]; "Class.method" attributes wrap a method
LAYERS = {
    "multipatch.geometry": [
        ("argyris.cli", "builtin_geometry"),
        ("argyris.cli", "load_geometry"),
        ("argyris.geometries", "builtin_geometry"),
        ("argyris.multipatch", "load_geometry"),
    ],
    "multipatch.refine": [
        ("argyris.fit", "refine"),
        ("argyris.multipatch", "refine"),
    ],
    "gluing.fit": [
        ("argyris.cli", "fit_asg1"),
        ("argyris.space", "fit_asg1"),
        ("argyris.gluing", "fit_asg1"),
    ],
    "bspline.represent_exactly": [
        ("argyris.space", "represent_exactly"),
        ("argyris.bspline", "represent_exactly"),
    ],
    "space.build": [("argyris.space", "ArgyrisSpace.__init__")],
    "space.patch": [("argyris.space", "ArgyrisSpace.build_patch_interior")],
    "space.edge": [("argyris.space", "ArgyrisSpace.build_edge_functions")],
    "space.vertex": [("argyris.space", "ArgyrisSpace.build_vertex_functions")],
    "fit.mass": [("argyris.fit", "assemble_mass")],
    "fit.rhs": [("argyris.fit", "assemble_rhs")],
    "fit.l2_fit": [("argyris.fit", "l2_fit")],
    "duality.biorthogonality": [("argyris.duality", "biorthogonality_matrix")],
    "duality.project": [("argyris.duality", "project")],
    "fit.smoothness": [("argyris.fit", "smoothness_report")],
}


class Recorder:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self._open = []  # indices of spans not yet closed
        self.calls = {layer: 0 for layer in LAYERS}
        self.dims = []  # dim of every space built, in order
        self.mass_nnz = []  # nnz of every mass matrix, in order
        self.solve_s = 0.0  # sum of FitResult.solve_seconds
        self.absent = []

    def install(self):
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                owner, name = _resolve(modname, attr)
                if owner is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                setattr(owner, name, self._wrap(layer, getattr(owner, name)))

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [layer, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(idx)
            self.calls[layer] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self._observe(layer, args, out)
            return out

        return traced

    def _observe(self, layer, args, out):
        if layer == "space.build":
            self.dims.append(int(getattr(args[0], "dim", 0)))
        elif layer == "fit.mass":
            self.mass_nnz.append(int(getattr(out, "nnz", 0)))
        elif layer == "fit.l2_fit":
            self.solve_s += float(getattr(out, "solve_seconds", 0.0))

    def summary(self, wall_start, wall_end):
        """Per-layer self times, counts and coverage of [wall_start, wall_end]."""
        self_s = {layer: 0.0 for layer in LAYERS}
        child_s = [0.0] * len(self.spans)
        for layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        covered = 0.0
        for k, (layer, t0, t1, parent) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child_s[k]
            if parent < 0:
                covered += t1 - t0
        wall = wall_end - wall_start
        return {
            "self_s": self_s,
            "calls": dict(self.calls),
            "dims": list(self.dims),
            "mass_nnz": list(self.mass_nnz),
            "solve_s": self.solve_s,
            "covered_s": covered,
            "wall_s": wall,
            "spans": len(self.spans),
            "absent": list(self.absent),
        }


def _resolve(modname, attr):
    """(object holding the attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None, None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    # only attributes defined on the owner itself; never shadow an inherited one
    if name not in vars(owner):
        return None, None
    return owner, name
