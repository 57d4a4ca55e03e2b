import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import argyris
from argyris.cli import main
from argyris.multipatch import edge_frames, rotate_net


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_space_dim_three_patch(capsys):
    code, out, _ = run(capsys, "space", "dim", "--builtin", "three_patch_bilinear", "--n", "4")
    assert code == 0
    assert out == "dim 177 (patch 108 / edge 27 / vertex 42)\n"


def test_space_dim_five_patch_fine(capsys):
    code, out, _ = run(
        capsys, "space", "dim", "--builtin", "five_patch_bilinear", "--n", "32"
    )
    assert code == 0
    assert out.startswith("dim 20171 ")


def test_gluing_diagnosis_negative_control(capsys):
    code, out, _ = run(capsys, "gluing", "--builtin", "two_patch_generic_non_asg1")
    assert code == 0  # diagnosis is success
    assert "NOT AS-G1" in out
    assert "residual" in out


def test_gluing_accepts_bilinear(capsys):
    code, out, _ = run(capsys, "gluing", "--builtin", "three_patch_bilinear")
    assert code == 0
    assert out.count("AS-G1") == 3
    assert "NOT" not in out


def test_geom_check(capsys):
    code, out, _ = run(capsys, "geom", "check", "--builtin", "lshape_bilinear")
    assert code == 0
    assert "patches 3" in out
    assert "conformity OK" in out


def test_geom_check_samples_the_validation_grid(capsys):
    # geom check prints the minimum Jacobian over the grid that validation
    # samples (at most 101 per direction); a 10n + 1 grid of its own took
    # 173 MiB at n = 128 and grew like n^2
    import tracemalloc

    tracemalloc.start()
    code, out, _ = run(capsys, "geom", "check", "--builtin", "two_patch_bilinear", "--n", "128")
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    assert code == 0
    assert "patch 1 min_jacobian" in out
    assert peak <= 10.0


def test_knot_multiplicity_above_p_plus_one_exits_one(capsys):
    code, out, err = run(capsys, "geom", "check", "--builtin", "two_patch_bilinear", "--r", "-3")
    assert code == 1
    assert "conformity OK" not in out
    assert "got r=-3" in err


def test_unknown_flag_exits_one(capsys):
    assert main(["space", "dim", "--builtin", "no_such_geometry"]) == 1
    assert main(["frobnicate"]) == 1


def test_missing_geometry_file_exits_one(capsys):
    code, _, err = run(capsys, "geom", "check", "--geometry", "/no/such/file.txt")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["geom", "check", "--geometry", "{dir}"],
        ["sample", "--builtin", "two_patch_bilinear", "--coeffs", "{dir}",
         "--output", "{dir}/x"],
        ["fit", "--builtin", "two_patch_bilinear", "--output", "{dir}"],
    ],
)
def test_directory_paths_exit_one(capsys, tmp_path, argv):
    # each used to end in a bare IsADirectoryError traceback
    code, _, err = run(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert code == 1
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]


def test_malformed_geometry_file_exits_one(capsys, tmp_path):
    from argyris import UnivariateSpace, builtin_geometry, save_geometry

    path = tmp_path / "geo.txt"
    save_geometry(builtin_geometry("two_patch_bilinear", UnivariateSpace(3, 1, 4)), path)
    text = path.read_text()
    for bad in (
        text.replace("edge 0 interface", "edge x interface"),
        text.replace("edge 1 boundary", "edge 0 boundary"),
    ):
        path.write_text(bad)
        code, _, err = run(capsys, "geom", "check", "--geometry", str(path))
        assert code == 1
        assert "error" in err


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "gluing", "--builtin", "three_patch_bilinear")
    _, out2, _ = run(capsys, "gluing", "--builtin", "three_patch_bilinear")
    assert out1 == out2


def test_fit_command(capsys):
    code, out, err = run(capsys, "fit", "--builtin", "two_patch_bilinear", "--n", "4")
    assert code == 0
    assert "rel_l2_error" in out
    assert "h 1/4" in out
    # timings and CG iterations stay off the data stream
    assert "solve" in err and "solve" not in out
    assert " error " in err and " cg " in err and " cg " not in out
    assert " cond " in err and " cond " not in out


def test_converge_five_patch_stdout_is_pinned(capsys):
    # the headline study's table, byte for byte: a change that moves a
    # printed dimension, error or rate digit shows here
    code, out, _ = run(
        capsys, "converge", "--builtin", "five_patch_bilinear", "--levels", "4"
    )
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "converge_five_patch.txt").read_text()


def test_converge_command(capsys, tmp_path):
    csv = tmp_path / "table.csv"
    code, out, err = run(
        capsys,
        "converge",
        "--builtin",
        "three_patch_bilinear",
        "--levels",
        "3",
        "--csv",
        str(csv),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert len(err.splitlines()) == 3  # one timing line per level
    assert all(" error " in ln and " cg " in ln for ln in err.splitlines())
    assert all(" cond " in ln for ln in err.splitlines())
    last = lines[-1].split()
    assert 3.7 <= float(last[-1]) <= 4.3
    body = csv.read_text().splitlines()
    assert body[0] == "h,dim,rel_l2_error,ecr"
    assert len(body) == 4


def test_sample_command(capsys, tmp_path):
    prefix = tmp_path / "field"
    code, out, _ = run(
        capsys,
        "sample",
        "--builtin",
        "two_patch_bilinear",
        "--n",
        "4",
        "--basis",
        "0",
        "--grid",
        "5",
        "--derivs",
        "--output",
        str(prefix),
    )
    assert code == 0
    for i in range(2):
        path = tmp_path / f"field_patch{i}.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "xi1,xi2,x1,x2,value,dx1,dx2"
        assert len(lines) == 1 + 25
    data = np.loadtxt(tmp_path / "field_patch0.csv", delimiter=",", skiprows=1)
    assert data.shape == (25, 7)


def test_sample_coeffs_length_validation(capsys, tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("1.0\n2.0\n")
    code, _, err = run(
        capsys,
        "sample",
        "--builtin",
        "two_patch_bilinear",
        "--coeffs",
        str(f),
        "--output",
        str(tmp_path / "x"),
    )
    assert code == 1
    assert "entries" in err


def test_space_audit_passes(capsys):
    code, out, _ = run(
        capsys,
        "space",
        "audit",
        "--builtin",
        "two_patch_bilinear",
        "--n",
        "4",
    )
    assert code == 0
    assert "audit PASS" in out


def test_space_audit_five_patches_at_n16(capsys):
    # dim 4971: the functionals applied to a dense identity coefficient
    # block would take about 8 s and 0.9 GB here
    code, out, _ = run(capsys, "space", "audit", "--builtin", "five_patch_bilinear",
                       "--n", "16")
    assert code == 0
    labels = [line.rsplit(" ", 1)[0] for line in out.splitlines()]
    assert labels == [
        "biorthogonality max |M - I|",
        "projector reproduction error",
        "max C1 interface jump",
        "max C2 vertex jump",
        "audit",
    ]
    assert out.endswith("audit PASS\n")


def test_space_audit_reads_a_missing_diagonal_as_one(capsys, monkeypatch):
    # |M - I| comes from the stored entries; an unstored diagonal is a 0
    import argyris.duality
    from argyris.space import CSRMatrix

    full = argyris.duality.biorthogonality_matrix

    def without_first_diagonal(space):
        M = full(space)
        keep = (M.row_ids != 0) | (M.indices != 0)
        return CSRMatrix.from_triplets(M.row_ids[keep], M.indices[keep], M.data[keep], M.shape)

    monkeypatch.setattr(argyris.duality, "biorthogonality_matrix", without_first_diagonal)
    code, out, _ = run(capsys, "space", "audit", "--builtin", "two_patch_bilinear")
    assert code == 2
    assert "biorthogonality max |M - I| 1.000e+00\n" in out
    assert out.endswith("audit FAIL\n")


@pytest.mark.parametrize("command, knob", [
    *((c, ["--tol", "0.042"]) for c in ("geom check", "gluing", "space dim", "space audit",
                                        "fit", "converge", "sample")),
    ("space audit", ["--samples", "20"]),
])
def test_removed_knobs_are_unknown_options(capsys, tmp_path, command, knob):
    # the AS-G1 tolerance and the audit's sample count are fixed by the
    # library: a loose tolerance built a space that is not C1 (0.042 gives
    # dim 129 on two_patch_generic_non_asg1, C1 jump 0.43), a fixed count let
    # broken columns fall between samples, and both needed range checks
    extra = ["--basis", "0", "--output", str(tmp_path / "x")] if command == "sample" else []
    code, out, err = run(capsys, *command.split(), "--builtin", "two_patch_generic_non_asg1",
                         *extra, *knob)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {' '.join(knob)}" in err
    assert not list(tmp_path.iterdir())


def test_sample_unreadable_coeffs_exits_one(capsys, tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("abc\n")
    code, _, err = run(
        capsys,
        "sample", "--builtin", "two_patch_bilinear", "--coeffs", str(f),
        "--output", str(tmp_path / "x"),
    )
    assert code == 1
    assert "coefficient file" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_sample_non_finite_coeffs_exits_one(capsys, tmp_path, recwarn, bad):
    # a NaN entry used to exit 0 and write nan samples, an inf one with a
    # RuntimeWarning besides
    dim = argyris.ArgyrisSpace(argyris.builtin_geometry(
        "two_patch_bilinear", argyris.UnivariateSpace(3, 1, 4))).dim
    values = np.cos(np.arange(dim)).astype(str)
    values[7] = bad
    f = tmp_path / "c.txt"
    f.write_text("\n".join(values) + "\n")
    code, out, err = run(
        capsys,
        "sample", "--builtin", "two_patch_bilinear", "--coeffs", str(f),
        "--output", str(tmp_path / "x"),
    )
    assert code == 1 and out == ""
    assert str(f) in err and "non-finite coefficient 7" in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_fit_zero_quadrature_exits_one(capsys):
    # --quadrature 0 used to fall back to the default p+2 points silently
    code, out, err = run(
        capsys, "fit", "--builtin", "two_patch_bilinear", "--quadrature", "0"
    )
    assert code == 1
    assert out == ""
    assert "quadrature" in err


def test_singular_mass_exits_one_without_runtime_warning():
    # one Gauss point per direction makes the mass singular; the failed solve
    # used to warn on the square root of a negative beta, and the rule is now
    # refused before any solve
    src = str(Path(argyris.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "argyris.cli",
         "fit", "--builtin", "two_patch_bilinear", "--quadrature", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error: quadrature")


@pytest.mark.parametrize("builtin", ["two_patch_bilinear", "five_patch_bilinear"])
def test_fit_quadrature_too_coarse_for_the_space_exits_one(capsys, builtin):
    # two Gauss points per element do not determine the bicubic C1 space on
    # four elements, so the mass is singular; the fit used to print a wrong
    # rel_l2_error with exit 0
    code, out, err = run(capsys, "fit", "--builtin", builtin, "--quadrature", "2")
    assert code == 1
    assert out == ""
    assert "quadrature" in err


VALIDATION_ERRORS = ("InvalidConfigError", "TopologyError", "ConformityError",
                     "GeometryFormatError", "NotInSpaceError", "NotASG1Error")
NUMERICAL_ERRORS = ("NumericalError", "DegenerateGluingError", "DomainError")


@pytest.mark.parametrize(
    "name,expected",
    [(n, 1) for n in VALIDATION_ERRORS] + [(n, 2) for n in NUMERICAL_ERRORS],
)
def test_exit_code_follows_the_exception_type(capsys, monkeypatch, name, expected):
    from argyris import cli, errors

    exc = getattr(errors, name)
    assert issubclass(exc, errors.ValidationError) == (expected == 1)

    def fail(args):
        raise exc("injected")

    monkeypatch.setattr(cli, "_cmd_space_dim", fail)
    code, out, err = run(capsys, "space", "dim", "--builtin", "two_patch_bilinear")
    assert code == expected
    assert out == ""
    prefix = "error: " if expected == 1 else "numerical error: "
    assert err == prefix + "injected\n"


def test_every_library_error_has_a_listed_exit_code():
    from argyris import errors

    found = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.ArgyrisError)}
    assert found == {"ArgyrisError", "ValidationError",
                     *VALIDATION_ERRORS, *NUMERICAL_ERRORS}


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_converge_nonpositive_levels_exits_one(capsys, levels):
    # used to print an empty table with exit 0
    code, out, err = run(
        capsys, "converge", "--builtin", "two_patch_bilinear", "--levels", levels
    )
    assert code == 1
    assert out == ""
    assert "level" in err


@pytest.mark.parametrize("grid", ["-3", "0"])
def test_sample_nonpositive_grid_exits_one(capsys, tmp_path, grid):
    # -3 used to raise a numpy ValueError, 0 to write header-only files
    code, _, err = run(
        capsys,
        "sample", "--builtin", "two_patch_bilinear", "--basis", "0",
        "--grid", grid, "--output", str(tmp_path / "x"),
    )
    assert code == 1
    assert "--grid" in err
    assert not list(tmp_path.iterdir())


def test_huge_quadrature_order_exits_one(capsys):
    # used to escape as a MemoryError from inside leggauss
    code, out, err = run(
        capsys, "fit", "--builtin", "two_patch_bilinear", "--quadrature", "1000000000"
    )
    assert code == 1
    assert out == ""
    assert "quadrature order" in err


def test_huge_sample_grid_exits_one(capsys, tmp_path):
    # used to ask numpy for 7.28 TiB and escape as a MemoryError
    code, out, err = run(
        capsys, "sample", "--builtin", "two_patch_bilinear", "--basis", "0",
        "--grid", "1000000", "--output", str(tmp_path / "x"),
    )
    assert code == 1
    assert out == ""
    assert "--grid" in err
    assert not list(tmp_path.iterdir())


LAYER_ONE_BUILTINS = ["two_patch_bilinear", "three_patch_bilinear", "five_patch_bilinear",
                      "lshape_bilinear", "two_patch_curved_asg1"]


@pytest.mark.parametrize(
    "name, along",
    [pytest.param(n, False, id=n) for n in LAYER_ONE_BUILTINS]
    + [pytest.param(n, True, id=f"{n}-along") for n in LAYER_ONE_BUILTINS],
)
def test_layer_one_move_exit_codes(capsys, tmp_path, name, along):
    # a move of the control point in layer 1 at the middle of the first
    # interface's first side changes the transversal derivative along it: the
    # interface is no longer AS-G1, which is a validation failure (exit 1)
    # for the commands that build the space. A move along the interface
    # keeps the alphas and breaks only beta; it used to pass the alpha test
    # and fail the beta split (exit 2, "alpha1 and alpha2 share a root")
    mp = argyris.builtin_geometry(name)
    (i, k), _ = edge_frames(mp.interfaces()[0])
    patches = list(mp.patches)
    net = patches[i].net.copy()
    view, j = rotate_net(net, k), mp.config.N // 2  # the turned view writes into net
    t = view[0, j + 1] - view[0, j - 1]
    view[1, j] += 0.05 * t / np.linalg.norm(t) if along else 0.05
    patches[i] = argyris.Patch(mp.config, net)
    path = tmp_path / "moved.txt"
    argyris.save_geometry(argyris.MultiPatch(mp.config, patches, mp.edges, mp.vertices), path)
    for argv in (("space", "audit"), ("fit",)):
        code, out, err = run(capsys, *argv, "--geometry", str(path))
        assert code == 1
        assert out == ""
        assert "not analysis-suitable" in err
    code, out, _ = run(capsys, "gluing", "--geometry", str(path))
    assert code == 0
    assert "NOT AS-G1" in out
    code, out, _ = run(capsys, "space", "dim", "--geometry", str(path))
    assert code == 0
