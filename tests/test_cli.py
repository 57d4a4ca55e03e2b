import numpy as np
import pytest

from argyris.cli import main


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
    from argyris import SpaceConfig, builtin_geometry, save_geometry

    path = tmp_path / "geo.txt"
    save_geometry(builtin_geometry("two_patch_bilinear", SpaceConfig(3, 1, 4)), path)
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
        "--samples",
        "40",
    )
    assert code == 0
    assert "audit PASS" in out


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_one(capsys, tol):
    # a NaN tolerance used to turn every verdict into NOT AS-G1 with exit 0
    code, out, err = run(
        capsys, "gluing", "--builtin", "two_patch_bilinear", "--tol", tol
    )
    assert code == 1
    assert out == ""
    assert "--tol" in err


def test_space_audit_zero_samples_exits_one(capsys):
    code, _, err = run(
        capsys,
        "space", "audit", "--builtin", "two_patch_bilinear", "--samples", "0",
    )
    assert code == 1
    assert "sample" in err


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


def test_fit_zero_quadrature_exits_one(capsys):
    # --quadrature 0 used to fall back to the default p+2 points silently
    code, out, err = run(
        capsys, "fit", "--builtin", "two_patch_bilinear", "--quadrature", "0"
    )
    assert code == 1
    assert out == ""
    assert "quadrature" in err


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
