"""Design assembly, categorical expansion and CSV ingestion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from signflip import DesignError, build_design, read_csv, warpbreaks


def test_warpbreaks_design_layout():
    table = warpbreaks()
    design = build_design(
        {"wool": table["wool"], "tension": table["tension"]},
        tested=["wool"],
        nuisance=["tension"],
        intercept=True,
    )
    assert design.X.shape == (54, 4)
    assert design.columns == ("(intercept)", "tensionM", "tensionH", "woolB")
    assert design.tested == (3,)
    assert design.nuisance == (0, 1, 2)
    assert_array_equal(design.X[:, 0], np.ones(54))
    # treatment coding, first-appearance reference: wool A, tension L
    assert design.X[:27, 3].sum() == 0 and design.X[27:, 3].sum() == 27
    assert design.X[:, 1].sum() == 18 and design.X[:, 2].sum() == 18
    assert_allclose(design.offset, 0.0)


def test_dummy_names_resolve_directly():
    table = warpbreaks()
    a = build_design(
        {"wool": table["wool"], "tension": table["tension"]},
        tested=["woolB"],
        nuisance=["tensionM", "tensionH"],
        intercept=True,
    )
    b = build_design(
        {"wool": table["wool"], "tension": table["tension"]},
        tested=["wool"],
        nuisance=["tension"],
        intercept=True,
    )
    assert a.columns == b.columns
    assert_array_equal(a.X, b.X)


def test_no_nuisance_no_intercept_offset_folds_null_value():
    x = np.array([1.0, 2.0, -1.0, 0.5])
    design = build_design({"x": x}, tested=["x"], intercept=False, null_value=[0.7])
    assert design.X.shape == (4, 1)
    assert design.nuisance == ()
    assert_allclose(design.fitting_offset, 0.7 * x)
    assert_allclose(design.offset, 0.0)


def test_collinear_nuisance_rejected():
    rng = np.random.default_rng(0)
    z = rng.normal(size=10)
    with pytest.raises(DesignError, match="rank deficient"):
        build_design(
            {"x": rng.normal(size=10), "z1": z, "z2": 2.0 * z},
            tested=["x"],
            nuisance=["z1", "z2"],
            intercept=False,
        )


def test_unknown_and_constant_columns_rejected():
    table = {"x": np.arange(5.0), "c": np.ones(5)}
    with pytest.raises(DesignError, match="unknown column"):
        build_design(table, tested=["nope"])
    with pytest.raises(DesignError, match="constant"):
        build_design(table, tested=["c"])
    with pytest.raises(DesignError, match="tested and nuisance"):
        build_design(table, tested=["x"], nuisance=["x"])
    with pytest.raises(DesignError, match="no rows"):
        build_design({"x": np.zeros(0)}, tested=["x"])


def test_tested_and_nuisance_partition_columns():
    rng = np.random.default_rng(1)
    table = {"a": rng.normal(size=8), "b": rng.normal(size=8), "g": np.repeat(["u", "v"], 4)}
    design = build_design(table, tested=["a", "b"], nuisance=["g"], intercept=True)
    assert sorted(design.tested + design.nuisance) == list(range(design.k))
    assert design.d == 2
    assert design.columns[-2:] == ("a", "b")


def test_explicit_offset_is_kept():
    x = np.array([0.0, 1.0, 2.0])
    off = np.array([0.5, -0.5, 1.0])
    design = build_design({"x": x}, tested=["x"], intercept=False, offset=off,
                          null_value=[2.0])
    assert_allclose(design.fitting_offset, off + 2.0 * x)


def test_read_csv_types_and_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,g,x\n1,a,0.5\n2,b,1.25\n0,a,-3\n", encoding="utf-8")
    table = read_csv(path)
    assert_allclose(table["y"], [1.0, 2.0, 0.0])
    assert_allclose(table["x"], [0.5, 1.25, -3.0])
    assert table["g"].tolist() == ["a", "b", "a"]


def test_read_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(DesignError, match="ragged"):
        read_csv(path)


def test_read_csv_rejects_unreadable_files(tmp_path):
    with pytest.raises(DesignError, match="cannot read"):
        read_csv(tmp_path / "missing.csv")
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,b\n1,\xe9\n".encode("latin-1"))
    with pytest.raises(DesignError, match="cannot read"):
        read_csv(path)


@pytest.mark.parametrize("body, column, line", [
    ("1,a,0.5\n2,b,\n", "x", 3),      # numeric column
    ("1,a,0.5\n2, ,1\n", "g", 3),     # categorical column, blank after strip
    ("\n1,a,0.5\n,b,1\n", "y", 4),   # line count includes a skipped blank row
], ids=["numeric", "categorical", "after-blank-row"])
def test_read_csv_rejects_empty_cells(tmp_path, body, column, line):
    path = tmp_path / "blank.csv"
    path.write_text("y,g,x\n" + body, encoding="utf-8")
    with pytest.raises(DesignError, match=f"empty cell in column '{column}' on line {line}"):
        read_csv(path)


def test_null_value_length_checked():
    x = np.arange(6.0)
    with pytest.raises(DesignError, match="null_value"):
        build_design({"x": x}, tested=["x"], null_value=[0.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_covariates_and_offset_rejected(bad):
    rng = np.random.default_rng(3)
    x, z = rng.normal(size=12), rng.normal(size=12)
    poisoned = x.copy()
    poisoned[4] = bad
    with pytest.raises(DesignError, match="NaN or infinite"):
        build_design({"x": poisoned, "z": z}, tested=["x"], nuisance=["z"])
    with pytest.raises(DesignError, match="NaN or infinite"):
        build_design({"x": z, "z": poisoned}, tested=["x"], nuisance=["z"])
    with pytest.raises(DesignError, match="NaN or infinite"):
        build_design({"x": x}, tested=["x"], offset=poisoned)
    with pytest.raises(DesignError, match="NaN or infinite"):
        build_design({"x": x}, tested=["x"], null_value=[bad])
