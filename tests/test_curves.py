import numpy as np
import pytest

from casigrat import ForceCurve


def sample_curve():
    z = np.array([100e-9, 200e-9, 300e-9])
    v = np.array([-1.5, -0.25, -0.07])
    return ForceCurve(z, v, unit="Pa", label="demo", metadata={"inputs": "abc123"})


def test_csv_round_trip(tmp_path):
    curve = sample_curve()
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    back = ForceCurve.from_csv(path)
    np.testing.assert_allclose(back.z, curve.z, rtol=1e-12)
    np.testing.assert_allclose(back.values, curve.values, rtol=1e-12)
    assert back.unit == "Pa"
    assert back.label == "demo"
    assert back.metadata["inputs"] == "abc123"


def test_csv_rewrite_is_byte_identical(tmp_path):
    curve = sample_curve()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    curve.to_csv(a)
    curve.to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_header_format():
    text = sample_curve().to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "# label: demo"
    assert lines[1] == "# unit: Pa"
    assert "z_nm,value" in lines
    data = [l for l in lines if not l.startswith("#") and "," in l and "z_nm" not in l]
    assert data[0].split(",")[0] == f"{100.0:.12e}"


def test_validation():
    with pytest.raises(ValueError):
        ForceCurve(np.array([2e-7, 1e-7]), np.array([1.0, 2.0]), unit="Pa")
    with pytest.raises(ValueError):
        ForceCurve(np.array([1e-7]), np.array([1.0, 2.0]), unit="Pa")


def test_malformed_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z_nm,value\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        ForceCurve.from_csv(path)


def test_non_numeric_row_names_its_line(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("# unit: N/m\nz_nm,value\n100,1e-3\n150,abc\n")
    with pytest.raises(ValueError, match="words.csv:4: could not convert"):
        ForceCurve.from_csv(path)
