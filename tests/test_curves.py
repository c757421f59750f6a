import re

import numpy as np
import pytest

import casigrat.cli
import casigrat.pipeline
from casigrat import (ForceCurve, FrequencyShiftSample, fit_calibration,
                      get_material, load_tabulated_epsilon, parse_quantity,
                      read_frequency_shift_samples, series_gradient_model,
                      synthesize_frequency_shifts,
                      write_frequency_shift_samples)
from casigrat.cli import main
from casigrat.curves import read_table
from casigrat.materials import MaterialDataError


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


# -- every table the package writes reads back through curves.read_table --


def written(values):
    """``values`` as the table writer stores them (``%.12e``)."""
    return [float(f"{v:.12e}") for v in values]


def test_curve_csv_reads_back_through_read_table(tmp_path):
    curve = sample_curve()
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    meta, (z_nm, values) = read_table(path, ("z_nm", "value"))
    assert meta == {"label": "demo", "unit": "Pa", "inputs": "abc123"}
    assert z_nm.tolist() == written(curve.z * 1e9)
    assert values.tolist() == written(curve.values)


def test_materials_table_reads_back(tmp_path):
    out = tmp_path / "eps.csv"
    assert main(["materials", "--name", "silicon_doped",
                 "--xi", "2e14:1e15:2e14", "--out", str(out)]) == 0
    meta, (xi, eps) = read_table(out, ("xi_rad_per_s", "epsilon"))
    grid = np.array([2e14, 4e14, 6e14, 8e14, 1e15])
    assert meta == {"label": "relative permittivity of silicon_doped at "
                             "imaginary frequency"}
    np.testing.assert_allclose(xi, grid, rtol=1e-12)
    assert eps.tolist() == written(get_material("silicon_doped").epsilon(xi))


def test_convergence_sweep_table_reads_back(tmp_path, monkeypatch):
    rows = [(2, np.array([-1.2345678901234567e-3, -2.5e-4])),
            (4, np.array([-1.2e-3, -2.4e-4]))]
    monkeypatch.setattr(casigrat.cli, "convergence_sweep",
                        lambda *args, **kwargs: rows)
    monkeypatch.setitem(casigrat.pipeline._TASK_FNS, "rho_ratio",
                        lambda config: {})
    cfg = tmp_path / "rho.cfg"
    cfg.write_text("[pipeline]\ntask = rho_ratio\n[grid]\nz = 100:250:150nm\n")
    assert main(["grating", "--config", str(cfg), "--sweep-N", "2:4:2",
                 "--out", str(tmp_path)]) == 0
    meta, (orders, z_nm, pressure) = read_table(
        tmp_path / "rho_ratio_convergence.csv",
        ("orders", "z_nm", "pressure_pa"))
    assert meta["label"] == "pressure vs diffraction-order cutoff"
    assert orders.tolist() == [2.0, 2.0, 4.0, 4.0]
    assert z_nm.tolist() == [100.0, 250.0, 100.0, 250.0]
    assert pressure.tolist() == written(np.concatenate([p for _, p in rows]))


def test_fit_table_reads_back(tmp_path):
    model = series_gradient_model(parse_quantity("50um", "length"))
    samples = synthesize_frequency_shifts(
        -614.0, 800e-9, model, voltages=(0.245, 0.300),
        z_piezo=np.linspace(0.0, 600e-9, 13))
    shifts, out = tmp_path / "shifts.csv", tmp_path / "fit.csv"
    write_frequency_shift_samples(shifts, samples)
    assert main(["calibrate", "--input", str(shifts), "--radius", "50um",
                 "--out", str(out)]) == 0
    fit = fit_calibration(read_frequency_shift_samples(shifts), model)
    meta, (values, sigmas) = read_table(out, ("value", "sigma"))
    assert meta == {"model": "series"}
    assert values.tolist() == written([fit.coeff, fit.z0, fit.rss])
    assert sigmas.tolist() == written([fit.coeff_sigma, fit.z0_sigma, 0.0])


def test_frequency_shift_table_reads_back_exactly(tmp_path):
    samples = [FrequencyShiftSample(1e-7 / 3.0, 1e-4, 0.3, -1.0 / 7.0),
               FrequencyShiftSample(2e-7, 0.0, -0.245, 2.5e-3)]
    path = tmp_path / "shifts.csv"
    write_frequency_shift_samples(path, samples)
    assert b"\r" not in path.read_bytes()
    meta, columns = read_table(path, ("z_piezo_nm", "theta_rad", "V_volt",
                                      "delta_f_hz"))
    assert meta == {}
    assert columns.T.tolist() == [[s.z_piezo * 1e9, s.theta, s.volt,
                                   s.delta_f] for s in samples]
    # the file holds nanometers: z_piezo comes back as (z_piezo * 1e9) * 1e-9
    assert read_frequency_shift_samples(path) == [
        FrequencyShiftSample(s.z_piezo * 1e9 * 1e-9, s.theta, s.volt,
                             s.delta_f) for s in samples]


def test_columns_are_found_by_name(tmp_path):
    path = tmp_path / "shifts.csv"
    path.write_text("# rig: b\nV_volt, note ,delta_f_hz,theta_rad,z_piezo_nm\n"
                    "0.3,x,-1.5,0,100\n\n0.4,y,-2.5,1e-3,200\n")
    assert read_frequency_shift_samples(path) == [
        FrequencyShiftSample(100 * 1e-9, 0.0, 0.3, -1.5),
        FrequencyShiftSample(200 * 1e-9, 1e-3, 0.4, -2.5)]
    meta, (delta_f,) = read_table(path, ("delta_f_hz",))
    assert meta == {"rig": "b"} and delta_f.tolist() == [-1.5, -2.5]


# (reader, error type, header, one good row, field separator)
READERS = {
    "curve": (ForceCurve.from_csv, ValueError, "z_nm,value\n", "100,1e-3",
              ","),
    "shifts": (read_frequency_shift_samples, ValueError,
               "z_piezo_nm,theta_rad,V_volt,delta_f_hz\n", "100,0,0.3,-1",
               ","),
    "epsilon": (load_tabulated_epsilon, MaterialDataError, "", "1e14 5.0",
                " "),
}


def bad_row(good: str, sep: str, case: str) -> str:
    fields = good.split(sep)
    return sep.join({"short": fields[:-1], "long": fields + ["7"],
                     "word": fields[:-1] + ["abc"],
                     "nan": fields[:-1] + ["nan"],
                     "inf": ["inf"] + fields[1:]}[case])


@pytest.mark.parametrize("case", ["short", "long", "word", "nan", "inf"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_bad_row_names_its_line(tmp_path, reader, case):
    read, error, header, good, sep = READERS[reader]
    path = tmp_path / f"{reader}_{case}.txt"
    path.write_text(f"# a comment\n{header}{good}\n\n"
                    f"{bad_row(good, sep, case)}\n{good}\n")
    line = 5 if header else 4  # after a comment, a good row and a blank
    with pytest.raises(error, match=re.escape(f"{path}:{line}: ")):
        read(path)
