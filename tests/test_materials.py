import numpy as np
import pytest

from casigrat import (
    Drude,
    Tabulated,
    ev_to_rad_per_s,
    get_material,
    intrinsic_silicon_table,
    load_tabulated_epsilon,
)
from casigrat.constants import E_CHARGE, HBAR
from casigrat.materials import MaterialDataError, is_perfect_conductor
from casigrat.planar import fresnel_te_tm


def test_ev_round_trip_12_digits():
    # back from rad/s to eV through hbar omega / e
    back = ev_to_rad_per_s(9.0) * HBAR / E_CHARGE
    assert abs(back - 9.0) / 9.0 < 1e-12


def test_gold_drude_at_plasma_energy(gold):
    # Analytic oracle: eps = 1 + wp^2 / (xi (xi + gamma)) at xi = wp gives
    # 1 + wp / (wp + gamma) with wp = 9 eV, gamma = 0.035 eV.
    xi = ev_to_rad_per_s(9.0)
    expected = 1.0 + 9.0 / (9.0 + 0.035)
    got = gold.epsilon(xi)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.99613, abs=5e-6)


def test_drude_monotone_decreasing_and_above_one(gold):
    xi = np.logspace(12, 18, 200)
    eps = gold.epsilon(xi)
    assert np.all(eps > 1.0)
    assert np.all(np.diff(eps) < 0.0)


def test_drude_rejects_nonpositive_xi(gold):
    with pytest.raises(ValueError):
        gold.epsilon(0.0)
    with pytest.raises(ValueError):
        gold.epsilon(np.array([1e15, -1e14]))
    # NaN fails xi > 0 too; it used to return NaN
    with pytest.raises(ValueError, match="xi must be strictly positive"):
        gold.epsilon(np.nan)
    with pytest.raises(ValueError, match="xi must be strictly positive"):
        gold.epsilon(np.array([1e15, np.nan]))


def test_drude_params_validation():
    with pytest.raises(ValueError):
        Drude(0.0, 1e13)
    with pytest.raises(ValueError):
        Drude(1e16, -1.0)


def test_doped_silicon_carrier_term(silicon):
    # At xi = wp_si the free-carrier addition over the intrinsic background
    # is wp/(wp + gamma) = 1.36e14 / (1.36e14 + 4.75e13).
    xi = 1.36e14
    background = intrinsic_silicon_table().epsilon(xi)
    expected_add = 1.36e14 / (1.36e14 + 4.75e13)
    assert silicon.epsilon(xi) - background == pytest.approx(expected_add, rel=1e-12)


def test_doped_silicon_monotone(silicon):
    xi = np.logspace(12, 18, 300)
    eps = silicon.epsilon(xi)
    assert np.all(eps > 1.0)
    assert np.all(np.diff(eps) < 0.0)


def test_intrinsic_table_exact_at_knots():
    table = intrinsic_silicon_table()
    mid = slice(1, -1, 7)
    got = table.epsilon(table.xi[mid])
    np.testing.assert_allclose(got, table.eps[mid], rtol=1e-14)


def test_table_extrapolation_rules():
    table = Tabulated(np.array([1e14, 1e15, 1e16]), np.array([10.0, 4.0, 1.5]))
    # Held constant below the grid.
    assert table.epsilon(1e12) == pytest.approx(10.0, rel=1e-14)
    # (eps - 1) ~ 1/xi^2 above: doubling xi quarters the excess.
    assert table.epsilon(2e16) - 1.0 == pytest.approx(0.5 / 4.0, rel=1e-12)


def test_table_validation():
    with pytest.raises(MaterialDataError):
        Tabulated(np.array([1e14, 1e13]), np.array([2.0, 2.0]))
    with pytest.raises(MaterialDataError):
        Tabulated(np.array([1e14, 1e15]), np.array([2.0, 0.5]))
    with pytest.raises(MaterialDataError):
        Tabulated(np.array([1e14]), np.array([2.0]))


def test_load_tabulated_round_trip(tmp_path):
    path = tmp_path / "eps.txt"
    path.write_text("# comment line\n1.0e14 5.0\n1.0e15 2.0\n")
    table = load_tabulated_epsilon(path)
    assert table.epsilon(1e14) == pytest.approx(5.0)
    assert table.epsilon(1e15) == pytest.approx(2.0)


def test_load_tabulated_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0e14 5.0\n1.0e15 2.0 junk\n")
    with pytest.raises(MaterialDataError, match="bad.txt:2"):
        load_tabulated_epsilon(path)


def test_tables_compare_and_hash_by_identity():
    a, b = get_material("silicon_doped"), get_material("silicon_doped")
    assert a == a and a != b and a.drude == b.drude
    assert a.intrinsic != b.intrinsic
    assert len({a, b, a, a.intrinsic, b.intrinsic}) == 4


def test_perfect_conductor_is_a_limit_flag(conductor):
    assert is_perfect_conductor(conductor)
    with pytest.raises(ValueError):
        conductor.epsilon(1e15)


def test_registry_contents():
    for name in ("gold_drude", "silicon_doped", "silicon_intrinsic",
                 "conductor_proxy", "perfect_conductor", "vacuum"):
        get_material(name)
    with pytest.raises(KeyError):
        get_material("unobtainium")
    assert get_material("vacuum").epsilon(1e15) == pytest.approx(1.0, abs=1e-15)


def test_conductor_proxy_is_nearly_ideal():
    # The proxy must reflect like an ideal mirror where the force
    # integrand carries weight: at separation z the exp(-2 kappa z)
    # factor concentrates kappa near 1 / (2 z) and suppresses the tail
    # at 10 / (2 z) by exp(-10).
    proxy = get_material("conductor_proxy")
    z = 100e-9
    for xi in (1e13, 1e15):
        r_te, r_tm = fresnel_te_tm(proxy, xi, 0.5 / z)
        assert abs(r_te + 1.0) < 5e-3
        assert abs(r_tm - 1.0) < 5e-3
        r_te_tail, _ = fresnel_te_tm(proxy, xi, 5.0 / z)
        assert abs(r_te_tail + 1.0) < 5e-2
    assert proxy.epsilon(3e15) > 1e5


def test_drude_registry_is_gold():
    gold = get_material("gold_drude")
    assert isinstance(gold, Drude)
    assert gold.plasma_frequency == pytest.approx(ev_to_rad_per_s(9.0))
    assert gold.relaxation_rate == pytest.approx(ev_to_rad_per_s(0.035))


PINNED_XI = (1e11, 3e12, 1e14, 3e15, 1e16, 3e17, 1e18)
PINNED_EPS = {
    "gold_drude": (35094192.175901055, 1109416.1470754396, 12206.83255631444,
                   21.411767966361673, 2.859731594472287, 1.0020769880786546,
                   1.0001869521187734),
    "silicon_doped": (3897.584285711796, 133.9558063421291, 13.121479298844918,
                      10.01665012540919, 4.322817131010431, 1.0402418109035745,
                      1.0354719705371214),
    "silicon_intrinsic": (11.86999999751, 11.869997761271012, 11.867513197150002,
                          10.014627046382666, 4.322633045417, 1.0402416054249974,
                          1.035471952042),
    "conductor_proxy": (14254430799604.436, 170246882178.5607, 227363105.18794948,
                        256334.91765033486, 23079.229581540545, 26.646243212587688,
                        3.30817007145598),
    "vacuum": (1.0,) * 7,
}


@pytest.mark.parametrize("name", sorted(PINNED_EPS))
def test_registry_permittivities_are_pinned(name):
    model = get_material(name)
    as_array = model.epsilon(np.array(PINNED_XI))
    assert isinstance(as_array, np.ndarray) and as_array.shape == (7,)
    assert tuple(as_array) == PINNED_EPS[name]
    as_scalars = tuple(model.epsilon(xi) for xi in PINNED_XI)
    assert all(type(eps) is float for eps in as_scalars)
    assert as_scalars == PINNED_EPS[name]
    as_grid = model.epsilon(np.array(PINNED_XI).reshape(7, 1))
    assert as_grid.shape == (7, 1) and tuple(as_grid[:, 0]) == PINNED_EPS[name]
