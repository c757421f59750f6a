
import numpy as np
import pytest

from casigrat.quadrature import (
    QuadratureSpec,
    asinh_gauss_legendre,
    decay_rule,
    gauss_legendre,
)


def test_gauss_legendre_polynomial_exactness():
    # n-point GL is exact through degree 2n-1.
    x, w = gauss_legendre(0.0, 1.0, 3)
    assert w @ x**5 == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_gauss_legendre_callers_own_their_arrays():
    # the [-1, 1] rule is cached; writing to a returned rule must not
    # reach the cache or the next caller
    x, w = gauss_legendre(0.0, 1.0, 12)
    x[:] = 0.0
    w[:] = 0.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(12)
    x, w = gauss_legendre(0.0, 1.0, 12)
    np.testing.assert_array_equal(x, 0.5 + 0.5 * ref_x)
    np.testing.assert_array_equal(w, 0.5 * ref_w)


def test_decay_rule_gamma_integral():
    # Int kappa^3 exp(-2 kappa z) dkappa = 6 / (2z)^4.
    z = 150e-9
    kappa, w = decay_rule(z, z, 64)
    got = w @ (kappa**3 * np.exp(-2.0 * kappa * z))
    assert got == pytest.approx(6.0 / (2.0 * z) ** 4, rel=1e-10)


def test_asinh_rule_exponential_tail():
    # Int_0^inf exp(-2 k z) dk = 1 / (2 z); the rule's upper cutoff at
    # 45 / (2 z) leaves a tail of exp(-45) ~ 3e-20.
    z = 150e-9
    k, w = asinh_gauss_legendre(1.0 / (2.0 * z), 45.0 / (2.0 * z), 40)
    assert w @ np.exp(-2.0 * k * z) == pytest.approx(1.0 / (2.0 * z),
                                                     rel=1e-12)


def test_asinh_rule_resolves_origin():
    # No lost strip near k = 0: a decaying integrand weighted by k, whose
    # mass sits near the origin, converges with few nodes.
    z = 150e-9
    k, w = asinh_gauss_legendre(1.0 / (2.0 * z), 45.0 / (2.0 * z), 32)
    got = w @ (k * np.exp(-2.0 * k * z))
    assert got == pytest.approx(1.0 / (2.0 * z) ** 2, rel=1e-9)


def test_asinh_rule_interval_validation():
    with pytest.raises(ValueError):
        asinh_gauss_legendre(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        asinh_gauss_legendre(2.0, 1.0, 8)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(xi_nodes=4)
    with pytest.raises(ValueError, match="^xi_nodes must be an integer, "
                                         "got 64.5"):
        QuadratureSpec(64.5, 32)
    with pytest.raises(ValueError, match="^k_nodes must be an integer"):
        QuadratureSpec(64, 32.0)
    assert QuadratureSpec(np.int64(64), np.int32(32)) == QuadratureSpec()
    spec = QuadratureSpec(16, 8)
    assert spec.scaled(2) == QuadratureSpec(32, 16)


def test_interval_validation():
    with pytest.raises(ValueError):
        gauss_legendre(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        decay_rule(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        decay_rule(2.0, 1.0, 8)
