import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lamelab import (
    check_identities,
    eisenstein,
    make_context,
    sigma_w,
    taylor_data,
    theta1,
    weierstrass,
    wp_inverse,
    zeta_w,
)
from lamelab.cli import EXIT_OK, main
from lamelab.elliptic import (
    TorusPoint,
    _theta_block_arrays,
    _wp_zeta,
    lattice_distance,
    lattice_distance_many,
    rs_coordinates,
    wp,
    wp_many,
    wp_prime,
    wp_zeta_many,
    zeta_many,
)
from lamelab.errors import PoleProximity
from lamelab.green import hecke_Z_qseries

from conftest import random_clear_rs, random_tau

TWO_PI_I = 2j * math.pi


def test_context_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        make_context(0.5 - 1.0j)


@pytest.mark.parametrize("tau", [complex(0, math.inf), complex(math.inf, 1.0),
                                 complex(0.3, math.nan), 240j])
def test_context_rejects_nonfinite_or_underflowing_tau(tau):
    with pytest.raises(ValueError):
        make_context(tau)


@pytest.mark.parametrize("terms", [-2, 0])
def test_context_rejects_nonpositive_series_terms(terms):
    with pytest.raises(ValueError):
        make_context(5j, series_terms=terms)


def test_context_truncation_invariant(ctx):
    assert abs(ctx.q) ** (ctx.series_terms**2) < ctx.tol


def test_legendre_relation_random_taus(rng):
    for _ in range(40):
        c = make_context(random_tau(rng))
        assert abs(c.eta1 * c.tau - c.eta2 - TWO_PI_I) < 1e-10


def test_torus_point_coordinates(ctx):
    p = TorusPoint.from_rs(0.3, 0.55, ctx)
    assert abs(p.z - (0.3 + 0.55 * ctx.tau)) < 1e-12
    q = TorusPoint.from_z(p.z + 2 + 3 * ctx.tau, ctx).canonical(ctx)
    assert 0 <= q.r < 1 and 0 <= q.s < 1
    assert abs(q.r - 0.3) < 1e-10 and abs(q.s - 0.55) < 1e-10


def test_theta1_zero_at_origin(ctx):
    assert theta1(0.0, ctx) == 0


def test_theta1_orders(ctx):
    z = 0.31 + 0.2 * ctx.tau
    h = 1e-6
    assert abs((theta1(z + h, ctx) - theta1(z - h, ctx)) / (2 * h) - theta1(z, ctx, 1)) < 1e-6
    for order in (-1, 4):
        with pytest.raises(ValueError):
            theta1(z, ctx, order)


def test_theta1_odd(ctx, rng):
    for _ in range(10):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        assert abs(theta1(-z, ctx) + theta1(z, ctx)) < 1e-12 * (1 + abs(theta1(z, ctx)))


def test_theta1_period_sign_flip(rng):
    c = make_context(1.1j)
    for _ in range(10):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        assert abs(theta1(z + 1, c) + theta1(z, c)) < 1e-11 * (1 + abs(theta1(z, c)))


def test_theta1_truncation_self_consistency(rng):
    tau = 0.17 + 0.9j
    c1 = make_context(tau)
    c2 = make_context(tau, series_terms=2 * c1.series_terms)
    for _ in range(20):
        z = complex(rng.uniform(0, 1), rng.uniform(0, 0.9))
        v1, v2 = theta1(z, c1), theta1(z, c2)
        assert abs(v1 - v2) < 1e-12 * (1 + abs(v2))


def test_weierstrass_equation_residual(rng):
    for _ in range(60):
        c = make_context(random_tau(rng))
        r, s = random_clear_rs(rng)
        z = r + s * c.tau
        if lattice_distance(z, c) < 0.05:
            continue
        p, pp = weierstrass(z, c)
        res = pp**2 - (4 * p**3 - c.g2 * p - c.g3)
        assert abs(res) < 1e-9 * (1 + abs(pp) ** 2)


def test_wp_prime_vanishes_at_half_period():
    c = make_context(1.3j)
    _, pp = weierstrass(0.5, c)
    assert abs(pp) < 1e-10


def test_wp_even(ctx, rng):
    for _ in range(10):
        r, s = random_clear_rs(rng)
        z = r + s * ctx.tau
        assert abs(wp(z, ctx) - wp(-z, ctx)) < 1e-9 * (1 + abs(wp(z, ctx)))


def test_wp_rejects_lattice_points(ctx):
    with pytest.raises(PoleProximity):
        weierstrass(1e-5 + 0j, ctx)


def test_zeta_at_half_period_is_half_eta1(ctx):
    assert abs(zeta_w(0.5, ctx) - ctx.eta1 / 2) < 1e-11


def test_zeta_quasi_periodicity(ctx, rng):
    for _ in range(10):
        r, s = random_clear_rs(rng)
        z = r + s * ctx.tau
        assert abs(zeta_w(z + 1, ctx) - zeta_w(z, ctx) - ctx.eta1) < 1e-9
        assert abs(zeta_w(z + ctx.tau, ctx) - zeta_w(z, ctx) - ctx.eta2) < 1e-9


def test_zeta_derivative_is_minus_wp(ctx, rng):
    h = 1e-5
    for _ in range(10):
        r, s = random_clear_rs(rng, margin=0.15)
        z = r + s * ctx.tau
        d = (zeta_w(z + h, ctx) - zeta_w(z - h, ctx)) / (2 * h)
        assert abs(d + wp(z, ctx)) < 1e-8 * (1 + abs(wp(z, ctx)))


def test_sigma_normalization(ctx):
    assert sigma_w(0.0, ctx) == 0
    for t in (1e-3, 1e-4):
        assert abs(sigma_w(t, ctx) / t - 1) < 1e-5


def test_sigma_translation_law(ctx, rng):
    for _ in range(8):
        r, s = random_clear_rs(rng)
        z = r + s * ctx.tau
        lhs = sigma_w(z + 1, ctx)
        rhs = -cmath.exp(ctx.eta1 * (z + 0.5)) * sigma_w(z, ctx)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_eisenstein_square_lattice_kills_g3():
    g2, g3 = eisenstein(1j)
    assert abs(g3) < 1e-10 * abs(g2)


def test_eisenstein_hexagonal_lattice_kills_g2():
    g2, g3 = eisenstein(cmath.exp(1j * cmath.pi / 3))
    assert abs(g2) < 1e-10 * abs(g3)


def test_eisenstein_consistent_with_theta_route(rng):
    # independent cross-check: q-series invariants must close the
    # Weierstrass cubic computed from theta logarithmic derivatives
    for _ in range(15):
        tau = random_tau(rng)
        c = make_context(tau)
        g2, g3 = eisenstein(tau)
        assert abs(g2 - c.g2) < 1e-10 * (1 + abs(g2))
        r, s = random_clear_rs(rng, margin=0.2)
        z = r + s * tau
        p, pp = weierstrass(z, c)
        assert abs(pp**2 - (4 * p**3 - g2 * p - g3)) < 1e-9 * (1 + abs(pp) ** 2)


def test_wp_inverse_roundtrip(ctx, rng):
    for _ in range(100):
        x = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        a = wp_inverse(x, ctx)
        assert abs(wp(a.z, ctx) - x) < 1e-9 * (1 + abs(x))


def test_wp_inverse_sign_convention(ctx, rng):
    for _ in range(20):
        x = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        w = cmath.sqrt(4 * x**3 - ctx.g2 * x - ctx.g3)
        if abs(w) < 1e-3:
            continue
        a = wp_inverse(x, ctx, sign_hint=+1)
        assert abs(wp_prime(a.z, ctx) - w) < 1e-7 * (1 + abs(w))
        b = wp_inverse(x, ctx, sign_hint=-1)
        assert abs(wp_prime(b.z, ctx) + w) < 1e-7 * (1 + abs(w))


def test_wp_inverse_branch_point(ctx):
    e1 = wp(0.5, ctx)
    a = wp_inverse(e1, ctx)
    # half-period up to sign and lattice
    assert lattice_distance(2 * a.z, ctx) < 1e-7


def test_wp_inverse_cubic_roots_are_half_periods(ctx):
    # oracle: roots of 4x^3 - g2 x - g3 from the companion matrix
    roots = np.roots([4.0, 0.0, -ctx.g2, -ctx.g3])
    for e in roots:
        a = wp_inverse(complex(e), ctx)
        assert lattice_distance(2 * a.z, ctx) < 1e-6


def _cauchy_coefficients(f, center, radius, k_max, nodes=512):
    """Contour-integral Taylor coefficients: independent oracle."""
    ts = np.arange(nodes) / nodes
    ring = center + radius * np.exp(2j * np.pi * ts)
    vals = np.array([f(z) for z in ring])
    out = []
    for k in range(k_max + 1):
        out.append(np.mean(vals * np.exp(-2j * np.pi * k * ts)) / radius**k)
    return np.array(out)


def test_taylor_data_against_contour_oracle(ctx):
    p_i = 0.31 + 0.22 * ctx.tau
    p_j = 0.72 + 0.61 * ctx.tau
    ztay = taylor_data("zeta", p_i, p_j, 5, ctx)
    ptay = taylor_data("wp", p_i, p_j, 5, ctx)
    zora = _cauchy_coefficients(lambda z: zeta_w(z - p_j, ctx), p_i, 0.08, 5)
    pora = _cauchy_coefficients(lambda z: wp(z - p_j, ctx), p_i, 0.08, 5)
    assert np.max(np.abs(ztay - zora)) < 1e-8 * (1 + np.max(np.abs(zora)))
    assert np.max(np.abs(ptay - pora)) < 1e-8 * (1 + np.max(np.abs(pora)))


def test_taylor_data_diagonal_zeta_flat_to_order_two(ctx):
    coeffs = taylor_data("zeta", 0.4 + 0.3 * ctx.tau, 0.4 + 0.3 * ctx.tau, 6, ctx)
    assert np.max(np.abs(coeffs[:3])) == 0
    assert abs(coeffs[3] + ctx.g2 / 60) < 1e-12 * (1 + abs(ctx.g2))


def test_taylor_data_diagonal_wp_flat_to_order_one(ctx):
    coeffs = taylor_data("wp", 0.1 + 0.7 * ctx.tau, 0.1 + 0.7 * ctx.tau, 6, ctx)
    assert np.max(np.abs(coeffs[:2])) == 0
    assert abs(coeffs[2] - ctx.g2 / 20) < 1e-12 * (1 + abs(ctx.g2))


def test_taylor_data_order_zero_offdiagonal(ctx):
    p_i = 0.2 + 0.5 * ctx.tau
    p_j = 0.6 + 0.1 * ctx.tau
    coeffs = taylor_data("zeta", p_i, p_j, 2, ctx)
    assert abs(coeffs[0] - zeta_w(p_i - p_j, ctx)) < 1e-12 * (1 + abs(coeffs[0]))


def test_check_identities_battery():
    c = make_context(0.3 + 1.2j)
    rep = check_identities(c, samples=25, seed=5)
    assert rep.max_residual() < 1e-9


def test_zeta_sum_square_at_sixth_period_points(ctx_rho):
    # a = w3/6, b = w3/3, c = -w3/2 sum to zero
    w3 = 1 + ctx_rho.tau
    a, b, c = w3 / 6, w3 / 3, -w3 / 2
    lhs = (zeta_w(a, ctx_rho) + zeta_w(b, ctx_rho) + zeta_w(c, ctx_rho)) ** 2
    rhs = wp(a, ctx_rho) + wp(b, ctx_rho) + wp(c, ctx_rho)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_zeta_rejects_pole(ctx):
    with pytest.raises(PoleProximity):
        zeta_w(1.0 + ctx.tau + 1e-6, ctx)


def test_wp_zeta_many_matches_scalar_kernels(rng):
    for tau in (0.22 + 1.31j, 1.2j, -0.4 + 0.7j):
        c = make_context(tau)
        z = rng.uniform(-2.5, 2.5, 60) + rng.uniform(-2.5, 2.5, 60) * c.tau
        z = z[[lattice_distance(v, c) > 0.02 for v in z]]
        pv, zv = wp_zeta_many(z, c)
        for v, p, zt in zip(z, pv, zv):
            p_ref, zt_ref = weierstrass(v, c)[0], zeta_w(v, c)
            assert abs(p - p_ref) < 1e-12 * (1 + abs(p_ref))
            assert abs(zt - zt_ref) < 1e-12 * (1 + abs(zt_ref))


def test_lattice_distance_many_equals_scalar(rng):
    for tau in (0.22 + 1.31j, 1.2j, 0.3 + 5.0j):
        c = make_context(tau)
        z = rng.uniform(-3, 3, 400) + 1j * rng.uniform(-3, 3, 400)
        z[:3] = (0.0, 1.0 + c.tau, -2.0 + 3.0 * c.tau)
        want = [lattice_distance(complex(v), c) for v in z]
        assert lattice_distance_many(z, c).tolist() == want
        assert lattice_distance_many(z.reshape(20, 20), c).shape == (20, 20)


# Verbatim copies of the wp/wp'/zeta formulas that the merged kernel
# replaced: the scalar ones reduced with math.floor, the array ones with
# np.floor.  The two paths round differently (a BLAS dot against a
# matrix-vector product, CPython's complex division against numpy's), so
# each entry point is pinned to the copy of its own path.

def _ref_reduce(z, ctx):
    r, s = rs_coordinates(z, ctx)
    m, n = math.floor(r), math.floor(s)
    z0 = (r - m) + (s - n) * ctx.tau
    return z0, m, n


def _ref_weierstrass(z, ctx):
    z0, _, _ = _ref_reduce(z, ctx)
    t0, t1, t2, t3 = _theta_block_arrays(z0, ctx._freq, ctx._coef)
    u = t1 / t0
    du = t2 / t0 - u * u
    ddu = t3 / t0 - 3.0 * u * du - u**3
    return -ctx.eta1 - du, -ddu


def _ref_zeta_w(z, ctx):
    z0, m, n = _ref_reduce(z, ctx)
    t0, t1, _, _ = _theta_block_arrays(z0, ctx._freq, ctx._coef)
    return ctx.eta1 * z0 + t1 / t0 + m * ctx.eta1 + n * ctx.eta2


def _ref_many(z, ctx):
    z = np.asarray(z, dtype=complex)
    s = z.imag / ctx.tau.imag
    r = z.real - s * ctx.tau.real
    m, n = np.floor(r), np.floor(s)
    z0 = (r - m) + (s - n) * ctx.tau
    t0, t1, t2, t3 = _theta_block_arrays(z0, ctx._freq, ctx._coef)
    u = t1 / t0
    du = t2 / t0 - u * u
    ddu = t3 / t0 - 3.0 * u * du - u**3
    return -ctx.eta1 - du, -ddu, ctx.eta1 * z0 + t1 / t0 + m * ctx.eta1 + n * ctx.eta2


def _kernel_sample(rng, c):
    z = rng.uniform(-0.5, 1.5, 80) + rng.uniform(-0.5, 1.5, 80) * c.tau
    half = np.array([0.5, 0.5 * c.tau, 0.5 + 0.5 * c.tau])
    z = np.concatenate([z, half, half - 3.0 + 2.0 * c.tau, z[:20] + 7.0 - 5.0 * c.tau,
                        z[20:40] - 40.0 + 31.0 * c.tau])
    return z[lattice_distance_many(z, c) > 0.01]


def test_kernel_bit_identical_to_reference_formulas(rng):
    for tau in (0.22 + 1.31j, 1.2j, -0.4 + 0.7j, 7.3 + 0.9j, 0.05 + 0.12j, 0.1 + 6j):
        c = make_context(tau)
        z = _kernel_sample(rng, c)
        for v in list(z) + [complex(v) for v in z]:   # numpy and Python scalars
            assert weierstrass(v, c) == _ref_weierstrass(v, c)
            assert zeta_w(v, c) == _ref_zeta_w(v, c)
        assert zeta_w(0.5, c) == _ref_zeta_w(0.5, c)
        p, pp, zt = _ref_many(z, c)
        assert np.array_equal(wp_many(z, c)[0], p) and np.array_equal(wp_many(z, c)[1], pp)
        assert np.array_equal(zeta_many(z, c), zt)
        pv, zv = wp_zeta_many(z, c)
        assert np.array_equal(pv, p) and np.array_equal(zv, zt)
        grid = z[:36].reshape(6, 6)
        assert np.array_equal(zeta_many(grid, c), zt[:36].reshape(6, 6))


def _mp_kernel(z, tau, mp):
    """(wp, wp', zeta) at the unreduced z from mpmath theta log-derivatives,
    with theta1(z) = jtheta(1, pi z, q) as in the kernel."""
    q = mp.exp(1j * mp.pi * tau)
    x = mp.pi * z

    def th(k, at):
        return mp.pi**k * mp.jtheta(1, at, q, k)

    eta1 = -th(3, 0) / (3 * th(1, 0))
    t0, t1, t2, t3 = (th(k, x) for k in range(4))
    u = t1 / t0
    du = t2 / t0 - u * u
    ddu = t3 / t0 - 3 * u * du - u**3
    return -eta1 - du, -ddu, eta1 * z + u


def test_kernel_matches_mpmath_oracle(rng):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for tau in (7.3 + 0.9j, 0.05 + 0.12j, 0.1 + 6j, 0.22 + 1.31j,
                    12j, 20j, 0.3 + 40j):
            c = make_context(tau)
            r, s = rng.uniform(0.1, 0.9, 6), rng.uniform(0.1, 0.9, 6)
            shift = rng.integers(-3, 4, 6) + rng.integers(-3, 4, 6) * c.tau
            z = r + s * c.tau + shift
            z = z[lattice_distance_many(z, c) > 0.02]
            pv, ppv = wp_many(z, c)
            pz, zv = wp_zeta_many(z, c)
            zm = zeta_many(z, c)
            for k, v in enumerate(z):
                p_ref, pp_ref, z_ref = (complex(w) for w in _mp_kernel(
                    mpmath.mpc(v), mpmath.mpc(tau), mpmath.mp))
                p_scale = 1.0 + abs(p_ref)
                got_p, got_pp = weierstrass(complex(v), c)
                for val in (got_p, pv[k], pz[k]):
                    assert abs(val - p_ref) < 1e-11 * p_scale
                for val in (got_pp, ppv[k]):
                    assert abs(val - pp_ref) < 1e-11 * p_scale**1.5
                for val in (zeta_w(complex(v), c), zv[k], zm[k]):
                    assert abs(val - z_ref) < 1e-11 * (1.0 + abs(z_ref))


def _sincos_block(z, freq, coef):
    # verbatim copy of the array kernel before the phase-factor recurrence
    zz = np.asarray(z, dtype=complex)
    ph = np.multiply.outer(zz, freq)
    s, c = np.sin(ph), np.cos(ph)
    t0 = s @ coef
    t1 = c @ (coef * freq)
    t2 = -(s @ (coef * freq**2))
    t3 = -(c @ (coef * freq**3))
    return t0, t1, t2, t3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(re=st.floats(-1.0, 1.0), im=st.floats(0.1, 20.0),
       lattice=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                        min_size=1, max_size=8))
def test_array_kernel_matches_sincos_formula(re, im, lattice):
    c = make_context(complex(re, im))
    rs = np.array(lattice)
    z = rs[:, 0] + rs[:, 1] * c.tau
    z = z[lattice_distance_many(z, c) > 0.02]
    assume(z.size)
    # the kernel's reduction and log-derivatives, theta block from sin/cos
    s = z.imag / c.tau.imag
    r = z.real - s * c.tau.real
    m, n = np.floor(r), np.floor(s)
    z0 = (r - m) + (s - n) * c.tau
    t0, t1, t2, t3 = _sincos_block(z0, c._freq, c._coef)
    u = t1 / t0
    du = t2 / t0 - u * u
    p_ref = -c.eta1 - du
    pp_ref = -(t3 / t0 - 3.0 * u * du - u**3)
    z_ref = c.eta1 * z0 + u + m * c.eta1 + n * c.eta2
    p, zeta, pp = _wp_zeta(z, c, prime=True)
    scale = 1.0 + np.abs(p_ref)
    assert np.all(np.abs(p - p_ref) < 1e-12 * scale)
    assert np.all(np.abs(zeta - z_ref) < 1e-12 * scale)
    assert np.all(np.abs(pp - pp_ref) < 1e-12 * scale**1.5)


def test_context_rejects_tau_whose_theta_blocks_overflow():
    # at Im tau = 80 the eta2 block at z0 + tau overflows a term that
    # has not underflowed; the NaN Legendre residual must not pass
    with pytest.raises(ValueError):
        make_context(80j)


def test_hecke_cli_finite_at_high_tau(capsys):
    # the far theta terms underflow to 0 here; kept, they made eta2 NaN
    assert main(["hecke", "--tau", "0+20i", "--r", "0.3", "--s", "0.2"]) == EXIT_OK

    def reject(name):
        raise AssertionError(f"non-finite JSON constant {name}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    want = hecke_Z_qseries(0.3, 0.2, make_context(20j))
    assert abs(complex(*payload["Z"]) - want) < 1e-9
