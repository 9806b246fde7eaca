import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lamelab import (
    TorusPoint,
    Wn_eval,
    Zn_premodular,
    find_type2,
    hermite_halphen,
    lame_ln,
    lame_sk,
    make_context,
    point_on_Xn,
    sigma_n_degree_probe,
    spectral_poly,
    weierstrass,
    wp_inverse,
    zeta_w,
    zn_value,
)
from lamelab.curves import (
    Wn_monomial_scale,
    XnPoint,
    _fiber_over_sigma,
    _fiber_poly,
    _wn,
    hermite_halphen_logderiv,
    lame_ln_raw,
    lame_sk_raw,
)
from lamelab.elliptic import _damped_newton, _wp_clear, lattice_distance
from lamelab.errors import NoSignPattern, RamifiedPoint
from lamelab.green import hecke_Z

TAU_TYPE2_N2 = 0.5 + 2.2j   # rhombic torus carrying nontrivial Z_2 zeros


def _random_B(rng, scale=3.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def test_sk_base_cases(ctx):
    s = lame_sk(1, 2.7 - 0.4j, ctx)
    assert s[0] == 1
    assert abs(s[1] - (2.7 - 0.4j)) < 1e-14
    s2 = lame_sk(2, 0.0, ctx)
    assert abs(s2[1]) == 0


def test_sk_weighted_homogeneity(rng):
    # B -> t^2 B, g2 -> t^4 g2, g3 -> t^6 g3 scales s_k by t^(2k)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        B = _random_B(rng)
        g2 = _random_B(rng)
        g3 = _random_B(rng)
        t = complex(rng.uniform(0.5, 1.8), rng.uniform(-0.5, 0.5))
        base = lame_sk_raw(n, B, g2, g3)
        scaled = lame_sk_raw(n, t**2 * B, t**4 * g2, t**6 * g3)
        for k in range(n + 1):
            assert abs(scaled[k] - t ** (2 * k) * base[k]) < 1e-10 * (1 + abs(base[k]) * abs(t) ** (2 * k))


def test_ln_degree_one_closed_form(ctx, rng):
    for _ in range(10):
        B = _random_B(rng, 4.0)
        expect = 4 * B**3 - ctx.g2 * B - ctx.g3
        assert abs(lame_ln(1, B, ctx) - expect) < 1e-12 * (1 + abs(expect))


def test_ln_weighted_homogeneity(rng):
    for n in (1, 2, 3):
        B, g2, g3 = _random_B(rng), _random_B(rng), _random_B(rng)
        t = complex(rng.uniform(0.6, 1.5), rng.uniform(-0.4, 0.4))
        lhs = lame_ln_raw(n, t**2 * B, t**4 * g2, t**6 * g3)
        rhs = t ** (2 * (2 * n + 1)) * lame_ln_raw(n, B, g2, g3)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_ln_leading_degree(ctx):
    # deg_B l_n = 2n + 1: value at huge B doubles by 2^(2n+1)
    for n in range(1, 5):
        v1 = lame_ln(n, 1e5, ctx)
        v2 = lame_ln(n, 2e5, ctx)
        ratio = abs(v2 / v1)
        assert abs(ratio - 2 ** (2 * n + 1)) < 0.01 * 2 ** (2 * n + 1)


def test_ln_vanishes_at_half_period_pairs(ctx):
    # degenerate points a = -a of X_2 have both entries at half-periods,
    # so B = 3(e_i + e_j) must be a branch value of Y_2
    es = np.roots([4.0, 0.0, -ctx.g2, -ctx.g3])
    scale = 1.0 + abs(ctx.g2) ** 2
    for i in range(3):
        for j in range(3):
            if i != j:
                assert abs(lame_ln(2, 3 * (es[i] + es[j]), ctx)) < 1e-9 * scale


def test_ln_vanishes_at_degenerate_point(ctx):
    # Newton a root of l_2 and confirm the ramified guard trips there
    B = 1.0 + 0.3j
    for _ in range(80):
        v = lame_ln(2, B, ctx)
        h = 1e-6
        d = (lame_ln(2, B + h, ctx) - lame_ln(2, B - h, ctx)) / (2 * h)
        B = B - v / d
        if abs(v) < 1e-12:
            break
    assert abs(lame_ln(2, B, ctx)) < 1e-9
    with pytest.raises(RamifiedPoint):
        point_on_Xn(2, B, ctx)


def test_spectral_poly_n1(ctx):
    B = 1.7 - 0.9j
    coeffs = spectral_poly(1, B, ctx)
    assert np.allclose(coeffs, [-1.0, B])  # X(x) = -(x - B)


def test_spectral_roots_sum(ctx, rng):
    for n in (2, 3, 4):
        B = _random_B(rng)
        roots = np.roots(spectral_poly(n, B, ctx))
        s = lame_sk(n, B, ctx)
        assert abs(np.sum(roots) - s[1]) < 1e-8 * (1 + abs(s[1]))
        assert abs(s[1] - B / (2 * n - 1)) < 1e-12 * (1 + abs(B))


def test_spectral_poly_vanishes_on_curve_points(ctx, rng):
    for n in (2, 3):
        pt = point_on_Xn(n, _random_B(rng), ctx)
        coeffs = spectral_poly(n, pt.B, ctx)
        for x in pt.x:
            val = np.polyval(coeffs, x)
            assert abs(val) < 1e-8 * (1 + abs(x) ** n)


def test_point_on_X1_is_wp_inverse(ctx):
    from lamelab.elliptic import lattice_distance

    B = 2.2 + 0.5j
    pt = point_on_Xn(1, B, ctx)
    a = wp_inverse(B, ctx)
    assert abs(pt.x[0] - B) < 1e-9 * (1 + abs(B))
    d = min(lattice_distance(pt.a[0].z - a.z, ctx),
            lattice_distance(pt.a[0].z + a.z, ctx))
    assert d < 1e-7
    assert pt.verify(ctx)["curve"] < 1e-12


def test_point_on_Xn_invariants(ctx, rng):
    for n in (1, 2, 3, 4):
        done = 0
        while done < 50:
            try:
                pt = point_on_Xn(n, _random_B(rng), ctx)
            except RamifiedPoint:
                continue
            rep = pt.verify(ctx)
            assert rep["curve"] < 1e-8
            assert rep["B"] < 1e-9
            assert rep["weierstrass"] < 1e-9
            done += 1


def test_point_negation_keeps_B(ctx, rng):
    pt = point_on_Xn(2, _random_B(rng), ctx)
    neg = pt.negate(ctx)
    assert neg.B == pt.B
    assert abs(zn_value(neg, ctx) + zn_value(pt, ctx)) < 1e-9


def test_zn_trivial_for_n1(ctx):
    pt = point_on_Xn(1, 1.3 + 0.4j, ctx)
    assert abs(zn_value(pt, ctx)) < 1e-10


def test_zn_addition_square(ctx, rng):
    # z_2^2 = wp(a1 + a2) + wp(a1) + wp(a2) on all of E^2
    from lamelab.curves import XnPoint

    for _ in range(10):
        a1 = rng.uniform(0.08, 0.92) + rng.uniform(0.08, 0.92) * ctx.tau
        a2 = rng.uniform(0.08, 0.92) + rng.uniform(0.08, 0.92) * ctx.tau
        if abs(a1 + a2 - 1 - ctx.tau) < 0.1 or abs(a1 - a2) < 0.1:
            continue
        pt = XnPoint(
            n=2,
            a=[TorusPoint.from_z(a1, ctx), TorusPoint.from_z(a2, ctx)],
            x=[weierstrass(a1, ctx)[0], weierstrass(a2, ctx)[0]],
            y=[weierstrass(a1, ctx)[1], weierstrass(a2, ctx)[1]],
            B=0.0, residual=0.0)
        z2 = zn_value(pt, ctx)
        rhs = (weierstrass(a1 + a2, ctx)[0] + weierstrass(a1, ctx)[0]
               + weierstrass(a2, ctx)[0])
        assert abs(z2**2 - rhs) < 1e-9 * (1 + abs(rhs))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_Wn_annihilates_zn(ctx, rng, n):
    for _ in range(8):
        pt = point_on_Xn(n, _random_B(rng), ctx)
        zv = zn_value(pt, ctx)
        sig = TorusPoint.from_z(pt.sigma(), ctx)
        val = Wn_eval(n, zv, sig, ctx)
        scale = Wn_monomial_scale(n, zv, sig, ctx)
        assert abs(val) < 1e-6 * scale


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wn_partials_match_central_differences(ctx, n):
    args = [0.7 - 0.4j, 1.3 + 0.2j, -0.5 + 0.9j]      # Z, wp, wp'
    w, *partials = _wn(n, *args, ctx, partials=True)
    assert w == _wn(n, *args, ctx)
    h = 1e-6
    for k, d in enumerate(partials):
        up, dn = list(args), list(args)
        up[k] += h
        dn[k] -= h
        fd = (_wn(n, *up, ctx) - _wn(n, *dn, ctx)) / (2 * h)
        assert abs(fd - d) < 1e-7 * (1 + abs(d))


def test_W2_half_period(ctx):
    val = Wn_eval(2, 0.0, TorusPoint.from_rs(0.5, 0.0, ctx), ctx)
    assert abs(val) < 1e-10  # -wp'(omega_1/2) = 0


def test_Zn_parity(ctx, rng):
    # Z_n(-sigma) = (-1)^(n(n+1)/2) Z_n(sigma): read off the polynomial
    # weights (z odd, wp even, wp' odd)
    for n in (1, 2, 3, 4):
        sign = (-1) ** ((n * (n + 1) // 2) % 2)
        for _ in range(5):
            r, s = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            sig = TorusPoint.from_rs(r, s, ctx)
            neg = TorusPoint.from_rs((-r) % 1.0, (-s) % 1.0, ctx)
            v = Zn_premodular(n, sig, ctx)
            w = Zn_premodular(n, neg, ctx)
            assert abs(w - sign * v) < 1e-8 * (1 + abs(v))


def test_Z1_zero_at_third_period(ctx_rho):
    sig = TorusPoint.from_rs(1 / 3, 1 / 3, ctx_rho)
    assert abs(Zn_premodular(1, sig, ctx_rho)) < 1e-12


def test_Z2_finite_at_half_periods(ctx):
    for r, s in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        v = Zn_premodular(2, TorusPoint.from_rs(r, s, ctx), ctx)
        assert abs(v) < 1e-9   # trivial zeros, excluded downstream


def test_find_type2_rectangular_empty(ctx_rect):
    assert find_type2(1, ctx_rect) == []


def test_find_type2_hexagonal_pair(ctx_rho):
    sols = find_type2(1, ctx_rho)
    assert len(sols) == 2
    rs = sorted((round(t.sigma.r, 6), round(t.sigma.s, 6)) for t in sols)
    assert rs[0] == (round(1 / 3, 6), round(1 / 3, 6))
    assert rs[1] == (round(2 / 3, 6), round(2 / 3, 6))
    for t in sols:
        assert t.green_defect < 1e-10


def test_find_type2_n2_green_equation():
    ctx = make_context(TAU_TYPE2_N2)
    sols = find_type2(2, ctx, grid=72)
    assert len(sols) >= 2
    for t in sols:
        assert t.green_defect < 1e-6
        assert abs(t.zn - t.hecke) < 1e-8 * (1 + abs(t.hecke))
        rep = t.a.verify(ctx)
        assert rep["curve"] < 1e-8


def test_find_type2_reports_canonical_points():
    # each a_i in the fundamental cell, the points sorted by (r, s) and x, y
    # permuted with them: on both tori the fiber search reaches
    # representatives outside the cell
    for tau in (TAU_TYPE2_N2, 0.375 + 1.25j):
        ctx = make_context(tau)
        sols = find_type2(2, ctx)
        assert sols
        for t in sols:
            rs = [(p.r, p.s) for p in t.a.a]
            assert rs == sorted(rs)
            assert all(0.0 <= c < 1.0 for pair in rs for c in pair)
            for p, x, y in zip(t.a.a, t.a.x, t.a.y):
                wx, wy = weierstrass(p.z, ctx)
                assert abs(wx - x) < 1e-8 * (1 + abs(x)) and abs(wy - y) < 1e-8 * (1 + abs(y))
            assert lattice_distance(t.a.sigma() - t.sigma.z, ctx) < 1e-8


def test_find_type2_period_integrals_imaginary():
    # cross-check against the period-integral form of the same equation
    from lamelab import period_integral

    ctx = make_context(TAU_TYPE2_N2)
    sols = find_type2(2, ctx, grid=72)
    for t in sols:
        for i in (1, 2):
            total = sum(period_integral(p.z, i, ctx) for p in t.a.a)
            assert abs(total.real) < 1e-6


def test_find_type2_n3():
    ctx = make_context(TAU_TYPE2_N2)
    sols = find_type2(3, ctx, grid=72)
    assert sols   # this torus carries nontrivial zeros of Z_3 as well
    for t in sols:
        assert t.green_defect < 1e-6
        rep = t.a.verify(ctx)
        assert rep["curve"] < 1e-7
        assert rep["B"] < 1e-8


@pytest.mark.parametrize("tau", [0.0625 + 0.875j, 0.625 + 0.75j, 0.375 + 1.25j])
def test_find_type2_n3_skips_half_periods(tau):
    # W_3(Z) has a double zero at each half-period (Z = wp' = 0 there), where
    # Newton stops up to 1e-7 short; such sigma carry a green defect of about
    # 2e-9 against 1e-15 for the true zeros
    ctx = make_context(tau)
    sols = find_type2(3, ctx, grid=72)
    for t in sols:
        assert min(math.hypot(t.sigma.r - hr, t.sigma.s - hs)
                   for hr in (0.0, 0.5, 1.0) for hs in (0.0, 0.5, 1.0)) > 1e-3
        assert t.green_defect < 1e-12
    if tau == 0.375 + 1.25j:
        rs = [(round(t.sigma.r, 5), round(t.sigma.s, 5)) for t in sols]
        assert rs == [(0.45296, 0.16489), (0.54704, 0.83511)]


SIGMA3_TORI = (0.22 + 1.31j, TAU_TYPE2_N2, 0.125 + 0.75j, 0.875 + 2.25j)


@pytest.mark.parametrize("tau", SIGMA3_TORI)
def test_sigma3_fiber_complete(tau):
    # six points over sigma, each on X_3, and z_3 a root of W_3(.; sigma),
    # the minimal polynomial of z_3 over the fiber: an independent oracle
    ctx = make_context(tau)
    rng = np.random.default_rng([11, SIGMA3_TORI.index(tau)])
    for _ in range(6):
        sig = TorusPoint.from_rs(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), ctx)
        fiber = _fiber_over_sigma(sig.z, ctx, 3)
        assert len(fiber) == 6
        bs = [pt.B for pt in fiber]
        assert min(abs(b - c) for i, b in enumerate(bs) for c in bs[:i]) > 1e-6
        for pt in fiber:
            assert lattice_distance(pt.sigma() - sig.z, ctx) < 1e-10
            assert max(pt.verify(ctx).values()) < 1e-8
            zv = zn_value(pt, ctx)
            assert abs(Wn_eval(3, zv, sig, ctx)) < 1e-9 * Wn_monomial_scale(3, zv, sig, ctx)
        assert sigma_n_degree_probe(3, sig, ctx) == 6


def test_sigma3_sextic_holds_on_curve_points(rng):
    # independent of the fiber search: points from the spectral polynomial
    # and the wp' signs satisfy the sextic the fiber is built from
    for tau in (0.22 + 1.31j, 0.375 + 1.25j, 1.2j):
        ctx = make_context(tau)
        for _ in range(8):
            B = _random_B(rng)
            pt = point_on_Xn(3, B, ctx)
            if lattice_distance(pt.sigma(), ctx) < 0.05:
                continue
            w = weierstrass(pt.sigma(), ctx)[0]
            coeffs = _fiber_poly(3, w, ctx.g2, ctx.g3)
            scale = sum(abs(c) * abs(B) ** k for k, c in enumerate(reversed(coeffs)))
            assert abs(np.polyval(coeffs, B)) < 1e-9 * scale


def _sign_search_reference(n, B, ctx, ramified_tol=1e-9, pattern_tol=1e-8):
    """The former point_on_Xn, verbatim: exhaustive search over the 2^n
    sign patterns of wp'."""
    B = complex(B)
    ln = lame_ln(n, B, ctx)
    ln_scale = 1.0 + abs(B) ** (2 * n + 1)
    if abs(ln) < ramified_tol * ln_scale:
        raise RamifiedPoint(f"l_{n}(B) = {ln:.3e} ~ 0: branch point of Y_{n}")
    xs = np.roots(spectral_poly(n, B, ctx))
    if n > 1:
        sep = min(abs(xs[i] - xs[j]) for i in range(n) for j in range(i + 1, n))
        if sep < 1e-7 * (1.0 + np.max(np.abs(xs))):
            raise RamifiedPoint("spectral polynomial has (nearly) multiple roots")
    pts = [wp_inverse(x, ctx, sign_hint=+1) for x in xs]
    xs, ys = (list(v) for v in zip(*(weierstrass(p.z, ctx) for p in pts)))
    scale = 1.0
    for r in range(max(n - 1, 0)):
        scale = max(scale, max(abs(ys[i] * xs[i] ** r) for i in range(n)))
    best_eps, best_res = None, math.inf
    for mask in range(2 ** n):
        eps = [1 if not (mask >> i) & 1 else -1 for i in range(n)]
        res = 0.0
        for r in range(max(n - 1, 0)):
            res = max(res, abs(sum(eps[i] * ys[i] * xs[i] ** r for i in range(n))))
        if res < best_res:
            best_res, best_eps = res, eps
    if n > 1 and best_res > pattern_tol * (1.0 + scale):
        raise NoSignPattern(f"best sign-pattern residual {best_res:.3e} exceeds tolerance")
    if best_eps[0] < 0:
        best_eps = [-e for e in best_eps]
    a = [pts[i] if best_eps[i] > 0 else pts[i].negate(ctx) for i in range(n)]
    y = [best_eps[i] * ys[i] for i in range(n)]
    return XnPoint(n=n, a=a, x=list(xs), y=y, B=B, residual=best_res)


def _json_or_error(fn, *args):
    try:
        return fn(*args).to_json()
    except (RamifiedPoint, NoSignPattern) as exc:
        return type(exc).__name__


def test_point_on_Xn_matches_sign_search_reference():
    # the Lagrange signs pick the pattern the 2^n search picked, bit for bit;
    # four small B raise NoSignPattern on both sides, a branch value RamifiedPoint
    rng = np.random.default_rng(31)
    cases = [(tau, n, complex(rng.uniform(-m, m), rng.uniform(-m, m)))
             for tau in (0.22 + 1.31j, 0.625 + 1.75j, 1.2j, 2.3j)
             for n in (1, 2, 3, 4) for m in (0.6, 4.0) for _ in range(5)]
    cases += [(0.125 + 0.75j, 3, -0.023347 - 0.017629j), (0.375 + 2.25j, 3, -0.213194 + 0.259298j),
              (0.625 + 1.75j, 3, -0.402404 + 0.069969j), (0.125 + 0.75j, 3, -0.123149 + 0.058804j)]
    ctxs = {tau: make_context(tau) for tau, _, _ in cases}
    es = np.roots([4.0, 0.0, -ctxs[1.2j].g2, -ctxs[1.2j].g3])
    cases.append((1.2j, 2, 3 * (es[0] + es[1])))    # a branch value of Y_2
    for tau, n, B in cases:
        ctx = ctxs[tau]
        assert _json_or_error(point_on_Xn, n, B, ctx) == _json_or_error(
            _sign_search_reference, n, B, ctx), (tau, n, B)


def test_curves_module_draws_no_random_numbers():
    # curve points and fibers are algebraic and deterministic
    text = (Path(__file__).resolve().parents[1] / "src" / "lamelab" / "curves.py").read_text()
    assert "default_rng" not in text and "np.random" not in text


def test_hermite_halphen_product(ctx, rng):
    # w_a w_{-a} = prod (wp(z) - wp(a_i)): the sigma(-a_i) sign and the
    # factor identity sigma(z+a)sigma(z-a)/(sigma^2 sigma^2) = wp(a)-wp(z)
    # contribute (-1)^n each and cancel (n = 1 pole check: product ~ 1/z^2)
    for n in (1, 2, 3):
        pt = point_on_Xn(n, _random_B(rng, 2.0), ctx)
        neg = pt.negate(ctx)
        for _ in range(4):
            z = rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * ctx.tau
            if min(abs(z - p.z) for p in pt.a) < 0.05 or min(abs(z - p.z) for p in neg.a) < 0.05:
                continue
            lhs = hermite_halphen(pt, z, ctx) * hermite_halphen(neg, z, ctx)
            pz = weierstrass(z, ctx)[0]
            rhs = np.prod([pz - x for x in pt.x])
            assert abs(lhs - rhs) < 1e-7 * (1 + abs(rhs))


def test_hermite_halphen_solves_lame(ctx, rng):
    # w''/w = n(n+1) wp + B via 5-point stencil
    h = 1e-4
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    for n in (1, 2):
        pt = point_on_Xn(n, _random_B(rng, 2.0), ctx)
        z = 0.37 + 0.29 * ctx.tau
        vals = np.array([hermite_halphen(pt, z + k * h, ctx) for k in (-2, -1, 0, 1, 2)])
        wpp_over_w = (stencil @ vals) / vals[2]
        target = n * (n + 1) * weierstrass(z, ctx)[0] + pt.B
        assert abs(wpp_over_w - target) < 1e-4 * (1 + abs(target))


def test_hermite_halphen_ratio_matches_integral(ctx, rng):
    # f = (-1)^n w_a / w_{-a} satisfies f'/f = sum wp'(a_i)/(wp - wp(a_i)) so
    # log f increments match the trapezoid integral along a short segment
    n = 2
    pt = point_on_Xn(n, 1.1 + 0.7j, ctx)
    neg = pt.negate(ctx)
    z0 = 0.41 + 0.33 * ctx.tau
    z1 = z0 + 0.08 + 0.03 * ctx.tau
    def f(z):
        return (-1) ** n * hermite_halphen(pt, z, ctx) / hermite_halphen(neg, z, ctx)
    ts = np.linspace(0, 1, 600)
    seg = z0 + (z1 - z0) * ts
    def g(z):
        pz = weierstrass(z, ctx)[0]
        return sum(pt.y[i] / (pz - pt.x[i]) for i in range(n))
    gv = np.array([g(z) for z in seg])
    integral = (z1 - z0) * (np.sum(gv[1:-1]) + 0.5 * (gv[0] + gv[-1])) / (len(ts) - 1)
    assert abs(f(z1) / f(z0) - cmath.exp(integral)) < 1e-6 * abs(f(z1) / f(z0))


def test_logderiv_helper(ctx):
    pt = point_on_Xn(2, 0.9 - 0.2j, ctx)
    z = 0.21 + 0.56 * ctx.tau
    h = 1e-6
    fd = (hermite_halphen(pt, z + h, ctx) - hermite_halphen(pt, z - h, ctx)) / (2 * h)
    assert abs(fd / hermite_halphen(pt, z, ctx) - hermite_halphen_logderiv(pt, z, ctx)) < 1e-6


def test_sigma2_fiber_degree():
    ctx = make_context(0.25 + 1.3j)
    rng = np.random.default_rng(3)
    for _ in range(3):
        sig = TorusPoint.from_rs(rng.uniform(0.15, 0.45), rng.uniform(0.15, 0.45), ctx)
        assert sigma_n_degree_probe(2, sig, ctx) == 3


def _grid_fiber_reference(sigma, ctx, grid=14):
    """The former fiber search, kept as a reference: damped Newton on
    h(a) = wp'(a) + wp'(sigma - a) from every point of a grid x grid mesh."""
    def residual(a):
        v1, v2 = _wp_clear(a, ctx), _wp_clear(sigma - a, ctx)
        if v1 is None or v2 is None:
            return None
        return v1[1] + v2[1], (v1, v2)

    def slope(a, f, vals):
        (p1, _), (p2, _) = vals
        return (6.0 * p1**2 - ctx.g2 / 2.0) - (6.0 * p2**2 - ctx.g2 / 2.0)

    sols = []
    for rr in np.linspace(0.05, 0.95, grid):
        for ss in np.linspace(0.05, 0.95, grid):
            hit = _damped_newton(residual, slope, rr + ss * ctx.tau, 1e-11, 60, cap=0.45)
            if hit is None:
                continue
            a = hit[0]
            # dedup modulo the lattice and the swap a <-> sigma - a
            if not any(lattice_distance(c - b, ctx) < 1e-6
                       for b, _ in sols for c in (a, sigma - a)):
                sols.append((a, hit[1][1]))
    return [XnPoint(n=2, a=[TorusPoint.from_z(a1, ctx), TorusPoint.from_z(sigma - a1, ctx)],
                    x=[x1, x2], y=[y1, y2], B=3.0 * (x1 + x2), residual=abs(y1 + y2))
            for a1, ((x1, y1), (x2, y2)) in sols]


def test_sigma2_fiber_complete_on_type2_zeros():
    # every type-II zero of Z_2 over the spectral benchmark's 4 x 4 grid of
    # band tori has all three fiber points, among them one at 0.625+0.75i
    # that lies 0.084 from the lattice, where |wp'| is about 3.4e3
    seen = 0
    for i in range(4):
        for j in range(4):
            ctx = make_context(complex((i + 0.5) / 4, 0.5 + 2 * (j + 0.5) / 4))
            for t in find_type2(2, ctx):
                fiber = _fiber_over_sigma(t.sigma.z, ctx, 2)
                assert len(fiber) == 3
                for pt in fiber:
                    # x, y recomputed from the returned a_i
                    (x1, y1), (x2, y2) = (weierstrass(p.z, ctx) for p in pt.a)
                    assert lattice_distance(pt.sigma() - t.sigma.z, ctx) < 1e-9
                    assert abs(y1 + y2) <= 1e-10 * (1 + abs(y1))
                    assert abs(pt.B - 3 * (x1 + x2)) <= 1e-10 * (1 + abs(pt.B))
                seen += 1
    assert seen == 8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(re=st.floats(-0.5, 0.5), im=st.floats(0.3, 8.0),
       mod=st.floats(1.0, 4.0), arg=st.floats(0.0, 2 * math.pi))
def test_sigma2_cubic_holds_on_curve_points(re, im, mod, arg):
    # independent oracle: points from the spectral polynomial and the
    # wp' sign search satisfy the cubic the fiber is built from.  wp(sigma)
    # enters the scale as 1 + |wp|, the absolute precision wp values carry
    # (wp_inverse stops at 1e-11 (1 + |x|)): at tau = i, B = 1, sigma is
    # 2e-3 from the zero (1 + i)/2 of wp, and 27 wp g2 cancels B^3 to 3e-9
    ctx = make_context(complex(re, im))
    B = cmath.rect(mod, arg)
    try:
        a = point_on_Xn(2, B, ctx)
    except (RamifiedPoint, NoSignPattern):
        assume(False)   # the sign search near branch values is a separate defect
    sig = a.sigma()
    assume(lattice_distance(sig, ctx) >= 0.05)
    w = weierstrass(sig, ctx)[0]
    residual = B**3 - 9 * w * B**2 + 27 * (w * ctx.g2 + ctx.g3)
    scale = max(abs(B) ** 3, (1 + abs(w)) * max(9 * abs(B) ** 2, 27 * abs(ctx.g2)), 27 * abs(ctx.g3))
    assert abs(residual) <= 1e-9 * scale


def test_sigma2_fiber_matches_grid_reference():
    ctx = make_context(0.25 + 1.3j)
    rng = np.random.default_rng(7)
    for _ in range(10):
        sig = TorusPoint.from_rs(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), ctx).z
        new = sorted((p.canonical(ctx) for p in _fiber_over_sigma(sig, ctx, 2)),
                     key=lambda p: (p.B.real, p.B.imag))
        ref = sorted((p.canonical(ctx) for p in _grid_fiber_reference(sig, ctx)),
                     key=lambda p: (p.B.real, p.B.imag))
        assert len(new) == len(ref) == 3
        for p, q in zip(new, ref):
            assert abs(p.B - q.B) < 1e-9 * (1 + abs(q.B))
            for u, v in zip(p.a, q.a):
                assert lattice_distance(u.z - v.z, ctx) < 1e-9


def test_sigma1_fiber_degree(ctx):
    assert sigma_n_degree_probe(1, TorusPoint.from_rs(0.3, 0.4, ctx), ctx) == 1


def test_xn_point_json(ctx):
    import json

    pt = point_on_Xn(2, 1.0 + 0.2j, ctx)
    payload = json.loads(pt.to_json())
    assert payload["schema"] == 1 and payload["n"] == 2
    assert len(payload["a"]) == 2
