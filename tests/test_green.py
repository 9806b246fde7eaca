import cmath
import math

import numpy as np
import pytest

from lamelab import (
    classify_omega,
    critical_points,
    green_value,
    hecke_Z,
    hecke_Z_qseries,
    make_context,
)
from lamelab.errors import PoleProximity
from lamelab.green import HALF_PERIOD_RS, _newton_Z, gamma0_2_winding

from conftest import RHO, random_clear_rs, random_tau


def test_green_even(ctx, rng):
    for _ in range(10):
        r, s = random_clear_rs(rng)
        z = r + s * ctx.tau
        assert abs(green_value(z, ctx) - green_value(-z, ctx)) < 1e-10


def test_green_log_singularity_bounded(ctx):
    # G + log|z| / (2 pi) stays bounded as z -> 0
    vals = []
    for t in (1e-1, 1e-2, 5e-3, 2e-3):
        z = t * cmath.exp(0.7j)
        vals.append(green_value(z, ctx) + math.log(abs(z)) / (2 * math.pi))
    spread = max(vals) - min(vals)
    assert spread < 0.05


def test_green_square_torus_symmetry():
    c = make_context(1j)
    g1 = green_value(0.5, c)
    g2 = green_value(c.tau / 2, c)
    assert abs(g1 - g2) < 1e-10


def test_green_gradient_matches_hecke(ctx, rng):
    # -2 pi (G_x - i G_y) must reproduce Z; finite differences, step 1e-4
    h = 1e-4
    for _ in range(8):
        r, s = random_clear_rs(rng, margin=0.15)
        z = r + s * ctx.tau
        gx = (green_value(z + h, ctx) - green_value(z - h, ctx)) / (2 * h)
        gy = (green_value(z + 1j * h, ctx) - green_value(z - 1j * h, ctx)) / (2 * h)
        approx = -2 * math.pi * (gx - 1j * gy)
        assert abs(approx - hecke_Z(r, s, ctx)) < 1e-5


def test_hecke_trivial_zero_half_period(ctx):
    assert abs(hecke_Z(0.5, 0.0, ctx)) < 1e-12


def test_hecke_zero_third_period_hexagonal(ctx_rho):
    assert abs(hecke_Z(1 / 3, 1 / 3, ctx_rho)) < 1e-12


def test_hecke_nonvanishing_quarter_points():
    for tau in (1j, 1.7j, 0.2 + 1.1j):
        c = make_context(tau)
        assert abs(hecke_Z(0.75, 0.25, c)) > 1e-4
        assert abs(hecke_Z(1 / 6, 1 / 6, c)) > 1e-4


def test_hecke_qseries_agreement(rng):
    for _ in range(200):
        c = make_context(random_tau(rng))
        r, s = random_clear_rs(rng, margin=0.03)
        assert abs(hecke_Z(r, s, c) - hecke_Z_qseries(r, s, c)) < 1e-9


def test_hecke_modular_s_transform(rng):
    # Z_{t,s}(-1/tau) = tau * Z_{-s,t}(tau)
    for _ in range(10):
        tau = random_tau(rng, re=(-0.3, 0.6), im=(0.8, 1.6))
        t, s = random_clear_rs(rng, margin=0.1)
        c1 = make_context(-1 / tau)
        c2 = make_context(tau)
        lhs = hecke_Z_qseries(t, s, c1)
        rhs = tau * hecke_Z_qseries(-s, t, c2)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_hecke_modular_t_transform(rng):
    # tau -> tau + 1 keeps the lattice and sends (r, s) to (r + s, s):
    # the new second quasi-period is eta1 + eta2
    for _ in range(10):
        tau = random_tau(rng)
        r, s = random_clear_rs(rng, margin=0.1)
        lhs = hecke_Z_qseries(r, s, make_context(tau + 1))
        rhs = hecke_Z_qseries(r + s, s, make_context(tau))
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_hecke_rejects_lattice(ctx):
    with pytest.raises(PoleProximity):
        hecke_Z(0.0, 0.0, ctx)
    with pytest.raises(PoleProximity):
        hecke_Z_qseries(1.0, 1.0, ctx)


@pytest.mark.parametrize("r", [7e-4, 3e-4])
def test_newton_Z_seed_inside_clearance_is_a_failed_seed(ctx, r):
    # inside POLE_CLEARANCE, or inside half of it, a seed fails quietly
    # instead of escaping as PoleProximity
    assert _newton_Z(r, 0.0, ctx) is None


@pytest.mark.parametrize("tau,count", [(1.5j, 3), (2j, 3), (RHO, 5)])
def test_critical_point_counts(tau, count):
    cs = critical_points(make_context(tau))
    assert cs.count == count


def test_critical_points_hexagonal_extras(ctx_rho):
    cs = critical_points(ctx_rho)
    assert cs.extra_pair is not None
    p = cs.extra_pair[0]
    d = min(math.hypot(p.r - 1 / 3, p.s - 1 / 3),
            math.hypot(p.r - 2 / 3, p.s - 2 / 3))
    assert d < 1e-8


def test_critical_points_structure(rng):
    for _ in range(6):
        c = make_context(random_tau(rng))
        cs = critical_points(c)
        assert cs.count in (3, 5)
        rs = {(round(p.r, 6), round(p.s, 6)) for p in cs.points}
        for hp in HALF_PERIOD_RS:
            assert hp in rs
        if cs.extra_pair is not None:
            p, q = cs.extra_pair
            assert abs(hecke_Z(p.r, p.s, c)) < 1e-10
            assert abs((p.r + q.r) % 1.0) < 1e-6 or abs((p.r + q.r) % 1.0 - 1) < 1e-6
            assert abs((p.s + q.s) % 1.0) < 1e-6 or abs((p.s + q.s) % 1.0 - 1) < 1e-6


def test_critical_grid_precondition(ctx):
    with pytest.raises(ValueError):
        critical_points(ctx, grid=16)


@pytest.mark.parametrize("b", [0.7, 1.0, 2.0])
def test_classify_rectangular(b):
    assert classify_omega(make_context(b * 1j)) == "Omega3"


def test_classify_hexagonal_region():
    assert classify_omega(make_context(RHO)) == "Omega5"
    assert classify_omega(make_context(RHO + 0.3j)) == "Omega5"


def test_near_boundary_label():
    # the label fires when the extra pair has split less than 1e-6 from a
    # half-period; exercised on a synthetic critical set (driving tau onto
    # the boundary curve itself is out of scope)
    from lamelab.elliptic import TorusPoint
    from lamelab.green import CriticalSet, _omega_label

    c = make_context(1.3j)
    halves = [TorusPoint.from_rs(r, s, c) for r, s in HALF_PERIOD_RS]
    p = TorusPoint.from_rs(0.5 + 3e-7, 2e-7, c)
    q = p.negate(c)
    cs = CriticalSet(points=halves + [p, q], count=5, extra_pair=(p, q), tau=c.tau)
    assert _omega_label(cs, 1e-6) == "NearBoundary"
    far = TorusPoint.from_rs(0.31, 0.27, c)
    cs2 = CriticalSet(points=halves + [far, far.negate(c)], count=5,
                      extra_pair=(far, far.negate(c)), tau=c.tau)
    assert _omega_label(cs2, 1e-6) == "Omega5"


def test_critical_set_json(ctx_rho):
    import json

    cs = critical_points(ctx_rho)
    payload = json.loads(cs.to_json(classification="Omega5"))
    assert payload["schema"] == 1
    assert payload["count"] == 5
    assert len(payload["points"]) == 5
    assert payload["classification"] == "Omega5"


@pytest.mark.slow
def test_argument_principle_over_gamma0_2():
    """Z_{r,s} has a zero in the fundamental domain iff (r,s) lies in the
    open triangle [(1/3,1/3),(1/2,1/2),(0,1/2)]."""
    w_in = gamma0_2_winding(0.42, 0.45)
    assert abs(w_in - round(w_in)) < 1e-6
    assert round(w_in) == 1
    w_out = gamma0_2_winding(0.75, 0.25)
    assert abs(w_out - round(w_out)) < 1e-6
    assert round(w_out) == 0


# -- lockstep Newton against the sequential seed loop it replaced ---------------

def _critical_points_reference(ctx, grid=48):
    """Verbatim copy of the sequential critical_points: one _newton_Z run
    per seed, one after another."""
    from lamelab.elliptic import TorusPoint, zeta_many
    from lamelab.errors import NoConvergence
    from lamelab.green import CriticalSet, _winding_cells

    tau = ctx.tau
    rr = (np.arange(grid + 1) + 0.31) / grid        # offset avoids the corner pole
    ss = (np.arange(grid + 1) + 0.43) / grid
    R, S = np.meshgrid(rr, ss, indexing="ij")
    Zg = zeta_many(R + S * tau, ctx) - R * ctx.eta1 - S * ctx.eta2
    wind = _winding_cells(Zg)
    seeds = [((rr[i] + rr[i + 1]) / 2, (ss[j] + ss[j + 1]) / 2)
             for i, j in zip(*np.where(np.abs(wind) > 0.5))]
    seeds += list(HALF_PERIOD_RS)
    for hr, hs in HALF_PERIOD_RS:
        for rad in (3e-2, 3e-3, 3e-4, 3e-5, 3e-6):
            for k in range(4):
                ang = 2 * math.pi * (k + 0.5) / 4
                seeds.append((hr + rad * math.cos(ang), hs + rad * math.sin(ang)))
    found: list[tuple[float, float]] = []
    for r0, s0 in seeds:
        res = _newton_Z(r0, s0, ctx)
        if res is None:
            continue
        r1 = res[0] - math.floor(res[0])
        s1 = res[1] - math.floor(res[1])
        cand = (r1, s1)
        dup = False
        for (ra, sa) in found:
            for (rb, sb) in (cand, ((-cand[0]) % 1.0, (-cand[1]) % 1.0)):
                dr = min(abs(rb - ra), 1 - abs(rb - ra))
                ds = min(abs(sb - sa), 1 - abs(sb - sa))
                if math.hypot(dr, ds) < 1e-8:
                    dup = True
        if not dup:
            found.append(cand)
    halves, extras = [], []
    for (r1, s1) in found:
        if any(math.hypot(min(abs(r1 - hr), 1 - abs(r1 - hr)),
                          min(abs(s1 - hs), 1 - abs(s1 - hs))) < 1e-8
               for hr, hs in HALF_PERIOD_RS):
            halves.append((r1, s1))
        else:
            extras.append((r1, s1))
    if len(halves) != 3:
        raise NoConvergence(f"expected the 3 half-period zeros, found {len(halves)}")
    points = [TorusPoint.from_rs(round(hr * 2) / 2, round(hs * 2) / 2, ctx)
              for hr, hs in HALF_PERIOD_RS]
    extra_pair = None
    if extras:
        if len(extras) != 1:
            raise NoConvergence(f"unexpected extra zero structure: {extras}")
        p = TorusPoint.from_rs(*extras[0], ctx)
        extra_pair = (p, p.negate(ctx))
        points += [p, p.negate(ctx)]
    count = len(points)
    if count not in (3, 5):
        raise NoConvergence(f"critical point count {count} outside {{3, 5}}")
    return CriticalSet(points=points, count=count, extra_pair=extra_pair, tau=tau)


def test_critical_points_match_sequential_seed_loop():
    # band tori, Re tau in [0, 1] and Im tau in [0.5, 2.5], one in ten
    # rectangular, plus the tori the CLI examples and the other tests use
    rng = np.random.default_rng(31)
    taus = [complex(0.0 if k % 10 == 4 else rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.5))
            for k in range(200)]
    taus += [0.5 + 2.2j, 0.22 + 1.31j, 0.0625 + 0.875j]
    fives = 0
    for tau in taus:
        c = make_context(tau)
        ref = _critical_points_reference(c)
        cs = critical_points(c)
        assert cs.count == ref.count, tau
        fives += cs.count == 5
        for p, q in zip(cs.points, ref.points):
            assert abs(p.r - q.r) < 1e-12 and abs(p.s - q.s) < 1e-12, tau
    assert 0 < fives < len(taus)


def test_critical_points_newton_phase_is_batched(monkeypatch):
    import lamelab.green as green

    calls = []

    def counting(z, ctx, prime=False):
        calls.append(np.ndim(z))
        return kernel(z, ctx, prime)

    kernel = green._wp_zeta
    monkeypatch.setattr(green, "_wp_zeta", counting)
    cs = critical_points(make_context(0.5 + 2.2j))
    assert cs.count == 5
    # the winding grid goes through zeta_many; every Newton evaluation
    # here is an array call, one per lockstep round
    assert 0 < len(calls) <= 20 and all(d == 1 for d in calls)


def test_hecke_many_matches_scalar_and_clearance(ctx, rng):
    from lamelab.elliptic import wp
    from lamelab.green import _hecke_many

    pts = [random_clear_rs(rng, margin=0.0) for _ in range(40)]
    pts += [(7e-4, 0.0), (3e-4, 0.0), (1.0 - 1e-4, 1e-4), (0.5, 0.5), (2.3, -1.6)]
    vals = _hecke_many(pts, ctx)
    assert len(vals) == len(pts)
    inside = 0
    for (r, s), val in zip(pts, vals):
        try:
            want = hecke_Z(r, s, ctx)
        except PoleProximity:
            inside += 1
            assert val is None
            continue
        Z, p = val
        assert abs(Z - want) < 1e-12 * (1.0 + abs(want))
        w = wp(r + s * ctx.tau, ctx)
        assert abs(p - w) < 1e-12 * (1.0 + abs(w))
    assert inside == 3
