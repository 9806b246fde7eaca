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
