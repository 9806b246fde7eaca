"""The one damped-Newton routine, and the solvers routed through it
against verbatim copies of the loops they replaced."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from lamelab import SourceDivisor, build_system, make_context
from lamelab.elliptic import (
    POLE_CLEARANCE,
    _damped_newton,
    _damped_newton_many,
    _newton_wp,
    lattice_distance,
    weierstrass,
    zeta_w,
)
from lamelab.errors import PoleProximity
from lamelab.green import _newton_Z
from lamelab.polysys import _newton_system

GENERIC_POINTS = [(0.13, 0.21), (0.54, 0.39), (0.82, 0.70)]


@pytest.fixture(scope="module")
def ctx():
    return make_context(0.22 + 1.31j)


# -- the routine --------------------------------------------------------------

def test_quadratic_convergence_to_known_root():
    iterates = []

    def residual(x):
        iterates.append(x)
        return x * x - 2.0, None

    hit = _damped_newton(residual, lambda x, f, _: 2.0 * x, 1.5, 1e-15, 20)
    assert hit is not None
    root, (f, _) = hit
    assert abs(root - math.sqrt(2.0)) < 1e-15 and abs(f) < 1e-15
    errors = [abs(x - math.sqrt(2.0)) for x in iterates]
    # every full step is accepted, and each error is about the square of the last
    assert len(errors) <= 6
    for e0, e1 in zip(errors, errors[1:]):
        if e1 > 1e-15:
            assert e1 <= e0 * e0


def test_vector_system_root():
    # x^2 + y^2 = 4, x = y: the root (sqrt 2, sqrt 2) from (1, 2)
    def residual(v):
        return np.array([v[0] ** 2 + v[1] ** 2 - 4.0, v[0] - v[1]]), None

    def jacobian(v, f, _):
        return np.array([[2.0 * v[0], 2.0 * v[1]], [1.0, -1.0]])

    root, _ = _damped_newton(residual, jacobian, np.array([1.0, 2.0]), 1e-14, 30)
    assert np.max(np.abs(root - math.sqrt(2.0))) < 1e-14


def test_singular_jacobian_gives_none():
    calls = []

    def residual(x):
        calls.append(x)
        return x * x + 1.0, None

    assert _damped_newton(residual, lambda x, f, _: 2.0 * x, 0.0, 1e-12, 20) is None
    assert calls == [0.0]     # no trial step was attempted

    def residual2(v):
        return np.array([v[0] + v[1] - 1.0, v[0] + v[1] + 1.0]), None

    ones = np.ones((2, 2))
    assert _damped_newton(residual2, lambda v, f, _: ones, np.zeros(2), 1e-12, 20) is None


def test_infeasible_start_gives_none():
    def jacobian(x, f, _):
        raise AssertionError("no derivative at an infeasible start")

    assert _damped_newton(lambda x: None, jacobian, 0.3, 1e-12, 20) is None


def test_step_cap_and_feasibility_respected():
    iterates = []

    def residual(x):
        if x.real > 10.5:          # an infeasible region the line search avoids
            return None
        iterates.append(x)
        return x - 10.0, None

    hit = _damped_newton(residual, lambda x, f, _: 1.0, 0j, 1e-12, 40, cap=0.5)
    assert hit is not None and abs(hit[0] - 10.0) < 1e-12
    steps = [abs(b - a) for a, b in zip(iterates, iterates[1:])]
    assert len(steps) >= 20 and max(steps) <= 0.5 + 1e-15


def test_budget_and_final_tolerance():
    # f = x^3 converges only linearly: 5 steps do not reach 1e-30, but the
    # last iterate passes a looser final tolerance
    def residual(x):
        return x**3, None

    def slope(x, f, _):
        return 3.0 * x * x

    assert _damped_newton(residual, slope, 1.0, 1e-30, 5) is None
    root, _ = _damped_newton(residual, slope, 1.0, 1e-30, 5, final_tol=1e-2)
    assert root == pytest.approx((2.0 / 3.0) ** 5)


# -- the lockstep driver against one run per start ---------------------------

def _cubic(x):
    # x^3 = 8 with the real root walled off (Re x > 1 is infeasible), so a
    # start on the wall finds no feasible halving; |x| > 4 is infeasible too
    if x.real > 1.0 or abs(x) > 4.0:
        return None
    return x**3 - 8.0, 3.0 * x * x


def _circle_line(v):
    return np.array([v[0] ** 2 + v[1] ** 2 - 4.0, v[0] - v[1]]), None


def _circle_line_jacobian(v, f, _):
    # singular on v[0] = -v[1]
    return np.array([[2.0 * v[0], 2.0 * v[1]], [1.0, -1.0]])


def _per_point(residual, calls):
    def residual_many(xs):
        calls.append(len(xs))
        return [residual(x) for x in xs]
    return residual_many


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    (xa, (fa, da)), (xb, (fb, db)) = a, b
    return (np.array_equal(xa, xb) and np.array_equal(fa, fb)
            and (da is db or np.array_equal(da, db)))


@pytest.mark.parametrize("kwargs", [{}, {"cap": 0.7}, {"final_tol": 1e-6}])
def test_many_matches_single_runs_scalar(kwargs):
    rng = np.random.default_rng(21)
    starts = [complex(*v) for v in rng.uniform([-3.0, -3.0], [1.0, 3.0], size=(60, 2))]
    # zero derivative, infeasible, on the wall (every halving infeasible)
    starts[7:7] = [0j, 5.0 + 0j, 1.0 + 0j]
    slope = lambda x, f, d: d  # noqa: E731
    calls = []
    many = _damped_newton_many(_per_point(_cubic, calls), slope, starts, 1e-14, 6, **kwargs)
    single = [_damped_newton(_cubic, slope, x, 1e-14, 6, **kwargs) for x in starts]
    assert len(many) == len(starts)
    assert all(_same(a, b) for a, b in zip(many, single))
    assert many[7] is None and many[8] is None and many[9] is None
    # six steps leave about half the starts short of 1e-14; final_tol
    # accepts most of them, the cap fewer
    hits = sum(h is not None for h in many)
    assert 20 <= hits < len(starts)
    # one call for the starts, then one per round, each smaller or equal
    assert calls[0] == len(starts) and calls == sorted(calls, reverse=True)


@pytest.mark.parametrize("kwargs", [{}, {"cap": 0.3}, {"final_tol": 1e-6}])
def test_many_matches_single_runs_2x2(kwargs):
    rng = np.random.default_rng(22)
    starts = list(rng.normal(scale=3.0, size=(60, 2)))
    starts[5:5] = [np.array([1.0, -1.0]), np.array([-2.5, 2.5])]   # singular
    many = _damped_newton_many(_per_point(_circle_line, []), _circle_line_jacobian,
                               starts, 1e-14, 6, **kwargs)
    single = [_damped_newton(_circle_line, _circle_line_jacobian, x, 1e-14, 6, **kwargs)
              for x in starts]
    assert all(_same(a, b) for a, b in zip(many, single))
    assert many[5] is None and many[6] is None
    hits = sum(h is not None for h in many)
    assert 0 < hits < len(starts)


def test_many_failing_start_leaves_others_untouched():
    slope = lambda x, f, d: d  # noqa: E731
    good = [-1.5 + 1.2j, -0.5 - 2.0j, 0.3 + 0.4j]
    bad = [0j, 5.0 + 0j, 1.0 + 0j]
    alone = _damped_newton_many(_per_point(_cubic, []), slope, good, 1e-14, 30)
    mixed = _damped_newton_many(_per_point(_cubic, []), slope,
                                [bad[0], good[0], bad[1], good[1], bad[2], good[2]], 1e-14, 30)
    assert all(h is not None for h in alone)
    assert mixed[0] is None and mixed[2] is None and mixed[4] is None
    assert all(_same(a, b) for a, b in zip(alone, mixed[1::2]))


def test_one_line_search_in_src():
    # the only Newton loop in the package is _newton_run's
    src = Path(__file__).resolve().parents[1] / "src" / "lamelab"
    halvings = [f"{p.name}:{n}" for p in sorted(src.glob("*.py"))
                for n, line in enumerate(p.read_text().splitlines(), 1)
                if "lam *= 0.5" in line]
    assert len(halvings) == 1, halvings


# -- verbatim copies of the loops the routine replaced --------------------------

def _newton_Z_reference(r, s, ctx, iters=60):
    tau = ctx.tau
    val = None   # Z at (r, s) when the line search already has it
    for _ in range(iters):
        z = r + s * tau
        if lattice_distance(z, ctx) < POLE_CLEARANCE / 2:
            return None
        if val is None:
            val = zeta_w(z, ctx) - r * ctx.eta1 - s * ctx.eta2
        if abs(val) < 1e-13:
            return r, s
        p, _ = weierstrass(z, ctx)
        zr = -p - ctx.eta1
        zs = -p * tau - ctx.eta2
        jac = np.array([[zr.real, zs.real], [zr.imag, zs.imag]])
        try:
            step = np.linalg.solve(jac, np.array([val.real, val.imag]))
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        base = abs(val)
        for _ in range(25):
            rn, sn = r - lam * step[0], s - lam * step[1]
            zn = rn + sn * tau
            if lattice_distance(zn, ctx) >= POLE_CLEARANCE / 2:
                vn = zeta_w(zn, ctx) - rn * ctx.eta1 - sn * ctx.eta2
                if abs(vn) < base:
                    break
            lam *= 0.5
        else:
            return None
        r, s, val = rn, sn, vn
    if val is None:
        val = zeta_w(r + s * tau, ctx) - r * ctx.eta1 - s * ctx.eta2
    return (r, s) if abs(val) < 1e-11 else None


def _newton_wp_reference(a, x, ctx, tol):
    scale = 1.0 + abs(x)
    val = None   # (wp, wp') at a when the line search already has it
    for _ in range(60):
        if lattice_distance(a, ctx) < POLE_CLEARANCE / 4.0:
            return None
        p, pp = val or weierstrass(a, ctx)
        val = None
        f = p - x
        if abs(f) < tol * scale:
            return a
        if abs(pp) < 1e-13 * (1.0 + abs(p)) ** 1.5:
            # critical point of wp: nudge off and keep going
            a += 0.01 * cmath.exp(2j * math.pi * abs(f))
            continue
        step = f / pp
        lam, base = 1.0, abs(f)
        for _ in range(30):
            an = a - lam * step
            if lattice_distance(an, ctx) >= POLE_CLEARANCE / 4.0:
                val = weierstrass(an, ctx)
                if abs(val[0] - x) < base:
                    break
            lam *= 0.5
        else:
            return None
        a = an
    p, _ = val or weierstrass(a, ctx)
    return a if abs(p - x) < tol * scale else None


def _newton_system_reference(polys, grads, v0, iters):
    v = np.array(v0, dtype=complex)
    for _ in range(iters):
        f = np.array([p.evaluate(v) for p in polys])
        if np.max(np.abs(f)) < 1e-13:
            return v
        J = np.array([[g.evaluate(v) for g in row] for row in grads])
        try:
            dv = np.linalg.solve(J, f)
        except np.linalg.LinAlgError:
            return None
        lam, base = 1.0, np.linalg.norm(f)
        for _ in range(30):
            vn = v - lam * dv
            fn = np.array([p.evaluate(vn) for p in polys])
            if np.linalg.norm(fn) < base:
                break
            lam *= 0.5
        else:
            return None
        v = vn
    f = np.array([p.evaluate(v) for p in polys])
    return v if np.max(np.abs(f)) < 1e-11 else None


def _reference_or_none(fn, *args):
    try:
        return fn(*args)
    except PoleProximity:      # the old guards let some trials escape
        return None


def test_newton_Z_matches_reference_loop(ctx):
    rng = np.random.default_rng(11)
    starts = [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(200)]
    starts += [(0.5 + 1e-3 * math.cos(k), 0.5 + 1e-3 * math.sin(k)) for k in range(20)]
    converged = 0
    for r, s in starts:
        ref = _reference_or_none(_newton_Z_reference, r, s, ctx)
        if ref is not None:
            converged += 1
            assert _newton_Z(r, s, ctx) == ref
    assert converged >= 50


def test_newton_wp_matches_reference_loop(ctx):
    rng = np.random.default_rng(12)
    # targets wp(b) of random points and of the half-periods, starts nearby,
    # far away, and on the critical point (1 + tau)/2 that wp_inverse's seed
    # grid holds
    half = [0.5, 0.5 * ctx.tau, 0.5 + 0.5 * ctx.tau]
    targets = half + [rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * ctx.tau
                      for _ in range(80)]
    converged = 0
    for b in targets:
        x = weierstrass(b, ctx)[0]
        for a in (b + 0.05 * complex(*rng.normal(size=2)),
                  rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * ctx.tau,
                  0.5 + 0.5 * ctx.tau):
            ref = _reference_or_none(_newton_wp_reference, a, x, ctx, 1e-11)
            if ref is not None:
                converged += 1
                assert _newton_wp(a, x, ctx, 1e-11) == ref
    assert converged >= 150


@pytest.mark.parametrize("weights", [[1, 1, 1], [3, 1, 1]])
def test_newton_system_matches_reference_loop(ctx, weights):
    polys = build_system(SourceDivisor.from_rs(GENERIC_POINTS, weights, ctx), ctx)
    nv = polys[0].nvars
    grads = [[p.partial(i) for i in range(nv)] for p in polys]
    rng = np.random.default_rng(13)
    converged = 0
    for _ in range(400):
        v0 = (rng.standard_normal(nv) + 1j * rng.standard_normal(nv)) * 3.0
        ref = _newton_system_reference(polys, grads, v0, 80)
        if ref is not None:
            converged += 1
            new = _newton_system(polys, grads, v0)
            assert new is not None and np.array_equal(new, ref)
    assert converged >= 100
