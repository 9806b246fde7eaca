import cmath
import contextlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lamelab import (
    LameParams,
    SolveConfig,
    SourceDivisor,
    TorusPoint,
    build_system,
    classify_projective,
    find_type2,
    hermite_halphen,
    local_monodromy,
    make_context,
    monodromy_pair,
    period_integral,
    point_on_Xn,
    potential,
    solve_system,
    symmetric_reduce,
    transport,
    u_density,
    unitarizable,
    weierstrass,
    zeta_w,
)
from lamelab.curves import hermite_halphen_logderiv
from lamelab.errors import (
    CriticalPointOfF,
    HalfPeriodInput,
    NotDiagonalizable,
    PathTooClose,
    PoleProximity,
)
from lamelab import monodromy
from lamelab.elliptic import POLE_CLEARANCE, lattice_distance, taylor_data
from lamelab.monodromy import (
    CLEARANCE_RADIUS,
    MonodromyPair,
    _clear_period_bases,
    _potential_rows,
    _step_matrices,
    _walk,
    choose_base_point,
    path_with_detours,
    period_crosscheck,
    period_integral_quadrature,
)

GENERIC_POINTS = [(0.13, 0.21), (0.54, 0.39), (0.82, 0.70)]


@pytest.fixture(scope="module")
def ctx():
    return make_context(0.22 + 1.31j)


@pytest.fixture(scope="module")
def L111(ctx):
    return SourceDivisor.from_rs(GENERIC_POINTS, [1, 1, 1], ctx)


@pytest.fixture(scope="module")
def roots_l3(ctx, L111):
    return solve_system(L111, ctx, SolveConfig(seed=1, max_starts=900))


def lame_divisor(ctx):
    return SourceDivisor.from_rs([(0.0, 0.0)], [2], ctx)


def test_potential_elliptic_when_admissible(ctx, L111, roots_l3):
    params = roots_l3[0]
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * ctx.tau
        try:
            v0 = potential(z, L111, params, ctx)
            v1 = potential(z + 1, L111, params, ctx)
            v2 = potential(z + ctx.tau, L111, params, ctx)
        except Exception:
            continue
        assert abs(v1 - v0) < 1e-9 * (1 + abs(v0))
        assert abs(v2 - v0) < 1e-9 * (1 + abs(v0))


def test_potential_classical_lame_shape(ctx):
    L = lame_divisor(ctx)
    params = LameParams(A=[0.0], B=1.7 - 0.2j)
    z = 0.31 + 0.41 * ctx.tau
    expect = 2.0 * weierstrass(z, ctx)[0] + params.B
    assert abs(potential(z, L, params, ctx) - expect) < 1e-12 * (1 + abs(expect))


def _potential_reference(z, L, params, ctx):
    total = complex(params.B)
    for p, w, a in zip(L.points, L.weights, params.A):
        eta = w / 2.0
        total += eta * (eta + 1.0) * weierstrass(z - p.z, ctx)[0] + a * zeta_w(z - p.z, ctx)
    return total


@pytest.mark.parametrize("weights", [(1, 1, 1), (3, 1, 1), (1, 1, 1, 1, 1)])
def test_potential_matches_per_source_sum(ctx, rng, weights):
    pts = GENERIC_POINTS + [(0.31, 0.83), (0.67, 0.12)]
    L = SourceDivisor.from_rs(pts[:len(weights)], weights, ctx)
    A = list(rng.normal(size=L.N) + 1j * rng.normal(size=L.N))
    params = LameParams(A=A, B=complex(rng.normal(), rng.normal()))
    for _ in range(40):
        z = rng.uniform(-1.5, 2.5) + rng.uniform(-1.5, 2.5) * ctx.tau
        if min(lattice_distance(z - p.z, ctx) for p in L.points) < 0.02:
            continue
        want = _potential_reference(z, L, params, ctx)
        assert abs(potential(z, L, params, ctx) - want) < 1e-12 * abs(want)


def test_potential_raises_inside_clearance(ctx, L111, roots_l3):
    p = L111.points[1].z
    for z in (p, p + 0.5 * POLE_CLEARANCE * cmath.exp(0.3j), p - 2.0 + ctx.tau + 1e-4j):
        with pytest.raises(PoleProximity):
            potential(z, L111, roots_l3[0], ctx)


def test_potential_leading_singularity(ctx, L111, roots_l3):
    # Laurent coefficient of (z - p_i)^(-2) is eta_i (eta_i + 1) = 3/4
    params = roots_l3[0]
    p = L111.points[0].z
    fits = []
    for t in (4e-3, 2e-3):
        d = t * cmath.exp(0.37j)
        fits.append(potential(p + d, L111, params, ctx) * d * d)
    assert abs(fits[1] - 0.75) < 5e-2
    assert abs(fits[1] - 0.75) < abs(fits[0] - 0.75) + 1e-3


def test_transport_contractible_loop(ctx, L111, roots_l3):
    z0 = choose_base_point(L111, ctx)
    r = 0.035
    loop = [z0 + r * cmath.exp(2j * math.pi * k / 24) for k in range(25)]
    M = transport(loop, L111, roots_l3[0], ctx)
    assert np.max(np.abs(M - np.eye(2))) < 1e-8


def test_transport_composition(ctx, L111, roots_l3):
    z0 = choose_base_point(L111, ctx)
    mid = z0 + 0.21 + 0.07 * ctx.tau
    end = z0 + 0.05 + 0.23 * ctx.tau
    M_full = transport([z0, mid, end], L111, roots_l3[0], ctx)
    M1 = transport([z0, mid], L111, roots_l3[0], ctx)
    M2 = transport([mid, end], L111, roots_l3[0], ctx)
    assert np.max(np.abs(M_full - M2 @ M1)) < 1e-8 * (1 + np.max(np.abs(M_full)))


def test_transport_wronskian(ctx, L111, roots_l3):
    z0 = choose_base_point(L111, ctx)
    M = transport([z0, z0 + 0.4 + 0.2 * ctx.tau], L111, roots_l3[0], ctx)
    assert abs(np.linalg.det(M) - 1.0) < 1e-9 * abs(np.linalg.det(M))


def test_transport_rejects_close_paths(ctx, L111, roots_l3):
    p = L111.points[0].z
    with pytest.raises(PathTooClose):
        transport([p - 0.002, p + 0.002], L111, roots_l3[0], ctx)


def test_transport_pole_proximity_between_samples(ctx, L111, roots_l3):
    # the 9 samples, 0.015 apart, clear 0.0055; the segment passes 0.002 away
    p = L111.points[0].z + 0.002j
    with pytest.raises(PoleProximity):
        transport([p - 0.0075, p + 0.1125], L111, roots_l3[0], ctx)
    # with no clearance the steps shrink onto the source until z stops moving
    p = L111.points[0].z
    with pytest.raises(PoleProximity):
        transport([p - 0.05, p + 0.75], L111, roots_l3[0], ctx, clearance=1e-300)


def _integrate_reference(curve, t_end, Y, L, params, ctx, clearance, rtol, atol):
    """The DOP853 integrator that the Taylor stepper replaced, verbatim but
    for the failure, which raised the integrator's own error."""
    def rhs(t, y):
        z, dz = curve(t)
        Iv = monodromy.potential(z, L, params, ctx, clearance=clearance)
        return dz * np.array((y[2], y[3], Iv * y[0], Iv * y[1]))

    sol = monodromy.solve_ivp(rhs, (0.0, t_end), Y.reshape(-1), method="DOP853",
                              rtol=rtol, atol=atol)
    if not sol.success:
        raise AssertionError(f"integrator failed from {curve(0.0)[0]}: {sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def _pair_reference(L, params, ctx):
    z0 = choose_base_point(L, ctx)
    out = []
    for omega in (1.0 + 0j, ctx.tau):
        pts = [complex(p) for p in path_with_detours(z0, omega, L, ctx)]
        Y = np.eye(2, dtype=complex)
        for za, zb in zip(pts[:-1], pts[1:]):
            Y = _integrate_reference(lambda t, za=za, dz=zb - za: (za + t * dz, dz), 1.0, Y,
                                     L, params, ctx, 0.275 * CLEARANCE_RADIUS, 1e-12, 1e-12)
        out.append(Y)
    return MonodromyPair(S1=out[0], S2=out[1], base=z0, residual=0.0)


def _local_reference(p, L, params, ctx):
    radius = min([CLEARANCE_RADIUS] + [0.4 * lattice_distance(p.z - q.z, ctx)
                                       for q in L.points if q is not p])

    def circle(t):
        e = radius * cmath.exp(1j * t)
        return p.z + e, 1j * e

    return _integrate_reference(circle, 2.0 * math.pi, np.eye(2, dtype=complex), L, params,
                                ctx, 0.25 * radius, 1e-12, 1e-12)


def _local_circle_reference(p_i, L, params, ctx, radius=None):
    """The chord circle that the Frobenius expansion replaced, verbatim but
    for the module prefixes: transport around p_i + radius e^{i theta},
    stepped along chords whose end points lie on the circle."""
    zc = p_i.z if isinstance(p_i, TorusPoint) else complex(p_i)
    others = [d for d in (monodromy.lattice_distance(zc - p.z, ctx) for p in L.points)
              if d > 1e-9]
    if radius is None:
        radius = min([CLEARANCE_RADIUS] + [0.4 * d for d in others])
    clearance = 0.5 * radius
    # exact: the circle is radius from its centre and d - radius from a source
    # at lattice distance d (negative when the circle encloses it)
    gap = min([radius] + [d - radius for d in others])
    if gap <= clearance:
        raise PathTooClose(f"circle of radius {radius:.2e} is {gap:.2e} from a singular translate")
    n = math.ceil(2.0 * math.pi / monodromy._STEP)
    pts = zc + radius * np.exp(2j * math.pi * np.arange(n + 1) / n)
    pts[-1] = pts[0]
    return monodromy._carry([pts], L, params, ctx, 0.5 * clearance)[0]


@pytest.fixture(scope="module")
def criterion7_roots(ctx):
    """The root sets of acceptance criterion 7."""
    L3 = SourceDivisor.from_rs(GENERIC_POINTS, [1, 1, 1], ctx)
    L311 = SourceDivisor.from_rs(GENERIC_POINTS, [3, 1, 1], ctx)
    L1 = SourceDivisor.from_rs([(0.0, 0.0)], [3], ctx)
    p = 0.23 + 0.31 * ctx.tau
    Lsym = SourceDivisor(points=(TorusPoint.from_z(p, ctx), TorusPoint.from_z(-p, ctx),
                                 TorusPoint.from_rs(0.0, 0.0, ctx)), weights=(1, 1, 1))
    return [(L3, solve_system(L3, ctx, SolveConfig(seed=1, max_starts=1200))),
            (L311, solve_system(L311, ctx, SolveConfig(seed=1, max_starts=2500))),
            (L1, solve_system(L1, ctx, SolveConfig(seed=1, max_starts=500))),
            (Lsym, symmetric_reduce(Lsym, ctx, SolveConfig(seed=2, max_starts=400))[2])]


def test_taylor_transport_matches_dop853_on_criterion7_roots(ctx, criterion7_roots):
    count = 0
    for L, sols in criterion7_roots:
        for params in sols:
            mp, ref = monodromy_pair(L, params, ctx), _pair_reference(L, params, ctx)
            for S, R in ((mp.S1, ref.S1), (mp.S2, ref.S2)):
                assert np.max(np.abs(S - R)) < 1e-10 * np.max(np.abs(R))
            assert classify_projective(mp) == classify_projective(ref) == "K4"
            for p in L.points:
                M = local_monodromy(p, L, params, ctx)
                assert np.max(np.abs(M - _local_reference(p, L, params, ctx))) < 1e-9
            count += 1
    assert count == 16


def _steps(L, params, ctx):
    z0 = choose_base_point(L, ctx)
    for omega in (1.0 + 0j, ctx.tau):
        yield _walk(np.array(path_with_detours(z0, omega, L, ctx)), L, ctx,
                    0.275 * CLEARANCE_RADIUS)


def test_potential_rows_match_potential_and_taylor_data(ctx, criterion7_roots):
    for L, sols in criterion7_roots:
        params = sols[0]
        for z, h in _steps(L, params, ctx):
            rows = _potential_rows(z, np.ones_like(h), L, params, ctx)
            for zj, row in zip(z, rows):
                want = potential(zj, L, params, ctx)
                assert abs(row[0] - want) < 1e-13 * abs(want)
            rows = _potential_rows(z, h, L, params, ctx)
            order = np.arange(rows.shape[1])
            for zj, hj, row in list(zip(z, h, rows))[::5]:
                want = complex(params.B) * (order == 0)
                for p, w, a in zip(L.points, L.weights, params.A):
                    want = want + (w / 2.0) * (w / 2.0 + 1.0) * taylor_data(
                        "wp", zj, p.z, order[-1], ctx) + a * taylor_data(
                        "zeta", zj, p.z, order[-1], ctx)
                want = want * hj ** order
                assert np.max(np.abs(row - want)) < 1e-11 * np.max(np.abs(want))


def test_step_matrices_are_unimodular(ctx, criterion7_roots):
    for L, sols in criterion7_roots:
        for params in sols:
            for z, h in _steps(L, params, ctx):
                T = _step_matrices(z, h, L, params, ctx)
                assert np.max(np.abs(np.linalg.det(T) - 1.0)) < 1e-13


def test_residual_is_worst_determinant_defect(ctx, criterion7_roots):
    for L, sols in criterion7_roots:
        mp = monodromy_pair(L, sols[0], ctx)
        assert mp.residual == max(abs(np.linalg.det(S) - 1.0) for S in (mp.S1, mp.S2))


def _choose_base_point_reference(L, ctx):
    tau = ctx.tau
    best, best_d = None, -1.0
    for r in np.linspace(0.04, 0.96, 23):
        for s in np.linspace(0.04, 0.96, 23):
            z0 = r + s * tau
            d = math.inf
            for omega in (1.0, tau):
                u = omega / abs(omega)
                z1 = z0 + omega
                for p in L.points:
                    for m in range(-3, 4):
                        for n in range(-3, 4):
                            q = p.z + m + n * tau
                            if not (min(z0.real, z1.real) - 0.3 <= q.real
                                    <= max(z0.real, z1.real) + 0.3
                                    and min(z0.imag, z1.imag) - 0.3 <= q.imag
                                    <= max(z0.imag, z1.imag) + 0.3):
                                continue
                            t = min(max(((q - z0) / u).real, 0.0), abs(omega))
                            d = min(d, abs(z0 + t * u - q))
            d = min(d, min(lattice_distance(z0 - p.z, ctx) for p in L.points))
            if d > best_d:
                best_d, best = d, z0
    return best


@pytest.mark.parametrize("tau", [0.22 + 1.31j, 1.2j])
def test_choose_base_point_matches_reference_loop(tau):
    c = make_context(tau)
    divisors = [
        SourceDivisor.from_rs(GENERIC_POINTS, [1, 1, 1], c),
        SourceDivisor.from_rs(GENERIC_POINTS, [3, 1, 1], c),
        SourceDivisor.from_rs([(0.0, 0.0)], [2], c),
    ]
    for L in divisors:
        assert choose_base_point(L, c) == _choose_base_point_reference(L, c)


def test_import_defers_scipy():
    import lamelab

    src = os.path.dirname(os.path.dirname(os.path.abspath(lamelab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, lamelab, lamelab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_transport_runs_without_scipy():
    import lamelab

    src = os.path.dirname(os.path.dirname(os.path.abspath(lamelab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\n"
            "from lamelab import *\n"
            "ctx = make_context(0.22 + 1.31j)\n"
            "L = SourceDivisor.from_rs([(0.0, 0.0)], [2], ctx)\n"
            "params = LameParams(A=[0.0], B=0.83 + 0.41j)\n"
            "monodromy_pair(L, params, ctx)\n"
            "local_monodromy(L.points[0], L, params, ctx)\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_monodromy_requires_admissible(ctx, L111):
    with pytest.raises(ValueError):
        monodromy_pair(L111, LameParams(A=[1.0, 0.0, 0.0], B=0.0), ctx)


def test_commutator_and_class_all_roots(ctx, L111, roots_l3):
    for params in roots_l3:
        mp = monodromy_pair(L111, params, ctx)
        assert mp.commutator_defect(L111.ell) < 1e-6
        assert mp.anticommutator_defect() < 1e-6
        assert classify_projective(mp) == "K4"


def test_trace_invariance_under_base_change(ctx, L111, roots_l3):
    params = roots_l3[1]
    z0 = choose_base_point(L111, ctx)
    mp1 = monodromy_pair(L111, params, ctx, z0=z0)
    mp2 = monodromy_pair(L111, params, ctx, z0=z0 + 0.13 + 0.11 * ctx.tau)
    for a, b in ((mp1.S1, mp2.S1), (mp1.S2, mp2.S2)):
        assert abs(np.trace(a) - np.trace(b)) < 1e-6 * (1 + np.linalg.norm(a))


def test_path_independence_of_detour_radius(ctx, L111, roots_l3):
    params = roots_l3[0]
    z0 = choose_base_point(L111, ctx)
    p1 = path_with_detours(z0, 1.0 + 0j, L111, ctx, radius=0.01)
    p2 = path_with_detours(z0, 1.0 + 0j, L111, ctx, radius=0.02)
    M1 = transport(p1, L111, params, ctx, clearance=4e-3)
    M2 = transport(p2, L111, params, ctx, clearance=4e-3)
    assert np.max(np.abs(M1 - M2)) < 1e-7 * (1 + np.max(np.abs(M1)))


def test_local_monodromy_log_free_certificate(ctx, L111, roots_l3):
    params = roots_l3[0]
    M = local_monodromy(L111.points[0], L111, params, ctx)
    assert np.max(np.abs(M + np.eye(2))) < 1e-5


def test_local_monodromy_matches_polyline_transport(ctx, L111, roots_l3):
    params = roots_l3[0]
    for p in L111.points:
        radius = min(0.01, min(0.4 * lattice_distance(p.z - q.z, ctx)
                               for q in L111.points if q is not p))
        polygon = [p.z + radius * cmath.exp(2j * math.pi * k / 48) for k in range(49)]
        M_poly = transport(polygon, L111, params, ctx, clearance=0.5 * radius)
        M = local_monodromy(p, L111, params, ctx)
        assert np.max(np.abs(M - M_poly)) < 1e-8


def test_local_monodromy_rejects_circle_near_source(ctx, L111, roots_l3):
    with pytest.raises(PathTooClose):
        local_monodromy(L111.points[0], L111, roots_l3[0], ctx, radius=0.45)


def test_local_monodromy_clearance_test_is_exact(ctx, L111, roots_l3):
    # the circle clears the nearest other source by d - r, against r / 2
    p = L111.points[0]
    d = min(lattice_distance(p.z - q.z, ctx) for q in L111.points[1:])
    with pytest.raises(PathTooClose):
        local_monodromy(p, L111, roots_l3[0], ctx, radius=d / 1.5 * (1 + 1e-9))
    M = local_monodromy(p, L111, roots_l3[0], ctx, radius=d / 1.5 * (1 - 1e-9))
    assert np.max(np.abs(M + np.eye(2))) < 1e-5


def test_local_monodromy_even_weight_identity(ctx):
    # classical Lame l = 2 is log-free for every B: +I around the source
    L = lame_divisor(ctx)
    params = LameParams(A=[0.0], B=0.83 + 0.41j)
    M = local_monodromy(L.points[0], L, params, ctx)
    assert np.max(np.abs(M - np.eye(2))) < 1e-5


def test_local_monodromy_detects_log_terms(ctx, L111, roots_l3):
    # perturbing a root off the variety brings back the logarithm
    params = roots_l3[0]
    bad = LameParams(A=[params.A[0] + 0.01, params.A[1] - 0.01, params.A[2]],
                     B=params.B)
    M = local_monodromy(L111.points[0], L111, bad, ctx)
    defect = np.max(np.abs(M + np.eye(2)))
    assert defect > 1e-3


def _relative_gap(M, R):
    return np.max(np.abs(M - R)) / np.max(np.abs(R))


def _random_params(rng, n):
    A = rng.normal(size=n) + 1j * rng.normal(size=n)
    return LameParams(A=list(A - A.mean()), B=complex(rng.normal(), rng.normal()))


@pytest.mark.parametrize("weights", [(1, 1, 1), (3, 1, 1), (5, 3, 1), (2, 1, 1),
                                     (1, 1, 1, 1, 1)])
def test_frobenius_resonance_is_minus_obstruction(ctx, rng, weights):
    # the resonance of the exponent -l_i/2 is the obstruction F_i of build_system
    L = SourceDivisor.from_rs(TEMPLATE_5[:len(weights)], weights, ctx)
    system = build_system(L, ctx)
    for _ in range(4):
        A = rng.normal(size=L.N) + 1j * rng.normal(size=L.N)
        params = LameParams(A=list(A), B=complex(rng.normal(), rng.normal()))
        for p, F in zip(L.points, system[1:]):
            omega = monodromy._frobenius(p, L, params, ctx, CLEARANCE_RADIUS)[3]
            want = -F.evaluate(list(A) + [params.B])
            assert abs(omega - want) < 1e-10 * abs(want)


def test_frobenius_matches_circle_on_criterion7_and_template_roots(ctx, criterion7_roots):
    L5 = SourceDivisor.from_rs(TEMPLATE_5, [1] * 5, ctx)
    count = 0
    for L, sols in criterion7_roots + [(L5, solve_system(L5, ctx, SolveConfig(seed=1)))]:
        for params in sols:
            for p in L.points:
                M = local_monodromy(p, L, params, ctx)
                assert _relative_gap(M, _local_circle_reference(p, L, params, ctx)) < 1e-9
            count += 1
    assert count > 16


@pytest.mark.parametrize("tau", [0.22 + 1.31j, 1.2j, 0.5 + 2.2j, 0.4 + 0.6j])
def test_frobenius_matches_circle_on_random_parameters(tau):
    c = make_context(tau)
    rng = np.random.default_rng(11)
    for weights in ((2,), (3,), (6,), (2, 2), (5, 3, 1), (7, 1, 1)):
        points = [(0.0, 0.0)] if len(weights) == 1 else GENERIC_POINTS[:len(weights)]
        L = SourceDivisor.from_rs(points, weights, c)
        for _ in range(3):
            params = _random_params(rng, L.N)
            for radius in (None, 0.05):
                for p in L.points:
                    M = local_monodromy(p, L, params, c, radius)
                    R = _local_circle_reference(p, L, params, c, radius)
                    assert _relative_gap(M, R) < 1e-9


def test_frobenius_log_defect_matches_circle(ctx, L111, roots_l3):
    params = roots_l3[0]
    bad = LameParams(A=[params.A[0] + 0.01, params.A[1] - 0.01, params.A[2]], B=params.B)
    p = L111.points[0]
    M, R = local_monodromy(p, L111, bad, ctx), _local_circle_reference(p, L111, bad, ctx)
    assert _relative_gap(M, R) < 1e-9
    defect = np.max(np.abs(M + np.eye(2)))
    assert abs(defect - np.max(np.abs(R + np.eye(2)))) < 1e-9 * defect


def test_frobenius_keeps_the_circle_contract(ctx, rng):
    # a lone [3] source: its own translates, 1 away, bound the radius
    L = SourceDivisor.from_rs([(0.0, 0.0)], [3], ctx)
    params = _random_params(rng, 1)
    for radius in (0.3, 0.6):
        M = local_monodromy(L.points[0], L, params, ctx, radius)
        R = _local_circle_reference(L.points[0], L, params, ctx, radius)
        assert _relative_gap(M, R) < 1e-9
    for radius in (0.9, 1.2):
        for local in (local_monodromy, _local_circle_reference):
            with pytest.raises(PoleProximity):
                local(L.points[0], L, params, ctx, radius)


def test_frobenius_at_source_translates_matches_circle(ctx, rng):
    # a translate's zeta carries the quasi-periods, which the expansion adds
    L = SourceDivisor.from_rs(GENERIC_POINTS, [3, 1, 1], ctx)
    params = _random_params(rng, L.N)
    for p in L.points:
        for shift in (1.0, ctx.tau, 2.0 * ctx.tau - 1.0):
            M = local_monodromy(p.z + shift, L, params, ctx)
            assert _relative_gap(M, _local_circle_reference(p.z + shift, L, params, ctx)) < 1e-9


def test_local_monodromy_off_source_is_identity(ctx, L111, roots_l3):
    M = local_monodromy(0.4 + 0.3 * ctx.tau, L111, roots_l3[0], ctx)
    assert np.array_equal(M, np.eye(2))


def test_classify_unipotent_pair():
    S1 = np.array([[1.0, 1.3], [0.0, 1.0]], dtype=complex)
    S2 = np.array([[1.0, -0.4], [0.0, 1.0]], dtype=complex)
    mp = MonodromyPair(S1=S1, S2=S2, base=0.0, residual=0.0)
    assert classify_projective(mp) == "AbelianUnipotent"
    with pytest.raises(NotDiagonalizable):
        unitarizable(mp)


def test_lame_monodromy_diagonal_and_eigenvector(ctx):
    # w_a spans an eigenvector of S_1; its initial data must align
    L = lame_divisor(ctx)
    pt = point_on_Xn(1, 1.9 + 0.3j, ctx)
    params = LameParams(A=[0.0], B=pt.B)
    mp = monodromy_pair(L, params, ctx)
    assert classify_projective(mp) == "AbelianDiagonal"
    z0 = mp.base
    w = hermite_halphen(pt, z0, ctx)
    wp_ = w * hermite_halphen_logderiv(pt, z0, ctx)
    v = np.array([w, wp_])
    Sv = mp.S1 @ v
    cosang = abs(np.vdot(v, Sv)) / (np.linalg.norm(v) * np.linalg.norm(Sv))
    assert 1.0 - cosang < 1e-5


def test_unitarizable_iff_critical_point():
    ctx_rho = make_context(cmath.exp(1j * math.pi / 3))
    a = TorusPoint.from_rs(1 / 3, 1 / 3, ctx_rho)
    B = weierstrass(a.z, ctx_rho)[0]
    L = lame_divisor(ctx_rho)
    mp = monodromy_pair(L, LameParams(A=[0.0], B=B), ctx_rho)
    assert unitarizable(mp)
    ctx_rect = make_context(1.2j)
    ag = TorusPoint.from_rs(0.23, 0.31, ctx_rect)
    Bg = weierstrass(ag.z, ctx_rect)[0]
    mpg = monodromy_pair(lame_divisor(ctx_rect), LameParams(A=[0.0], B=Bg), ctx_rect)
    assert not unitarizable(mpg)


def test_unitarizable_matches_green_defect_on_X2():
    # type-II equivalence: unitary monodromy <-> sum grad G(a_i) = 0
    ctx2 = make_context(0.5 + 2.2j)
    sols = find_type2(2, ctx2, grid=72)
    assert sols
    L = SourceDivisor.from_rs([(0.0, 0.0)], [4], ctx2)
    for t in sols:
        mp = monodromy_pair(L, LameParams(A=[0.0], B=t.a.B * 1.0), ctx2)
        assert t.green_defect < 1e-6
        assert unitarizable(mp)
    # a generic non-solution B on the same torus is not unitarizable
    pt = point_on_Xn(2, t.a.B + 2.3 + 1.1j, ctx2)
    mp = monodromy_pair(L, LameParams(A=[0.0], B=pt.B), ctx2)
    assert not unitarizable(mp)


def test_period_integral_critical_point_imaginary():
    ctx_rho = make_context(cmath.exp(1j * math.pi / 3))
    a = (1 + ctx_rho.tau) / 3
    for i in (1, 2):
        assert abs(period_integral(a, i, ctx_rho).real) < 1e-8


def test_period_integral_half_period_guard(ctx):
    with pytest.raises(HalfPeriodInput):
        period_integral(0.5, 1, ctx)


def test_period_crosscheck_quadrature(ctx):
    a = 0.31 + 0.17 * ctx.tau
    for i in (1, 2):
        rep = period_crosscheck(a, i, ctx)
        assert rep["defect_mod_2pi"] < 1e-6
        assert rep["defect_mod_4pi"] < 1e-6


def _clear_period_bases_reference(a, i, ctx, count):
    """The scalar loop that _clear_period_bases replaced."""
    omega = 1.0 + 0j if i == 1 else ctx.tau
    scored = []
    for r in np.linspace(0.05, 0.95, 13):
        for s in np.linspace(0.05, 0.95, 13):
            z0 = r + s * ctx.tau
            d = min(
                min(lattice_distance(z0 + t * omega - sgn * a, ctx)
                    for t in np.linspace(0, 1, 33))
                for sgn in (+1, -1))
            d = min(d, min(lattice_distance(z0 + t * omega, ctx)
                           for t in np.linspace(0, 1, 33)))
            scored.append((d, z0))
    scored.sort(key=lambda t: -t[0])
    return [z for d, z in scored[:count] if d > 0.04]


def _quadrature_reference(a, i, ctx, z0, nodes):
    """The scalar loop that period_integral_quadrature replaced."""
    omega = 1.0 + 0j if i == 1 else ctx.tau
    pa, ppa = weierstrass(a, ctx)
    ts = np.linspace(0.0, 1.0, nodes + 1)
    vals = np.array([ppa / (weierstrass(z0 + t * omega, ctx)[0] - pa) for t in ts])
    return complex(omega * (np.sum(vals[1:-1]) + 0.5 * (vals[0] + vals[-1])) / nodes)


@pytest.mark.parametrize("tau", [0.22 + 1.31j, 1.2j, -0.3 + 0.8j])
def test_period_quadrature_matches_reference_loops(tau):
    c = make_context(tau)
    for a in (0.31 + 0.27 * c.tau, 0.7 + 0.12 * c.tau):
        for i in (1, 2):
            bases = _clear_period_bases(a, i, c, 6)
            assert bases == _clear_period_bases_reference(a, i, c, 6)
            for z0 in bases[:2]:
                got = period_integral_quadrature(a, i, c, z0, nodes=400)
                want = _quadrature_reference(a, i, c, z0, 400)
                # the array kernel rounds differently from the scalar one
                assert abs(got - want) < 1e-13 * (1.0 + abs(want))


def test_period_quadrature_rejects_segment_through_lattice(ctx):
    with pytest.raises(PoleProximity):
        period_integral_quadrature(0.31 + 0.17 * ctx.tau, 1, ctx, -0.5 + 0j)
    with pytest.raises(PoleProximity):
        period_integral_quadrature(0.31 + 0.17 * ctx.tau, 2, ctx, 0.0 + 0.0002j)


def test_period_lattice_combination(ctx):
    # (omega2 F1 - omega1 F2) / (4 pi i) = -a modulo the lattice
    from lamelab.elliptic import lattice_distance

    a = 0.27 + 0.63 * ctx.tau
    F1 = period_integral(a, 1, ctx)
    F2 = period_integral(a, 2, ctx)
    v = (ctx.tau * F1 - F2) / (4j * math.pi)
    assert lattice_distance(v + a, ctx) < 1e-8


def test_u_density_basics():
    assert u_density(0.0, 1.0) == pytest.approx(math.log(8))
    with pytest.raises(CriticalPointOfF):
        u_density(1.0, 0.0)


def test_u_density_mobius_invariance(rng):
    for _ in range(10):
        f = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        fp = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(fp) < 0.1:
            continue
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        nrm = math.sqrt(abs(p) ** 2 + abs(q) ** 2)
        p, q = p / nrm, q / nrm
        Mf = (p * f - q.conjugate()) / (q * f + p.conjugate())
        Mfp = fp / (q * f + p.conjugate()) ** 2
        assert abs(u_density(f, fp) - u_density(Mf, Mfp)) < 1e-10


def test_u_density_scaling_family(rng):
    # e^lambda f keeps u finite for finite lambda
    f, fp = 0.4 + 0.1j, 0.9 - 0.3j
    for lam in (-3.0, -1.0, 1.0, 3.0):
        v = u_density(math.exp(lam) * f, math.exp(lam) * fp)
        assert np.isfinite(v)


@pytest.mark.parametrize("f, fp, z", [
    (lambda z: z * z + 0.3, lambda z: 2.0 * z, 0.4 + 0.2j),
    (cmath.sin, cmath.cos, 0.3 - 0.7j),
])
def test_u_density_solves_liouville(f, fp, z):
    # Delta u + e^u = 0 for every holomorphic f with f' != 0: five-point
    # Laplacian, truncation O(h^2)
    def u(w):
        return u_density(f(w), fp(w))

    h = 1e-3
    lap = (u(z + h) + u(z - h) + u(z + 1j * h) + u(z - 1j * h) - 4.0 * u(z)) / (h * h)
    assert abs(lap + math.exp(u(z))) < 1e-4 * math.exp(u(z))


# Verbatim copies of the L3 pipeline that the one-pass transport replaced:
# the reference for the bits of every matrix it returns.

def _singular_translates_parent(L, ctx, lo, hi, pad):
    tau = ctx.tau
    out = []
    for p in L.points:
        for m in range(-3, 4):
            for n in range(-3, 4):
                q = p.z + m + n * tau
                if (min(lo.real, hi.real) - pad <= q.real <= max(lo.real, hi.real) + pad
                        and min(lo.imag, hi.imag) - pad <= q.imag <= max(lo.imag, hi.imag) + pad):
                    out.append(q)
    return out


def _walk_parent(pts, L, ctx, clearance):
    src = [p.z for p in L.points]
    nodes = [complex(pts[0])]
    for zb in pts[1:].tolist():
        while nodes[-1] != zb:
            z = nodes[-1]
            rho = min(lattice_distance(z - p, ctx) for p in src)
            step = monodromy._STEP * rho / abs(zb - z)
            nodes.append(zb if step >= 1.0 else z + step * (zb - z))
            if not rho >= clearance or nodes[-1] == z:
                raise PoleProximity(f"z={z} within clearance of a source translate")
    z = np.array(nodes)
    return z[:-1], np.diff(z)


def _carry_parent(pts, L, params, ctx, clearance):
    Y = np.eye(2, dtype=complex)
    for T in _step_matrices(*_walk_parent(pts, L, ctx, clearance), L, params, ctx):
        Y = T @ Y
    return Y


def _transport_parent(path, L, params, ctx, clearance=None):
    if clearance is None:
        clearance = 0.55 * CLEARANCE_RADIUS
    pts = np.array([complex(p) for p in path])
    zs = (pts[:-1, None] + np.linspace(0.0, 1.0, 9) * np.diff(pts)[:, None]).ravel()
    dist = monodromy.lattice_distance_many(
        np.subtract.outer(zs, [p.z for p in L.points]), ctx).min(axis=1)
    if (dist < clearance).any():
        k = int(np.argmax(dist < clearance))
        raise PathTooClose(f"path point {zs[k]} is {dist[k]:.2e} from a singular translate")
    return _carry_parent(pts, L, params, ctx, 0.5 * clearance)


def _choose_base_point_parent(L, ctx):
    tau = ctx.tau
    grid = np.linspace(0.04, 0.96, 23)
    z0 = (grid[:, None] + grid[None, :] * tau).ravel()
    m, n = (a.ravel() for a in np.meshgrid(np.arange(-3, 4), np.arange(-3, 4)))
    d = np.full(z0.shape, math.inf)
    for omega in (1.0, tau):
        u = omega / abs(omega)
        z1 = z0 + omega
        lo_re = np.minimum(z0.real, z1.real)[:, None] - 0.3
        hi_re = np.maximum(z0.real, z1.real)[:, None] + 0.3
        lo_im = np.minimum(z0.imag, z1.imag)[:, None] - 0.3
        hi_im = np.maximum(z0.imag, z1.imag)[:, None] + 0.3
        for p in L.points:
            q = p.z + m + n * tau
            inside = ((lo_re <= q.real) & (q.real <= hi_re)
                      & (lo_im <= q.imag) & (q.imag <= hi_im))
            keep = inside.any(axis=0)
            q, inside = q[keep], inside[:, keep]
            t = np.clip(((q - z0[:, None]) / u).real, 0.0, abs(omega))
            w = z0[:, None] + t * u - q
            d = np.minimum(d, np.where(inside, np.hypot(w.real, w.imag), math.inf).min(axis=1))
    for p in L.points:
        d = np.minimum(d, monodromy.lattice_distance_many(z0 - p.z, ctx))
    return z0[int(np.argmax(d))]


def _monodromy_pair_parent(L, params, ctx):
    z0 = _choose_base_point_parent(L, ctx)
    S = [_transport_parent(path_with_detours(z0, omega, L, ctx), L, params, ctx)
         for omega in (1.0 + 0j, ctx.tau)]
    return MonodromyPair(S1=S[0], S2=S[1], base=z0,
                         residual=max(monodromy.wronskian_drift(M) for M in S))


@contextlib.contextmanager
def _parent_pipeline():
    """Patch in the parent's translates and walk, so that path_with_detours
    and local_monodromy run as they did."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monodromy, "_singular_translates", _singular_translates_parent)
        mp.setattr(monodromy, "_carry", lambda polylines, *rest: [
            _carry_parent(pts, *rest) for pts in polylines])
        yield


def _assert_parent_bits(L, params, ctx):
    mp = monodromy_pair(L, params, ctx)
    with _parent_pipeline():
        ref = _monodromy_pair_parent(L, params, ctx)
        ref_local = [local_monodromy(p, L, params, ctx) for p in L.points]
    assert np.array_equal(mp.S1, ref.S1) and np.array_equal(mp.S2, ref.S2)
    assert mp.base == ref.base and mp.residual == ref.residual
    for p, M in zip(L.points, ref_local):
        assert np.array_equal(local_monodromy(p, L, params, ctx), M)


def test_one_pass_keeps_parent_bits_on_criterion7_roots(ctx, criterion7_roots):
    count = 0
    for L, sols in criterion7_roots:
        for params in sols:
            _assert_parent_bits(L, params, ctx)
            count += 1
    assert count == 16


TEMPLATE_5 = GENERIC_POINTS + [(0.31, 0.63), (0.68, 0.06)]


@pytest.mark.parametrize("tau, points, weights, starts", [
    (0.22 + 1.31j, TEMPLATE_5, (1, 1, 1, 1, 1), 1200),
    (1.2j, GENERIC_POINTS, (1, 1, 1), 1200),
    (0.5 + 2.2j, GENERIC_POINTS, (1, 1, 1), 1200),
    (1.2j, [(0.0, 0.0)], (3,), 500),
    (0.5 + 2.2j, [(0.0, 0.0)], (3,), 500),
])
def test_one_pass_keeps_parent_bits(tau, points, weights, starts):
    c = make_context(tau)
    L = SourceDivisor.from_rs(points, weights, c)
    sols = solve_system(L, c, SolveConfig(seed=1, max_starts=starts))
    assert sols
    for params in sols:
        _assert_parent_bits(L, params, c)


def test_singular_translates_keep_parent_order(ctx):
    L = SourceDivisor.from_rs(TEMPLATE_5, [1] * 5, ctx)
    rng = np.random.default_rng(7)
    for _ in range(50):
        lo, hi = (complex(*rng.uniform(-1.5, 2.5, 2)) for _ in range(2))
        pad = rng.uniform(0.0, 0.4)
        assert (monodromy._singular_translates(L, ctx, lo, hi, pad)
                == _singular_translates_parent(L, ctx, lo, hi, pad))


def _count_scalar_distances(monkeypatch):
    calls = []
    scalar = monodromy.lattice_distance

    def counted(z, c):
        calls.append(z)
        return scalar(z, c)

    monkeypatch.setattr(monodromy, "lattice_distance", counted)
    return calls


def test_user_radius_circle_steps_inside_chords(ctx, monkeypatch):
    # d - r = 0.55 r: near the other source a chord takes several steps,
    # so _walk's scalar branch runs, and the matrix keeps the parent's bits
    L = SourceDivisor.from_rs(TEMPLATE_5, [1] * 5, ctx)
    params = solve_system(L, ctx, SolveConfig(seed=1))[0]
    p = L.points[0]
    radius = min(lattice_distance(p.z - q.z, ctx) for q in L.points[1:]) / 1.55
    calls = _count_scalar_distances(monkeypatch)
    M = _local_circle_reference(p, L, params, ctx, radius)
    assert len(calls) > 2 * L.N
    monkeypatch.undo()
    with _parent_pipeline():
        ref = _local_circle_reference(p, L, params, ctx, radius)
    assert np.array_equal(M, ref)
    assert np.max(np.abs(M + np.eye(2))) < 1e-5
    assert np.max(np.abs(local_monodromy(p, L, params, ctx, radius) - M)) < 1e-9


def test_default_circle_takes_at_most_n_scalar_distances(ctx, monkeypatch):
    # every chord of a default circle is one step, whose rho is a vertex's
    L = SourceDivisor.from_rs(TEMPLATE_5, [1] * 5, ctx)
    params = solve_system(L, ctx, SolveConfig(seed=1))[0]
    calls = _count_scalar_distances(monkeypatch)
    for p in L.points:
        calls.clear()
        local_monodromy(p, L, params, ctx)
        assert len(calls) <= L.N
