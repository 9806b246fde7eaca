import math
import pathlib
from fractions import Fraction as Fr

import numpy as np
import pytest

from lamelab import (
    LameParams,
    MultiPoly,
    SolveConfig,
    SourceDivisor,
    TorusPoint,
    build_system,
    degree_formula,
    ehat_eval,
    germ_constraints,
    germ_series,
    make_context,
    solve_system,
    symmetric_even_family,
    symmetric_reduce,
    top_term_closed,
    top_term_recursive,
    verify_l4_identity,
    weierstrass,
    zeta_w,
)
from lamelab.errors import (
    DistinctnessViolation,
    EvenTotalWeight,
    PartialEnumeration,
    PoleAtInteger,
)
from lamelab import polysys
from lamelab.cli import EXIT_OK, EXIT_USAGE, main
from lamelab.polysys import (
    _evaluate,
    l4_identity_scale,
    solve_polynomial_system,
)

GENERIC_POINTS = [(0.13, 0.21), (0.54, 0.39), (0.82, 0.70)]


@pytest.fixture(scope="module")
def ctx():
    return make_context(0.22 + 1.31j)


@pytest.fixture(scope="module")
def L111(ctx):
    return SourceDivisor.from_rs(GENERIC_POINTS, [1, 1, 1], ctx)


# -- MultiPoly ---------------------------------------------------------------

def test_multipoly_arithmetic():
    A = MultiPoly.var(2, 0)
    B = MultiPoly.var(2, 1)
    p = (A + B) * (A - B)
    assert p.evaluate([3.0, 2.0]) == pytest.approx(5.0)
    assert p.partial(0).evaluate([3.0, 2.0]) == pytest.approx(6.0)
    assert p.total_degree() == 2


def test_multipoly_weight_tracking():
    A = MultiPoly.var(2, 0)
    c = MultiPoly.const(2, 2.5, weight=1)
    prod = A * c
    assert prod.dweights[(1, 0)] == 1
    with pytest.raises(ValueError):
        _ = prod + A    # same monomial, clashing data weight


# -- system construction -----------------------------------------------------

def test_primitive_quadratic_matches_hand_formula(ctx, L111):
    # F_i = A_i^2 - B - sum zeta_ij A_j - (3/4) sum wp_ij for unit weights
    system = build_system(L111, ctx)
    pts = [p.z for p in L111.points]
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for i in range(3):
            direct = v[i] ** 2 - v[3]
            for j in range(3):
                if j == i:
                    continue
                direct -= zeta_w(pts[i] - pts[j], ctx) * v[j]
                direct -= 0.75 * weierstrass(pts[i] - pts[j], ctx)[0]
            assert abs(system[i + 1].evaluate(v) - direct) < 1e-10 * (1 + abs(direct))


def test_system_degrees(ctx):
    L = SourceDivisor.from_rs(GENERIC_POINTS, [3, 1, 2], ctx)
    system = build_system(L, ctx)
    assert system[0].total_degree() == 1
    for f, w in zip(system[1:], L.weights):
        assert f.total_degree() == w + 1


def test_system_weight_homogeneity(ctx):
    # every term of F_i carries total weight l_i + 1 with wt(A) = 1,
    # wt(B) = 2 and the Taylor-data weights on coefficients
    L = SourceDivisor.from_rs(GENERIC_POINTS, [4, 2, 1], ctx)
    system = build_system(L, ctx)
    vw = (1,) * 3 + (2,)
    for f, w in zip(system[1:], L.weights):
        assert f.weighted_degrees(vw) == {w + 1}


def test_system_top_part_is_minus_q(ctx):
    L = SourceDivisor.from_rs(GENERIC_POINTS, [4, 3, 2], ctx)
    system = build_system(L, ctx)
    vw = (1,) * 3 + (2,)
    for i, w in enumerate(L.weights):
        top = system[i + 1].top_weighted_part(vw, w + 1)
        q = top_term_closed(w)
        expect = {}
        for (ea, eb), c in q.terms.items():
            key = tuple(ea if k == i else 0 for k in range(3)) + (eb,)
            expect[key] = -complex(c)
        assert set(expect) == set(top.terms)
        for e, c in top.terms.items():
            assert abs(c - expect[e]) < 1e-10 * (1 + abs(c))


def test_brioschi_reduction(ctx):
    # N = 1, l = 3: F_1 with A_1 = 0 is degree 2 in B with roots
    # B^2 = 3 g2 / 4
    L = SourceDivisor.from_rs([(0.0, 0.0)], [3], ctx)
    system = build_system(L, ctx)
    f = system[1]
    coeff = {}
    for (ea, eb), c in f.terms.items():
        if ea == 0:
            coeff[eb] = complex(c)
    assert max(coeff) == 2
    roots = np.roots([coeff.get(2, 0), coeff.get(1, 0), coeff.get(0, 0)])
    for r in roots:
        assert abs(r**2 - 0.75 * ctx.g2) < 1e-9 * (1 + abs(ctx.g2))


def test_divisor_distinctness(ctx):
    with pytest.raises(DistinctnessViolation):
        SourceDivisor.from_rs([(0.1, 0.2), (1.1, 0.2)], [1, 1], ctx)


# -- universal top terms ------------------------------------------------------

def test_q_examples():
    q1 = top_term_closed(1)
    assert q1.terms == {(2, 0): Fr(-1), (0, 1): Fr(1)}
    q2 = top_term_closed(2)
    assert q2.terms == {(3, 0): Fr(1, 4), (1, 1): Fr(-1)}
    q4 = top_term_closed(4)
    # (1/576) A (A^2 - 4B)(A^2 - 16B)
    assert q4.terms[(5, 0)] == Fr(1, 576)
    assert q4.terms[(3, 1)] == Fr(-20, 576)
    assert q4.terms[(1, 2)] == Fr(64, 576)


def test_q3_display():
    q3 = top_term_closed(3)
    # -(1/36)(A^2 - B)(A^2 - 9B)
    assert q3.terms[(4, 0)] == Fr(-1, 36)
    assert q3.terms[(2, 1)] == Fr(10, 36)
    assert q3.terms[(0, 2)] == Fr(-9, 36)


@pytest.mark.parametrize("ell", range(2, 9))
def test_top_term_routes_agree_exactly(ell):
    assert top_term_recursive(ell) == top_term_closed(ell)


def test_ehat_explicit_low_orders():
    # closed forms recovered by clearing the recursion by hand
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = complex(rng.uniform(3.5, 8.0), rng.uniform(-1.0, 1.0))
        A = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        B = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        e2 = ehat_eval(s, 2, A, B)
        expect2 = -2.0 * A * (A * A / s**2 - B) / (s * (s - 1) * (s - 2))
        assert abs(e2 - expect2) < 1e-12 * (1 + abs(expect2))
        e3 = ehat_eval(s, 3, A, B)
        expect3 = ((5 * s - 6) * (A * A - s * s * B)
                   * (A * A * (5 * s - 6) - s * s * (s - 2) * B)
                   / ((s - 3) * (s - 2) * (s - 1) ** 2 * s**4 * (5 * s - 6)))
        assert abs(e3 - expect3) < 1e-11 * (1 + abs(expect3))


def test_ehat_point_value():
    assert ehat_eval(2.0, 1, 1.0, 0.0) == pytest.approx(0.25)


def test_ehat_pole_guard():
    with pytest.raises(PoleAtInteger):
        ehat_eval(2.0, 3, 1.0, 1.0)


@pytest.mark.parametrize("ell", range(1, 7))
def test_residue_probe_matches_q(ell):
    rng = np.random.default_rng(ell)
    for _ in range(6):
        A = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        B = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        probe = 1e-6 * ehat_eval(ell + 1e-6, ell, A, B)
        q = top_term_closed(ell).evaluate([A, B])
        scale = 1.0 + abs(A) ** (ell + 1) + abs(B) ** ((ell + 1) / 2)
        assert abs(probe + q) < 1e-5 * scale


# -- degree formula and solving ----------------------------------------------

def test_degree_formula_values(ctx):
    assert degree_formula(SourceDivisor.from_rs(GENERIC_POINTS, [1, 1, 1], ctx)) == 4
    assert degree_formula(SourceDivisor.from_rs([(0.0, 0.0)], [3], ctx)) == 2
    assert degree_formula(SourceDivisor.from_rs(GENERIC_POINTS, [5, 1, 1], ctx)) == 12
    with pytest.raises(EvenTotalWeight):
        degree_formula(SourceDivisor.from_rs(GENERIC_POINTS[:2], [1, 1], ctx))


def test_solve_primitive_l3(ctx, L111):
    sols = solve_system(L111, ctx, SolveConfig(seed=1, max_starts=900))
    assert len(sols) == 4
    for s in sols:
        assert s.residual < 1e-10
        assert s.admissible()


def test_solve_weights_311(ctx):
    L = SourceDivisor.from_rs(GENERIC_POINTS, [3, 1, 1], ctx)
    sols = solve_system(L, ctx, SolveConfig(seed=1, max_starts=2500))
    assert len(sols) == 8


def test_solve_single_source_l3(ctx):
    L = SourceDivisor.from_rs([(0.0, 0.0)], [3], ctx)
    sols = solve_system(L, ctx, SolveConfig(seed=1, max_starts=400))
    assert len(sols) == 2
    for s in sols:
        assert abs(s.A[0]) < 1e-9


def test_solve_deterministic(ctx, L111):
    cfg = SolveConfig(seed=7, max_starts=900)
    a = solve_system(L111, ctx, cfg)
    b = solve_system(L111, ctx, cfg)
    assert [(s.B, tuple(s.A)) for s in a] == [(s.B, tuple(s.A)) for s in b]


def test_partial_enumeration_carries_payload(ctx, L111):
    with pytest.raises(PartialEnumeration) as err:
        solve_system(L111, ctx, SolveConfig(seed=1, max_starts=2))
    assert err.value.expected == 4
    assert 0 < len(err.value.solutions) < 4


def test_solve_even_weight_filters_curve_points(ctx):
    # for these even divisors the zero set is a curve: Newton limits land
    # on it with singular Jacobians and must not be reported as isolated
    L2 = SourceDivisor.from_rs([(0.2, 0.3), (0.8, 0.7)], [1, 1], ctx)
    assert solve_system(L2, ctx, SolveConfig(seed=0, max_starts=50)) == []
    L4 = SourceDivisor.from_rs(
        [(0.17, 0.23), (0.61, 0.43), (0.83, 0.77), (0.39, 0.57)],
        [1, 1, 1, 1], ctx)
    assert solve_system(L4, ctx, SolveConfig(seed=0, max_starts=50)) == []


# -- symmetric odd reduction --------------------------------------------------

def test_symmetric_reduce_counts_and_lift(ctx):
    p = 0.23 + 0.31 * ctx.tau
    L = SourceDivisor(
        points=(TorusPoint.from_z(p, ctx), TorusPoint.from_z(-p, ctx),
                TorusPoint.from_rs(0.0, 0.0, ctx)),
        weights=(1, 1, 1))
    reduced, roots, lifted = symmetric_reduce(L, ctx, SolveConfig(seed=2, max_starts=300))
    assert len(lifted) == 2
    for s in lifted:
        assert s.residual < 1e-9
        assert abs(s.A[1] + s.A[0]) < 1e-9
        assert abs(s.A[2]) < 1e-12
    # the reduced solutions sit among the 2^(2n) = 4 full solutions
    full = solve_system(L, ctx, SolveConfig(seed=3, max_starts=1600))
    assert len(full) == 4
    for s in lifted:
        d = min(max(np.max(np.abs(np.array(s.A) - np.array(f.A))), abs(s.B - f.B))
                for f in full)
        assert d < 1e-7


# -- even-weight machinery ----------------------------------------------------

def test_germ_series_normalization(ctx):
    rng = np.random.default_rng(4)
    pairs = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(4)]
    L = SourceDivisor.from_rs(pairs, [1, 1, 1, 1], ctx)
    gs = germ_series(L, None, 5, ctx)
    assert np.allclose(gs.coeffs[:, 1], 1.0)
    assert np.allclose(gs.coeffs[:, 2], gs.zhat / 2.0)


@pytest.mark.parametrize("n", [2, 3])
def test_germ_closure_identities(ctx, n):
    rng = np.random.default_rng(10 + n)
    for _ in range(4):
        pairs = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
                 for _ in range(2 * n)]
        try:
            L = SourceDivisor.from_rs(pairs, [1] * (2 * n), ctx)
        except DistinctnessViolation:
            continue
        gs = germ_series(L, None, 4, ctx)
        rep = germ_constraints(gs)
        scale = 1.0 + float(np.max(np.abs(gs.coeffs)))
        assert abs(rep.values[1]) < 1e-12 * scale      # k = 2, skew symmetry
        assert abs(rep.values[2]) < 1e-8 * scale       # k = 3, unconditional identity


def test_germ_symmetric_configuration_closes_at_all_orders(ctx):
    # center at the origin: (p1, -p1, p2, -p2) ordered alternately
    rng = np.random.default_rng(9)
    r1, s1 = rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4)
    r2, s2 = rng.uniform(0.55, 0.9), rng.uniform(0.05, 0.4)
    pairs = [(r1, s1), ((-r1) % 1, (-s1) % 1), (r2, s2), ((-r2) % 1, (-s2) % 1)]
    L = SourceDivisor.from_rs(pairs, [1, 1, 1, 1], ctx)
    gs = germ_series(L, None, 8, ctx)
    rep = germ_constraints(gs)
    scale = 1.0 + float(np.max(np.abs(gs.coeffs)))
    for v in rep.values:
        assert abs(v) < 1e-8 * scale


def test_germ_t5_sides_reported(ctx):
    # the cubic closure relation is an open question: report, never assert
    rng = np.random.default_rng(12)
    pairs = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(6)]
    L = SourceDivisor.from_rs(pairs, [1] * 6, ctx)
    rep = germ_constraints(germ_series(L, None, 4, ctx))
    assert np.isfinite(rep.k4_lhs.real) and np.isfinite(rep.k4_rhs.real)
    print(f"t^5 closure sides: lhs={rep.k4_lhs:.6g} rhs={rep.k4_rhs:.6g} "
          f"diff={abs(rep.k4_lhs - rep.k4_rhs):.3g} (reported only)")


def test_l4_identity_random(ctx):
    rng = np.random.default_rng(2)
    for _ in range(40):
        pts = []
        while len(pts) < 4:
            cand = rng.uniform(0.04, 0.96) + rng.uniform(0.04, 0.96) * ctx.tau
            if all(abs(cand - p) > 0.08 for p in pts):
                pts.append(cand)
        resid = verify_l4_identity(*pts, ctx)
        assert resid < 1e-9 * l4_identity_scale(*pts, ctx)


def test_l4_identity_symmetric_and_swapped(ctx):
    p1 = 0.21 + 0.17 * ctx.tau
    p2 = 0.64 + 0.41 * ctx.tau
    quad = [p1, p2, -p1, -p2]
    r1 = verify_l4_identity(*quad, ctx)
    assert r1 < 1e-9 * l4_identity_scale(*quad, ctx)
    swapped = [quad[2], quad[3], quad[0], quad[1]]   # p1<->p3, p2<->p4
    r2 = verify_l4_identity(*swapped, ctx)
    assert r2 < 1e-9 * l4_identity_scale(*swapped, ctx)


def test_l4_identity_rejects_collisions(ctx):
    p = 0.3 + 0.3 * ctx.tau
    with pytest.raises(DistinctnessViolation):
        verify_l4_identity(p, p, -p, 2 * p, ctx)


def test_symmetric_even_family_is_curve_of_solutions(ctx):
    p1 = TorusPoint.from_rs(0.17, 0.23, ctx)
    p2 = TorusPoint.from_rs(0.61, 0.43, ctx)
    ts = np.linspace(0.25, 2.4, 10)
    fam = symmetric_even_family(p1, p2, ctx, ts)
    assert len(fam) == 20
    for s in fam:
        assert s.residual < 1e-9
        assert abs(s.A[2] + s.A[0]) == 0
        assert abs(sum(s.A)) < 1e-12
    # distinct parameters: genuinely one-dimensional, not a repeated point
    bs = {round(s.B.real, 6) + 1j * round(s.B.imag, 6) for s in fam}
    assert len(bs) > 10


# -- compiled evaluation and the block draw -----------------------------------

EVAL_CLASSES = ([1, 1, 1], [3, 1, 1], [1, 1, 1, 1, 1], [5, 3, 1], [3, 3, 3])
EVAL_POINTS = GENERIC_POINTS + [(0.31, 0.63), (0.68, 0.06)]
CLI_DIVISOR = "p=0.13,0.21:1;p=0.54,0.39:1;p=0.82,0.70:1"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _evaluate_reference(poly, values):
    """The per-term dict walk MultiPoly.evaluate used to be, kept verbatim."""
    vals = [complex(v) for v in values]
    total = 0.0 + 0j
    for e, c in poly.terms.items():
        t = complex(c)
        for x, k in zip(vals, e):
            if k:
                t *= x**k
        total += t
    return total


def _monomial_scale_reference(poly, values):
    vals = [abs(complex(v)) for v in values]
    best = 0.0
    for e, c in poly.terms.items():
        t = abs(complex(c))
        for x, k in zip(vals, e):
            if k:
                t *= x**k
        best = max(best, t)
    return best


@pytest.mark.parametrize("weights", EVAL_CLASSES, ids=lambda w: "_".join(map(str, w)))
def test_compiled_evaluation_is_bit_identical(ctx, weights):
    L = SourceDivisor.from_rs(EVAL_POINTS[:len(weights)], weights, ctx)
    system = build_system(L, ctx)
    nv = system[0].nvars
    grads = [[p.partial(i) for i in range(nv)] for p in system]
    rng = np.random.default_rng(sum(weights))
    for _ in range(60):
        v = (rng.standard_normal(nv) + 1j * rng.standard_normal(nv)) * 3.0
        v[-1] *= 4.0
        f, pw = _evaluate(system, v)
        assert f.tolist() == [_evaluate_reference(p, v) for p in system]
        assert [p.evaluate(v) for p in system] == f.tolist()
        # the partials read the system's power table, as the solver does
        J = _evaluate([g for row in grads for g in row], v, pw)[0].reshape(nv, nv)
        want = [[_evaluate_reference(g, v) for g in row] for row in grads]
        assert J.tolist() == want
        assert [[g.evaluate(v) for g in row] for row in grads] == want
        assert [p.monomial_scale(v) for p in system] == \
            [_monomial_scale_reference(p, v) for p in system]


def test_compiled_evaluation_of_exact_top_terms():
    rng = np.random.default_rng(6)
    for ell in range(7):
        q = top_term_closed(ell)
        for _ in range(20):
            v = list(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert q.evaluate(v) == _evaluate_reference(q, v)
            # a later _accumulate must invalidate the compiled term list
            p = q.copy()
            p.evaluate(v)
            p._accumulate((0, 0), Fr(5, 3), 0)
            assert p.evaluate(v) == _evaluate_reference(p, v)


def _starts_reference(polys, cfg):
    """The per-start draw loop the solver used before the block draw."""
    nv = polys[0].nvars
    rng = np.random.default_rng(cfg.seed)
    big = max(max((abs(complex(c)) for c in p.terms.values()), default=1.0)
              for p in polys)
    radius = 2.0 + 1.5 * math.sqrt(big)
    starts = []
    for _ in range(cfg.max_starts):
        v = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
        v *= radius / 2.0
        v[-1] *= radius / 2.0   # B can be larger
        starts.append(v)
    return starts


@pytest.mark.parametrize("weights", ([1, 1, 1], [1, 1, 1, 1, 1]))
@pytest.mark.parametrize("seed", (0, 101))
def test_block_start_draw_matches_per_start_loop(ctx, monkeypatch, weights, seed):
    L = SourceDivisor.from_rs(EVAL_POINTS[:len(weights)], weights, ctx)
    system = build_system(L, ctx)
    for max_starts in (0, 40):
        cfg = SolveConfig(seed=seed, max_starts=max_starts)
        drawn = []
        monkeypatch.setattr(polysys, "_newton_system",
                            lambda polys, grads, v0: drawn.append(v0.copy()))
        assert solve_polynomial_system(system, cfg) == []
        want = _starts_reference(system, cfg)
        assert len(drawn) == len(want) == max_starts
        for a, b in zip(drawn, want):
            assert np.array_equal(a, b)


def test_negative_max_starts_is_rejected(ctx, L111):
    with pytest.raises(ValueError):
        SolveConfig(max_starts=-1)
    assert main(["solve", "--tau", "0.22+1.31i", "--divisor", CLI_DIVISOR,
                 "--max-starts", "-1"]) == EXIT_USAGE
    with pytest.raises(PartialEnumeration) as err:
        solve_system(L111, ctx, SolveConfig(max_starts=0))
    assert err.value.solutions == []


def test_readme_solve_check_monodromy_json_is_unchanged(capsys):
    # the README example, byte for byte as the per-term evaluator gave it
    assert main(["solve", "--tau", "0.22+1.31i", "--divisor", CLI_DIVISOR,
                 "--check-monodromy"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "solve_l3_check_monodromy.json").read_text()
