"""Log-free polynomial systems for generalized Lame equations.

For a source divisor L = sum l_i p_i the requirement that every local
solution is free of logarithms pins the accessory parameters (A_1..A_N, B)
to the zero set of N + 1 explicit polynomials: the linear F_0 = sum A_i
and, per source, the obstruction F_i of degree l_i + 1 produced by the
critical step of a quadratic recursion on local expansion coefficients.
With wt(A_j) = 1, wt(B) = 2 and weight k + 1 (resp. k + 2) on the k-th
zeta (resp. wp) Taylor coefficient, every term of F_i has weight l_i + 1,
and the pure (A_i, B) top part is the universal polynomial q_{l_i}.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from fractions import Fraction as Fr

import numpy as np

from .elliptic import (
    POLE_CLEARANCE,
    LatticeContext,
    TorusPoint,
    _damped_newton,
    lattice_distance,
    taylor_data,
    weierstrass,
    wp,
    zeta_w,
)
from .errors import (
    DistinctnessViolation,
    EvenTotalWeight,
    PartialEnumeration,
    PoleAtInteger,
)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceDivisor:
    """Singular data sum l_i p_i with positive integer weights."""

    points: tuple       # TorusPoint entries, pairwise distinct mod lattice
    weights: tuple      # positive ints

    @property
    def N(self) -> int:
        return len(self.points)

    @property
    def ell(self) -> int:
        return sum(self.weights)

    @staticmethod
    def from_rs(pairs, weights, ctx: LatticeContext) -> "SourceDivisor":
        pts = tuple(TorusPoint.from_rs(r, s, ctx) for r, s in pairs)
        div = SourceDivisor(points=pts, weights=tuple(int(w) for w in weights))
        div.validate(ctx)
        return div

    def validate(self, ctx: LatticeContext) -> None:
        if len(self.points) != len(self.weights) or not self.points:
            raise ValueError("points and weights must be nonempty and aligned")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")
        n = len(self.points)
        for i in range(n):
            for j in range(i + 1, n):
                d = lattice_distance(self.points[i].z - self.points[j].z, ctx)
                if d < POLE_CLEARANCE:
                    raise DistinctnessViolation(
                        f"sources {i} and {j} are {d:.2e} apart mod the lattice")


@dataclass
class LameParams:
    """Candidate accessory parameters of the generalized Lame equation.

    ``jacobian_sigma_min`` is the smallest singular value of the system
    Jacobian at the root (when solved): values near zero flag suspected
    multiple roots or curve points; simplicity is reported, not certified.
    """

    A: list
    B: complex
    residual: float = 0.0
    jacobian_sigma_min: float | None = None

    def admissible(self, tol: float = 1e-8) -> bool:
        return abs(sum(self.A)) < tol * (1.0 + max(abs(a) for a in self.A))

    def key(self):
        return (round(self.B.real, 9), round(self.B.imag, 9),
                tuple((round(a.real, 9), round(a.imag, 9)) for a in self.A))


# ---------------------------------------------------------------------------
# sparse multivariate polynomials with provenance-weighted coefficients
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial in (A_1..A_N, B); B is the last variable.

    ``terms`` maps exponent tuples to coefficients (complex or Fraction).
    ``dweights`` carries the modular weight of the transcendental data in
    each coefficient, so weighted homogeneity can be checked structurally.
    """

    __slots__ = ("nvars", "terms", "dweights", "_flat")

    def __init__(self, nvars, terms=None, dweights=None):
        self.nvars = nvars
        self.terms = dict(terms or {})
        self.dweights = dict(dweights or {})
        self._flat = None

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c, weight=0):
        p = cls(nvars)
        if c != 0:
            e = (0,) * nvars
            p.terms[e] = c
            p.dweights[e] = weight
        return p

    @classmethod
    def var(cls, nvars, i):
        p = cls(nvars)
        e = tuple(1 if k == i else 0 for k in range(nvars))
        p.terms[e] = 1
        p.dweights[e] = 0
        return p

    def copy(self):
        return MultiPoly(self.nvars, self.terms, self.dweights)

    def _accumulate(self, e, c, w):
        self._flat = None
        if c == 0:
            return
        if e in self.terms:
            if self.dweights[e] != w:
                raise ValueError(f"data-weight clash at exponent {e}: "
                                 f"{self.dweights[e]} vs {w}")
            c = self.terms[e] + c
            if c == 0:
                del self.terms[e]
                del self.dweights[e]
                return
            self.terms[e] = c
        else:
            self.terms[e] = c
            self.dweights[e] = w

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.nvars, other)
        out = self.copy()
        for e, c in other.terms.items():
            out._accumulate(e, c, other.dweights[e])
        return out

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.nvars, other)
        return self + other.scale(-1)

    def scale(self, c, weight=0):
        out = MultiPoly(self.nvars)
        if c == 0:
            return out
        for e, cf in self.terms.items():
            out.terms[e] = cf * c
            out.dweights[e] = self.dweights[e] + weight
        return out

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        out = MultiPoly(self.nvars)
        for e1, c1 in self.terms.items():
            w1 = self.dweights[e1]
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out._accumulate(e, c1 * c2, w1 + other.dweights[e2])
        return out

    __rmul__ = __mul__

    def _compiled(self):
        """(top exponent per variable, term list), built on first use; the
        list holds (complex(c), ((var, k), ...) with k > 0) in ``terms`` order."""
        if self._flat is None:
            top = [max(col) for col in zip(*self.terms)] or [0] * self.nvars
            self._flat = (top, [(complex(c), tuple((i, k) for i, k in enumerate(e) if k))
                                for e, c in self.terms.items()])
        return self._flat

    def evaluate(self, values) -> complex:
        return complex(_evaluate([self], values)[0][0])

    def monomial_scale(self, values) -> float:
        vals = [abs(complex(v)) for v in values]
        best = 0.0
        for c, factors in self._compiled()[1]:
            t = abs(c)
            for i, k in factors:
                t *= vals[i]**k
            best = max(best, t)
        return best

    def partial(self, i):
        out = MultiPoly(self.nvars)
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            en = tuple(k - 1 if j == i else k for j, k in enumerate(e))
            out._accumulate(en, c * e[i], self.dweights[e])
        return out

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def weighted_degrees(self, var_weights) -> set:
        """Set of total weights (variable weights plus data weight) over terms."""
        out = set()
        for e, _ in self.terms.items():
            out.add(sum(k * w for k, w in zip(e, var_weights)) + self.dweights[e])
        return out

    def top_weighted_part(self, var_weights, weight):
        """Terms of exact weighted degree ``weight`` with zero data weight."""
        out = MultiPoly(self.nvars)
        for e, c in self.terms.items():
            if self.dweights[e] == 0 and \
               sum(k * w for k, w in zip(e, var_weights)) == weight:
                out.terms[e] = c
                out.dweights[e] = 0
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly) or self.nvars != other.nvars:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        names = [f"A{i+1}" for i in range(self.nvars - 1)] + ["B"]
        bits = []
        for e in sorted(self.terms, reverse=True):
            mono = "*".join(f"{n}^{k}" if k > 1 else n
                            for n, k in zip(names, e) if k)
            bits.append(f"({self.terms[e]}){'*' + mono if mono else ''}")
        return " + ".join(bits) or "0"


def _evaluate(polys, values, pw=None):
    """Values of ``polys`` at ``values`` as an array, and the power table
    pw[i][k] = x_i**k they came from (pass it back for their partials).
    Each term is t = c; t *= x**k ...; total += t, in ``terms`` order."""
    flats = [p._compiled() for p in polys]
    if pw is None:
        top = map(max, zip(*(f[0] for f in flats)))
        pw = [[x**k for k in range(d + 1)] for x, d in zip(map(complex, values), top)]
    out = []
    for _, terms in flats:
        total = 0.0 + 0j
        for c, factors in terms:
            t = c
            for i, k in factors:
                t *= pw[i][k]
            total += t
        out.append(total)
    return np.array(out), pw


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------

def _linear_data_terms(L: SourceDivisor, i: int, k: int, ctx: LatticeContext,
                       zrows, prows) -> MultiPoly:
    """L_k for source i: sum_j zeta^(k)_{ij} A_j + eta_j(eta_j+1) wp^(k)_{ij},
    plus B when k = 0.  Diagonal entries use the regular parts."""
    N = L.N
    nv = N + 1
    out = MultiPoly.zero(nv)
    for j in range(N):
        zc = zrows[(i, j)][k]
        if zc != 0:
            out = out + MultiPoly.var(nv, j).scale(zc, weight=k + 1)
        lj = L.weights[j]
        coeff = (lj / 2.0) * (lj / 2.0 + 1.0) * prows[(i, j)][k]
        if coeff != 0:
            out = out + MultiPoly.const(nv, coeff, weight=k + 2)
    if k == 0:
        out = out + MultiPoly.var(nv, N)   # B
    return out


def build_system(L: SourceDivisor, ctx: LatticeContext) -> list[MultiPoly]:
    """[F_0, F_1..F_N]: the log-free obstruction system for the divisor.

    F_0 = sum A_i.  For each source, local coefficients e~_{i,k} are built
    symbolically from e~_{i,0} = A_i / l_i via
    (l_i - (k+1)) e~_{i,k+1} = - sum_t e~_{i,t} e~_{i,k-t} + L_k
    and F_i is the obstruction at the critical step k + 1 = l_i:
    F_i = sum_{t<l_i} e~_{i,t} e~_{i,l_i-1-t} - L_{l_i-1}, of degree l_i + 1.
    """
    L.validate(ctx)
    N = L.N
    nv = N + 1
    zrows, prows = {}, {}
    for i in range(N):
        for j in range(N):
            kmax = max(L.weights) + 1
            zrows[(i, j)] = taylor_data("zeta", L.points[i].z, L.points[j].z, kmax, ctx)
            prows[(i, j)] = taylor_data("wp", L.points[i].z, L.points[j].z, kmax, ctx)
    system = []
    f0 = MultiPoly.zero(nv)
    for j in range(N):
        f0 = f0 + MultiPoly.var(nv, j)
    system.append(f0)
    for i in range(N):
        li = L.weights[i]
        e = [MultiPoly.var(nv, i).scale(1.0 / li)]
        for k in range(0, li - 1):
            conv = MultiPoly.zero(nv)
            for t in range(k + 1):
                conv = conv + e[t] * e[k - t]
            rhs = conv.scale(-1) + _linear_data_terms(L, i, k, ctx, zrows, prows)
            e.append(rhs.scale(1.0 / (li - (k + 1))))
        conv = MultiPoly.zero(nv)
        for t in range(li):
            conv = conv + e[t] * e[li - 1 - t]
        fi = conv - _linear_data_terms(L, i, li - 1, ctx, zrows, prows)
        system.append(fi)
    return system


def degree_formula(L: SourceDivisor) -> int:
    """Algebraic degree d_L = (1/2) prod (l_i + 1), defined for odd ell."""
    if L.ell % 2 == 0:
        raise EvenTotalWeight("the counting formula applies to odd total weight")
    prod = 1
    for w in L.weights:
        prod *= w + 1
    return prod // 2


# ---------------------------------------------------------------------------
# universal top terms
# ---------------------------------------------------------------------------

def top_term_closed(ell: int) -> MultiPoly:
    """q_ell = ((-1)^ell/(ell!)^2) prod_{j=0}^{ell} (A - (ell-2j) B^(1/2)),
    expanded as an exact-rational polynomial in (A, B).

    Factors pair off (ell-2j) with -(ell-2j), so the square root never
    survives: the product collapses to quadratics A^2 - (ell-2j)^2 B over
    the positive offsets, times a bare A when ell is even.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    nv = 2  # variables (A, B)
    poly = MultiPoly.const(nv, Fr(1))
    for j in range((ell + 1) // 2):
        m = ell - 2 * j
        quad = MultiPoly.zero(nv)
        quad._accumulate((2, 0), Fr(1), 0)
        quad._accumulate((0, 1), Fr(-m * m), 0)
        poly = poly * quad
    if ell % 2 == 0:
        poly = poly * MultiPoly.var(nv, 0)
    sign = Fr((-1) ** ell, math.factorial(ell) ** 2)
    return poly.scale(sign)


def top_term_recursive(ell: int) -> MultiPoly:
    """q_ell from the reduced recursion with exact rational arithmetic:
    e~_0 = A/ell, (ell-1) e~_1 = -(A^2/ell^2 - B), then
    (ell-(k+1)) e~_{k+1} = -sum e~_t e~_{k-t} and
    q_ell = -sum_{t<ell} e~_t e~_{ell-1-t}.  Must match the closed form.
    """
    if ell < 2:
        raise ValueError("the reduced recursion needs ell >= 2")
    nv = 2
    A = MultiPoly.var(nv, 0)
    B = MultiPoly.var(nv, 1)
    e = [A.scale(Fr(1, ell))]
    e1 = (A * A).scale(Fr(1, ell * ell)) - B
    e.append(e1.scale(Fr(-1, ell - 1)))
    for k in range(1, ell - 1):
        conv = MultiPoly.zero(nv)
        for t in range(k + 1):
            conv = conv + e[t] * e[k - t]
        e.append(conv.scale(Fr(-1, ell - (k + 1))))
    conv = MultiPoly.zero(nv)
    for t in range(ell):
        conv = conv + e[t] * e[ell - 1 - t]
    return conv.scale(Fr(-1))


def ehat_eval(s: complex, k: int, A: complex, B: complex) -> complex:
    """Universal coefficient e^_k(s): e^_0 = -A/s, e^_1 = (A^2/s^2 - B)/(s-1),
    e^_{k+1} = (1/(s-(k+1))) sum_t e^_t e^_{k-t}.

    -q_ell is the residue of e^_ell at s = ell, so (s-ell) e^_ell(s) near
    s = ell probes the top term numerically.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    s = complex(s)
    for m in range(1, k + 1):
        if abs(s - m) < 1e-12:
            raise PoleAtInteger(f"s = {s} collides with the pole at {m}")
    seq = [-A / s]
    if k >= 1:
        seq.append((A * A / (s * s) - B) / (s - 1.0))
    for m in range(1, k):
        tot = sum(seq[t] * seq[m - t] for t in range(m + 1))
        seq.append(tot / (s - (m + 1)))
    return seq[k]


# ---------------------------------------------------------------------------
# numerical solving
# ---------------------------------------------------------------------------

@dataclass
class SolveConfig:
    seed: int = 0
    max_starts: int = 1200

    def __post_init__(self):
        if self.max_starts < 0:
            raise ValueError(f"max_starts must be >= 0, got {self.max_starts}")


#: Newton steps per start, relative distance under which two roots are
#: one, and residual (relative to the largest monomial) a root must beat
_NEWTON_ITERS = 80
_DEDUP_TOL = 1e-7
_RESIDUAL_TOL = 1e-10


def _newton_system(polys, grads, v0):
    """Root of the system from v0, or None; gradients only at accepted
    iterates, from the power table of the residual there."""
    flat = [g for row in grads for g in row]
    hit = _damped_newton(lambda v: _evaluate(polys, v),
                         lambda v, f, pw: _evaluate(flat, v, pw)[0].reshape(len(polys), -1),
                         np.array(v0, dtype=complex), 1e-13, _NEWTON_ITERS, final_tol=1e-11)
    return None if hit is None else hit[0]


def solve_polynomial_system(polys: list[MultiPoly], cfg: SolveConfig,
                            expected: int | None = None, grads=None) -> list[np.ndarray]:
    """Multistart :func:`~lamelab.elliptic._damped_newton` with dedup;
    deterministic under cfg.seed.

    Starts are complex Gaussians scaled by a radius from the largest
    coefficient, drawn in one block.  Stops as soon as ``expected`` distinct
    roots are found.  Root vectors come back sorted (by B, then
    lexicographically).  The partials grads[i][j] are built unless given.
    """
    nv = polys[0].nvars
    grads = grads or [[p.partial(i) for i in range(nv)] for p in polys]
    rng = np.random.default_rng(cfg.seed)
    big = max(max((abs(complex(c)) for c in p.terms.values()), default=1.0)
              for p in polys)
    radius = 2.0 + 1.5 * math.sqrt(big)
    z = rng.standard_normal((cfg.max_starts, 2, nv))   # per start: nv real, nv imaginary
    starts = z[:, 0] + 1j * z[:, 1]
    starts *= radius / 2.0
    starts[:, -1] *= radius / 2.0   # B can be larger
    roots: list[np.ndarray] = []

    def is_dup(v):
        for r in roots:
            if np.max(np.abs(v - r)) / (1.0 + np.max(np.abs(r))) < _DEDUP_TOL:
                return True
        return False

    for v0 in starts:
        if expected is not None and len(roots) >= expected:
            break
        res = _newton_system(polys, grads, v0)
        if res is not None and not is_dup(res):
            roots.append(res)
    roots.sort(key=lambda v: (round(v[-1].real, 8), round(v[-1].imag, 8))
               + tuple((round(c.real, 8), round(c.imag, 8)) for c in v[:-1]))
    return roots


def solve_system(L: SourceDivisor, ctx: LatticeContext,
                 cfg: SolveConfig | None = None) -> list[LameParams]:
    """All log-free parameters for the divisor.

    Odd ell: the count must reach d_L = (1/2) prod (l_i + 1); anything
    less after cfg.max_starts raises PartialEnumeration carrying the
    partial list.  Even ell: the zero set may contain curves, so only
    roots with a nonsingular Jacobian (genuinely isolated ones) are
    returned and no completeness is claimed.
    """
    cfg = cfg or SolveConfig()
    system = build_system(L, ctx)
    expected = degree_formula(L) if L.ell % 2 == 1 else None
    grads = [[p.partial(i) for i in range(system[0].nvars)] for p in system]
    roots = solve_polynomial_system(system, cfg, expected=expected, grads=grads)
    flat = [g for row in grads for g in row]
    out = []
    for v in roots:
        f, pw = _evaluate(system, v)
        resid = max(map(abs, f.tolist()))
        if resid >= _RESIDUAL_TOL * (1.0 + max(p.monomial_scale(v) for p in system)):
            continue
        sv = np.linalg.svd(_evaluate(flat, v, pw)[0].reshape(len(system), -1), compute_uv=False)
        if expected is None and sv[-1] < 1e-6 * max(sv[0], 1.0):
            continue   # tangent direction present: sits on a curve component
        out.append(LameParams(A=list(v[:-1]), B=complex(v[-1]), residual=resid,
                              jacobian_sigma_min=float(sv[-1])))
    if expected is not None and len(out) < expected:
        raise PartialEnumeration(
            f"found {len(out)} of {expected} roots after {cfg.max_starts} starts",
            solutions=out, expected=expected)
    if expected is not None:
        out = out[:expected]
    return out


def solutions_json(L: SourceDivisor, sols: list[LameParams],
                   expected: int | None) -> dict:
    return {
        "schema": 1,
        "divisor": {
            "points": [{"r": p.r, "s": p.s} for p in L.points],
            "weights": list(L.weights),
        },
        "expected_count": expected,
        "found_count": len(sols),
        "solutions": [
            {
                "A": [[a.real, a.imag] for a in s.A],
                "B": [s.B.real, s.B.imag],
                "residual": s.residual,
                "jacobian_sigma_min": s.jacobian_sigma_min,
            }
            for s in sols
        ],
    }


# ---------------------------------------------------------------------------
# symmetric odd reduction (p, -p pairs plus the origin)
# ---------------------------------------------------------------------------

def _reduce_symmetric(poly: MultiPoly, n: int) -> MultiPoly:
    """Substitute A_{n+i} -> -A_i, A_{2n+1} -> 0 and renumber to
    (A_1..A_n, B)."""
    N = 2 * n + 1
    out = MultiPoly(n + 1)
    for e, c in poly.terms.items():
        if e[2 * n] > 0:          # A_{2n+1} == 0 kills the term
            continue
        sign = 1
        newe = [0] * (n + 1)
        for i in range(n):
            newe[i] = e[i] + e[n + i]
            if e[n + i] % 2 == 1:
                sign = -sign
        newe[n] = e[N]
        out._accumulate(tuple(newe), sign * c, poly.dweights[e])
    return out


def symmetric_reduce(L: SourceDivisor, ctx: LatticeContext,
                     cfg: SolveConfig | None = None):
    """Impose A_{n+i} = -A_i, A_{2n+1} = 0 on a symmetric odd divisor
    (p_i, -p_i pairs and the origin, all weight 1) and solve.

    Returns (reduced_system, reduced_roots, lifted LameParams); the lift
    is checked against the full system.  Expect exactly 2^n solutions.
    """
    cfg = cfg or SolveConfig()
    n = (L.ell - 1) // 2
    if L.ell != 2 * n + 1 or any(w != 1 for w in L.weights):
        raise ValueError("symmetric reduction needs the primitive odd layout")
    for i in range(n):
        d = lattice_distance(L.points[i].z + L.points[n + i].z, ctx)
        if d > 1e-8:
            raise ValueError(f"points {i} and {n+i} are not opposite (defect {d:.1e})")
    if lattice_distance(L.points[2 * n].z, ctx) > 1e-8:
        raise ValueError("last point must be the origin")
    full = build_system(L, ctx)
    reduced = [_reduce_symmetric(full[i + 1], n) for i in range(n)]
    reduced.append(_reduce_symmetric(full[2 * n + 1], n))
    roots = solve_polynomial_system(reduced, cfg, expected=2 ** n)
    lifted = []
    for v in roots:
        Afull = list(v[:n]) + [-a for a in v[:n]] + [0.0 + 0j]
        vfull = np.array(Afull + [v[n]], dtype=complex)
        resid = max(abs(p.evaluate(vfull)) for p in full)
        lifted.append(LameParams(A=Afull, B=complex(v[n]), residual=resid))
    if len(lifted) < 2 ** n:
        raise PartialEnumeration(
            f"symmetric reduction found {len(lifted)} of {2**n} roots",
            solutions=lifted, expected=2 ** n)
    return reduced, roots, lifted


# ---------------------------------------------------------------------------
# even-ell germ series at the infinity point
# ---------------------------------------------------------------------------

@dataclass
class GermSeries:
    """Branch coefficients x_i(t) = (-1)^i sum_k a_{i,k} t^k at infinity.

    ``coeffs[i, k]`` holds a_{i+1, k}; index i is the 0-based position in
    the alternating ordering used.  zhat and wp_i are the sign-folded
    zeta sums and wp row sums entering the recursion.
    """

    order: tuple
    coeffs: np.ndarray
    zhat: np.ndarray
    wp_row: np.ndarray


def germ_series(L: SourceDivisor, sign_assignment, K: int,
                ctx: LatticeContext) -> GermSeries:
    """Power-series germ of the solution curve at the infinity point for a
    primitive even divisor (all weights 1, ell = 2n).

    ``sign_assignment`` is the ordering of the sources that receives the
    alternating signs (-1)^i; pass None for the given order.  Recursion:
    a_{i,1} = 1, a_{i,2} = zhat_i / 2, the t^4 step picks up 3 wp_i / 8,
    and for k >= 3
    a_{i,k+1} = (1/2) sum_j zhat_{ij} a_{j,k}
                - (1/2) sum_{p=2..k} a_{i,p} a_{i,k+2-p}.
    """
    L.validate(ctx)
    if any(w != 1 for w in L.weights) or L.ell % 2 == 1:
        raise ValueError("germ series needs a primitive even divisor")
    if K < 2:
        raise ValueError("K must be >= 2")
    m = L.ell
    order = tuple(sign_assignment) if sign_assignment is not None else tuple(range(m))
    if sorted(order) != list(range(m)):
        raise ValueError("sign_assignment must be a permutation of the sources")
    pts = [L.points[i].z for i in order]
    zhat_ij = np.zeros((m, m), dtype=complex)
    wp_row = np.zeros(m, dtype=complex)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            # alternating sign follows the 1-based position in the ordering
            zhat_ij[i, j] = (-1.0) ** (j + 1) * zeta_w(pts[i] - pts[j], ctx)
            wp_row[i] += weierstrass(pts[i] - pts[j], ctx)[0]
    zhat = zhat_ij.sum(axis=1)
    a = np.zeros((m, K + 1), dtype=complex)
    a[:, 1] = 1.0
    a[:, 2] = zhat / 2.0
    for k in range(2, K):
        # t^{k+2} coefficient balance gives a_{i,k+1}
        lin = 0.5 * (zhat_ij @ a[:, k])
        quad = np.zeros(m, dtype=complex)
        for p in range(2, k + 1):
            quad += a[:, p] * a[:, k + 2 - p]
        a[:, k + 1] = lin - 0.5 * quad
        if k == 2:
            a[:, 3] += (3.0 / 8.0) * wp_row
    return GermSeries(order=order, coeffs=a, zhat=zhat, wp_row=wp_row)


@dataclass
class GermConstraintReport:
    """Global closure sums sum_i (-1)^i a_{i,k} and the two sides of the
    cubic t^5 relation (reported, never asserted):
    lhs = sum (-1)^i zhat_i^3, rhs = 3 sum (-1)^i zhat_i wp_i."""

    values: list
    k4_lhs: complex
    k4_rhs: complex

    def scale(self) -> float:
        return 1.0 + max(abs(v) for v in (self.k4_lhs, self.k4_rhs))


def germ_constraints(series: GermSeries) -> GermConstraintReport:
    m, width = series.coeffs.shape
    signs = np.array([(-1.0) ** (i + 1) for i in range(m)])
    values = [complex(signs @ series.coeffs[:, k]) for k in range(1, width)]
    lhs = complex(signs @ (series.zhat**3))
    rhs = complex(3.0 * (signs @ (series.zhat * series.wp_row)))
    return GermConstraintReport(values=values, k4_lhs=lhs, k4_rhs=rhs)


def germ_constraints_csv(report: GermConstraintReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im", "abs"])
        for k, v in enumerate(report.values, start=1):
            w.writerow([k, v.real, v.imag, abs(v)])
        w.writerow(["t5_lhs", report.k4_lhs.real, report.k4_lhs.imag, abs(report.k4_lhs)])
        w.writerow(["t5_rhs", report.k4_rhs.real, report.k4_rhs.imag, abs(report.k4_rhs)])


def verify_l4_identity(p1, p2, p3, p4, ctx: LatticeContext) -> float:
    """|wp_24 - wp_13 - (z_24 - z_13 + z_12 - z_34)(z_24 + z_13 - z_14 - z_23)|.

    The factorized four-point relation behind the l = 4 curve component;
    identically zero, so the return value is a pure roundoff residual.
    """
    pts = [p.z if isinstance(p, TorusPoint) else complex(p) for p in (p1, p2, p3, p4)]
    for i in range(4):
        for j in range(i + 1, 4):
            if lattice_distance(pts[i] - pts[j], ctx) < POLE_CLEARANCE:
                raise DistinctnessViolation(f"points {i} and {j} collide")
    def ze(i, j):
        return zeta_w(pts[i] - pts[j], ctx)
    wp24 = wp(pts[1] - pts[3], ctx)
    wp13 = wp(pts[0] - pts[2], ctx)
    lhs = wp24 - wp13
    rhs = (ze(1, 3) - ze(0, 2) + ze(0, 1) - ze(2, 3)) * \
          (ze(1, 3) + ze(0, 2) - ze(0, 3) - ze(1, 2))
    return abs(lhs - rhs)


def l4_identity_scale(p1, p2, p3, p4, ctx: LatticeContext) -> float:
    pts = [p.z if isinstance(p, TorusPoint) else complex(p) for p in (p1, p2, p3, p4)]
    vals = [abs(wp(pts[1] - pts[3], ctx)), abs(wp(pts[0] - pts[2], ctx))]
    zs = [abs(zeta_w(pts[i] - pts[j], ctx)) for i in range(4) for j in range(4) if i != j]
    return 1.0 + max(vals) + max(zs) ** 2


# ---------------------------------------------------------------------------
# symmetric even family (curve component for l = 4)
# ---------------------------------------------------------------------------

def symmetric_even_family(p1, p2, ctx: LatticeContext, t_values) -> list[LameParams]:
    """Points along the symmetric curve component for the primitive even
    divisor (p1, p2, -p1, -p2): impose A_3 = -A_1, A_4 = -A_2, sweep
    A_1 = t, and solve the two reduced quadratics for (A_2, B) in closed
    form.  Each sample lifts to a full log-free parameter; the recorded
    residual is measured against the full unreduced system.
    """
    z1 = p1.z if isinstance(p1, TorusPoint) else complex(p1)
    z2 = p2.z if isinstance(p2, TorusPoint) else complex(p2)
    pts = [z1, z2, -z1, -z2]
    divisor = SourceDivisor(
        points=tuple(TorusPoint.from_z(z, ctx) for z in pts),
        weights=(1, 1, 1, 1))
    full = build_system(divisor, ctx)
    def ze(i, j):
        return zeta_w(pts[i] - pts[j], ctx)
    def pe(i, j):
        return wp(pts[i] - pts[j], ctx)
    wp_row = [sum(pe(i, j) for j in range(4) if j != i) for i in range(4)]
    # reduced i=1: A1^2 = c11 A1 + c12 A2 + B + (3/4) wp_1
    # reduced i=2: A2^2 = c22 A2 + c21 A1 + B + (3/4) wp_2
    c11 = -ze(0, 2)           # -zeta(2 p1)
    c12 = ze(0, 1) - ze(0, 3)
    c22 = -ze(1, 3)           # -zeta(2 p2)
    c21 = ze(1, 0) - ze(1, 2)
    out = []
    for t in t_values:
        t = complex(t)
        # eliminate B with equation 1; equation 2 becomes a quadratic in A2
        bq = c12 - c22
        cq = -c21 * t - (t * t - c11 * t - 0.75 * wp_row[0]) - 0.75 * wp_row[1]
        disc = cmath.sqrt(bq * bq - 4.0 * cq)
        for root in ((-bq + disc) / 2.0, (-bq - disc) / 2.0):
            A2 = root
            B = t * t - c11 * t - c12 * A2 - 0.75 * wp_row[0]
            v = np.array([t, A2, -t, -A2, B], dtype=complex)
            resid = max(abs(p.evaluate(v)) for p in full)
            out.append(LameParams(A=[t, A2, -t, -A2], B=B, residual=resid))
    return out
