"""Lame spectral recursion, Liouville curve points, and pre-modular forms.

For the integral Lame operator with potential n(n+1) wp + B, the product
of the two ansatz solutions is a polynomial X(x) in x = wp whose
coefficients s_k satisfy a linear recursion in B, g2, g3.  Points of the
curve X_n are recovered from the roots of X by inverting wp and taking
the signs of wp' from the Lagrange vector.  The explicit degree-n(n+1)/2
polynomials W_n for n <= 4 turn the Hecke function into the pre-modular
forms Z_n.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction as Fr

import numpy as np

from .elliptic import (
    POLE_CLEARANCE,
    LatticeContext,
    TorusPoint,
    _damped_newton,
    _require_clear,
    _wp_clear,
    _wp_zeta,
    lattice_distance,
    sigma_w,
    weierstrass,
    wp_inverse,
    zeta_w,
)
from .errors import NoSignPattern, PoleProximity, RamifiedPoint
from .green import _winding_cells, critical_points, hecke_Z

E2_RS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


def lame_sk_raw(n: int, B: complex, g2: complex, g3: complex) -> list[complex]:
    """s_0..s_n from the linear recursion with explicit invariants.

    s_k is weighted homogeneous of degree k: scaling B -> t^2 B,
    g2 -> t^4 g2, g3 -> t^6 g3 scales s_k by t^(2k).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s: list[complex] = [1.0 + 0j]
    for k in range(1, n + 1):
        sm1 = s[k - 1]
        sm2 = s[k - 2] if k >= 2 else 0.0
        sm3 = s[k - 3] if k >= 3 else 0.0
        m = n - k  # recursion index mu
        num = (4.0 * (m + 1) * B * sm1
               - 0.5 * g2 * (m + 1) * (m + 2) * (2 * m + 3) * sm2
               + g3 * (m + 1) * (m + 2) * (m + 3) * sm3)
        den = 2.0 * k * (2 * m + 1) * (n + m + 1)
        s.append(num / den)
    return s


def lame_sk(n: int, B: complex, ctx: LatticeContext) -> list[complex]:
    """Spectral coefficients s_0..s_n of X(x); s_0 = 1, s_1 = B/(2n-1)."""
    return lame_sk_raw(n, B, ctx.g2, ctx.g3)


def lame_ln_raw(n: int, B: complex, g2: complex, g3: complex) -> complex:
    s = lame_sk_raw(n, B, g2, g3)
    sn, snm1 = s[n], s[n - 1]
    snm2 = s[n - 2] if n >= 2 else 0.0
    return 4.0 * B * sn**2 + 4.0 * g3 * snm2 * sn - g2 * snm1 * sn - g3 * snm1**2


def lame_ln(n: int, B: complex, ctx: LatticeContext) -> complex:
    """Hyperelliptic polynomial l_n(B) = 4B s_n^2 + 4 g3 s_{n-2} s_n
    - g2 s_{n-1} s_n - g3 s_{n-1}^2 (convention s_{-1} = 0)."""
    return lame_ln_raw(n, B, ctx.g2, ctx.g3)


def spectral_poly(n: int, B: complex, ctx: LatticeContext) -> np.ndarray:
    """Coefficients of X(x) = (-1)^n (x^n - s_1 x^{n-1} + ... + (-1)^n s_n),
    highest power first (numpy.roots convention)."""
    s = lame_sk(n, B, ctx)
    return np.array([(-1) ** n * (-1) ** j * s[j] for j in range(n + 1)], dtype=complex)


@dataclass
class XnPoint:
    """A point a = (a_1..a_n) on the Liouville curve X_n."""

    n: int
    a: list            # TorusPoint per entry
    x: list            # wp(a_i)
    y: list            # wp'(a_i)
    B: complex
    residual: float    # max_r |sum y_i x_i^r|, r = 0..n-2

    def sigma(self) -> complex:
        return sum(p.z for p in self.a)

    def negate(self, ctx: LatticeContext) -> "XnPoint":
        return XnPoint(
            n=self.n,
            a=[p.negate(ctx) for p in self.a],
            x=list(self.x),
            y=[-v for v in self.y],
            B=self.B,
            residual=self.residual,
        )

    def canonical(self, ctx: LatticeContext) -> "XnPoint":
        """The same point with each a_i in the fundamental cell, sorted by (r, s)."""
        rows = sorted(zip((p.canonical(ctx) for p in self.a), self.x, self.y),
                      key=lambda row: (row[0].r, row[0].s))
        a, x, y = (list(col) for col in zip(*rows))
        return XnPoint(n=self.n, a=a, x=x, y=y, B=self.B, residual=self.residual)

    def verify(self, ctx: LatticeContext) -> dict:
        """Residuals of the defining invariants, all relative."""
        curve = 0.0
        scale = 1.0
        for r in range(max(self.n - 1, 0)):
            vals = [self.y[i] * self.x[i] ** r for i in range(self.n)]
            scale = max(scale, max(abs(v) for v in vals))
            curve = max(curve, abs(sum(vals)))
        bres = abs(self.B - (2 * self.n - 1) * sum(self.x)) / (1.0 + abs(self.B))
        cubic = max(
            abs(self.y[i] ** 2 - (4 * self.x[i] ** 3 - ctx.g2 * self.x[i] - ctx.g3))
            / (1.0 + abs(self.y[i]) ** 2)
            for i in range(self.n)
        )
        return {"curve": curve / scale, "B": bres, "weierstrass": cubic}

    def to_json(self) -> str:
        return json.dumps({
            "schema": 1,
            "n": self.n,
            "B": [self.B.real, self.B.imag],
            "a": [{"r": p.r, "s": p.s} for p in self.a],
            "x": [[v.real, v.imag] for v in self.x],
            "y": [[v.real, v.imag] for v in self.y],
            "residual": self.residual,
        }, indent=2)


#: l_n(B) below this times 1 + |B|^(2n+1) is a branch value of Y_n
RAMIFIED_TOL = 1e-9
#: largest accepted residual of sum y_i x_i^r, relative to 1 + its largest term
PATTERN_TOL = 1e-8


def _lagrange_signs(xs, ys) -> list[int]:
    """Signs eps with eps_i y_i nearest c / prod_{j != i}(x_i - x_j), c fit
    to y_1: on X_n the y_i span the null vector of sum y_i x_i^r = 0,
    r <= n - 2.  ``ys`` may list fewer entries than ``xs``."""
    v = [1.0 / math.prod(xi - xj for j, xj in enumerate(xs) if j != i)
         for i, xi in enumerate(xs)]
    c = ys[0] / v[0]
    return [1 if abs(y - c * u) <= abs(y + c * u) else -1 for y, u in zip(ys, v)]


def point_on_Xn(n: int, B: complex, ctx: LatticeContext) -> XnPoint:
    """Recover a point of X_n above B: roots of X(x), wp-inversion, then
    the signs of wp' from the Lagrange vector (:func:`_lagrange_signs`).

    Raises RamifiedPoint on the branch locus l_n(B) ~ 0 (where a = -a and
    the sign structure degenerates) and NoSignPattern if that sign pattern
    leaves sum y_i x_i^r above tolerance.  The global sign is fixed so the
    first entry of the sign vector is +; the mirror point is ``negate()``.
    """
    B = complex(B)
    ln = lame_ln(n, B, ctx)
    ln_scale = 1.0 + abs(B) ** (2 * n + 1)
    if abs(ln) < RAMIFIED_TOL * ln_scale:
        raise RamifiedPoint(f"l_{n}(B) = {ln:.3e} ~ 0: branch point of Y_{n}")
    xs = np.roots(spectral_poly(n, B, ctx))
    if n > 1:
        sep = min(abs(xs[i] - xs[j]) for i in range(n) for j in range(i + 1, n))
        if sep < 1e-7 * (1.0 + np.max(np.abs(xs))):
            raise RamifiedPoint("spectral polynomial has (nearly) multiple roots")
    pts = [wp_inverse(x, ctx, sign_hint=+1) for x in xs]
    xs, ys = (list(v) for v in zip(*(weierstrass(p.z, ctx) for p in pts)))
    scale = max([1.0] + [abs(v * x**r) for x, v in zip(xs, ys) for r in range(n - 1)])
    eps = _lagrange_signs(xs, ys)
    y = [eps[i] * ys[i] for i in range(n)]
    res = max((abs(sum(y[i] * xs[i] ** r for i in range(n))) for r in range(n - 1)),
              default=0.0)
    if res > PATTERN_TOL * (1.0 + scale):
        raise NoSignPattern(f"Lagrange sign-pattern residual {res:.3e} exceeds tolerance")
    a = [pts[i] if eps[i] > 0 else pts[i].negate(ctx) for i in range(n)]
    return XnPoint(n=n, a=a, x=list(xs), y=y, B=B, residual=res)


def zn_value(a: XnPoint, ctx: LatticeContext) -> complex:
    """z_n(a) = zeta(a_1 + ... + a_n) - sum zeta(a_i); invariant under
    lattice shifts of the individual entries."""
    sig = a.sigma()
    if lattice_distance(sig, ctx) < POLE_CLEARANCE:
        raise PoleProximity("sigma_n(a) is on the lattice")
    return zeta_w(sig, ctx) - sum(zeta_w(p.z, ctx) for p in a.a)


def _wn_coefficients(n: int):
    """Coefficient table of W_n as {(j, dp, ddp): rational}, the
    coefficient of z^j * wp^dp * wp'^ddp, with g2/g3 entering through
    explicit rational multiples."""
    if n == 2:
        return {
            (3, 0, 0, 0, 0): Fr(1),
            (1, 1, 0, 0, 0): Fr(-3),
            (0, 0, 1, 0, 0): Fr(-1),
        }
    if n == 3:
        return {
            (6, 0, 0, 0, 0): Fr(1),
            (4, 1, 0, 0, 0): Fr(-15),
            (3, 0, 1, 0, 0): Fr(-20),
            (2, 0, 0, 1, 0): Fr(27, 4),
            (2, 2, 0, 0, 0): Fr(-45),
            (1, 1, 1, 0, 0): Fr(-12),
            (0, 0, 2, 0, 0): Fr(-5, 4),
        }
    if n == 4:
        return {
            (10, 0, 0, 0, 0): Fr(1),
            (8, 1, 0, 0, 0): Fr(-45),
            (7, 0, 1, 0, 0): Fr(-120),
            (6, 0, 0, 1, 0): Fr(399, 4),
            (6, 2, 0, 0, 0): Fr(-630),
            (5, 1, 1, 0, 0): Fr(-504),
            (4, 3, 0, 0, 0): Fr(-15, 4) * 280,
            (4, 1, 0, 1, 0): Fr(15, 4) * 49,
            (4, 0, 0, 0, 1): Fr(15, 4) * 115,
            (3, 0, 1, 1, 0): Fr(15) * 11,
            (3, 2, 1, 0, 0): Fr(-15) * 24,
            (2, 4, 0, 0, 0): Fr(-9, 4) * 140,
            (2, 2, 0, 1, 0): Fr(9, 4) * 245,
            (2, 1, 0, 0, 1): Fr(-9, 4) * 190,
            (2, 0, 0, 2, 0): Fr(-9, 4) * 21,
            (1, 3, 1, 0, 0): Fr(-40),
            (1, 1, 1, 1, 0): Fr(163),
            (1, 0, 1, 0, 1): Fr(-125),
            (0, 2, 2, 0, 0): Fr(-9, 4),
            (0, 0, 2, 1, 0): Fr(75, 4),
        }
    raise ValueError("explicit W_n is available for n in {2, 3, 4} only")


def _wn(n: int, zval, p, pp, ctx: LatticeContext, partials: bool = False):
    """W_n at Z = zval with wp, wp' = p, pp (scalars or arrays), from the
    :func:`_wn_coefficients` table; with ``partials`` the tuple
    (W_n, dW_n/dZ, dW_n/dwp, dW_n/dwp')."""
    out = [0.0 + 0j] * (4 if partials else 1)
    for (jz, dp, ddp, dg2, dg3), cf in _wn_coefficients(n).items():
        def term(j, a, b):
            return complex(cf) * zval**j * p**a * pp**b * ctx.g2**dg2 * ctx.g3**dg3
        out[0] += term(jz, dp, ddp)
        if partials:
            if jz:
                out[1] += jz * term(jz - 1, dp, ddp)
            if dp:
                out[2] += dp * term(jz, dp - 1, ddp)
            if ddp:
                out[3] += ddp * term(jz, dp, ddp - 1)
    return tuple(out) if partials else out[0]


def Wn_eval(n: int, zval: complex, sigma, ctx: LatticeContext) -> complex:
    """The explicit polynomial W_n(z) with wp, wp' at sigma and g2, g3
    from the context; W_n(z_n(a)) = 0 on X_n."""
    sig = sigma.z if isinstance(sigma, TorusPoint) else complex(sigma)
    p, pp = weierstrass(sig, ctx)     # raises PoleProximity on the lattice
    return _wn(n, zval, p, pp, ctx)


def Wn_monomial_scale(n: int, zval: complex, sigma, ctx: LatticeContext) -> float:
    """Largest monomial magnitude in W_n: reference scale for residuals."""
    sig = sigma.z if isinstance(sigma, TorusPoint) else complex(sigma)
    p, pp = weierstrass(sig, ctx)
    return max(
        abs(complex(cf)) * abs(zval) ** jz * abs(p) ** dp * abs(pp) ** ddp
        * abs(ctx.g2) ** dg2 * abs(ctx.g3) ** dg3
        for (jz, dp, ddp, dg2, dg3), cf in _wn_coefficients(n).items()
    )


def Zn_premodular(n: int, sigma, ctx: LatticeContext) -> complex:
    """Pre-modular form Z_n(sigma) = W_n(Z(sigma)); Z_1 is the Hecke
    function itself."""
    pt = sigma if isinstance(sigma, TorusPoint) else TorusPoint.from_z(complex(sigma), ctx)
    if n == 1:
        return hecke_Z(pt.r, pt.s, ctx)
    _require_clear(pt.z, ctx)
    p, zeta, pp = _wp_zeta(pt.z, ctx, prime=True)
    return _wn(n, zeta - pt.r * ctx.eta1 - pt.s * ctx.eta2, p, pp, ctx)


def hermite_halphen(a: XnPoint, z: complex, ctx: LatticeContext) -> complex:
    """Ansatz solution w_a(z) = e^{z sum zeta(a_i)} prod sigma(z - a_i) /
    (sigma(z) sigma(a_i)) of the Lame equation with B = (2n-1) sum wp(a_i)."""
    z = complex(z)
    if lattice_distance(z, ctx) < POLE_CLEARANCE:
        raise PoleProximity("z on the lattice")
    for p in a.a:
        if lattice_distance(z - p.z, ctx) < POLE_CLEARANCE / 10:
            raise PoleProximity("z collides with a zero of the ansatz")
    zsum = sum(zeta_w(p.z, ctx) for p in a.a)
    val = cmath.exp(z * zsum)
    sz = sigma_w(z, ctx)
    for p in a.a:
        val *= sigma_w(z - p.z, ctx) / (sz * sigma_w(p.z, ctx))
    return val


def hermite_halphen_logderiv(a: XnPoint, z: complex, ctx: LatticeContext) -> complex:
    """w_a'(z)/w_a(z) = sum zeta(a_i) + sum zeta(z - a_i) - n zeta(z)."""
    z = complex(z)
    return (sum(zeta_w(p.z, ctx) for p in a.a)
            + sum(zeta_w(z - p.z, ctx) for p in a.a)
            - a.n * zeta_w(z, ctx))


def _rs_distance(r: float, s: float, r0: float, s0: float) -> float:
    """Distance of (r, s) from (r0, s0) in lattice coordinates, modulo 1."""
    return math.hypot(min((r - r0) % 1.0, (r0 - r) % 1.0), min((s - s0) % 1.0, (s0 - s) % 1.0))


def _is_two_torsion(r: float, s: float) -> bool:
    return any(_rs_distance(r, s, hr, hs) < 1e-8 for hr, hs in E2_RS)


def _fiber_poly(n: int, w: complex, g2: complex, g3: complex) -> list[complex]:
    """Coefficients in B, highest first, whose roots are the B of the
    points of X_n over sigma, w = wp(sigma).  wp(sigma_n(a)) is even under
    a -> -a, so it is rational in B, of degree n(n+1)/2 (Lin & Wang,
    "Mean field equations, hyperelliptic curves and modular forms", 2017).

    n = 2: wp(sigma) = y_1^2/(x_1 - x_2)^2 - B/3 with y_2 = -y_1,
    x_1 + x_2 = B/3, x_1 x_2 = B^2/9 - g2/4 gives B^3 - 9wB^2 + 27(w g2 + g3).
    n = 3: the parabola y = px^2 + qx + r through the three points meets the
    curve again at -sigma, so w = 4/p^2 - 2q/p - sum x_i.  With
    y_i = c / prod_{j != i}(x_i - x_j), p and q are symmetric in the x_i;
    x_i -> s_k(B) and cancelling gives N_3(B) - 36wB(4B^2 - 75g2)^2, N_3 =
    16B^6 + 360g2B^4 + 27000g3B^3 - 3375g2^2B^2 - 303750g2g3B - 84375g2^3
    + 2278125g3^2.
    """
    if n == 2:
        return [1.0, -9.0 * w, 0.0, 27.0 * (w * g2 + g3)]
    return [16.0, -576.0 * w, 360.0 * g2, 27000.0 * g3 + 21600.0 * w * g2,
            -3375.0 * g2**2, -303750.0 * g2 * g3 - 202500.0 * w * g2**2,
            -84375.0 * g2**3 + 2278125.0 * g3**2]


def _fiber_over_sigma(sigma: complex, ctx: LatticeContext, n: int) -> list[XnPoint]:
    """All points of X_n (n = 2, 3) above sigma under the addition map.

    Each root B of :func:`_fiber_poly` is lifted: x from the roots of X(x),
    a_1..a_{n-1} by ``wp_inverse`` with :func:`_lagrange_signs`, a_n =
    sigma - sum a_i with the global sign that puts wp(a_n) nearer x_n (the
    mirror lies over -sigma), then one damped-Newton polish on
    (sum y_i x_i^r)_{r <= n-2} relative to its largest term.  Roots whose
    polish fails or meets the pole clearance are skipped.
    """
    g2, g3 = ctx.g2, ctx.g3

    def split(a):
        head = [a] if n == 2 else list(a)
        return head + [sigma - sum(head)]

    def residual(a):
        vals = [_wp_clear(c, ctx) for c in split(a)]
        if None in vals:
            return None
        f = [sum(y * x**r for x, y in vals) for r in range(n - 1)]
        return (f[0] if n == 2 else np.array(f)), vals

    def jacobian(a, f, vals):
        # holomorphic; a_n = sigma - sum a_i enters every column with a minus sign
        d1 = [6.0 * x * x - g2 / 2.0 for x, _ in vals]        # (wp')' = wp''
        if n == 2:
            return d1[0] - d1[1]
        d2 = [d * x + y * y for d, (x, y) in zip(d1, vals)]   # (wp' wp)'
        return np.array([[d1[0] - d1[2], d1[1] - d1[2]],
                         [d2[0] - d2[2], d2[1] - d2[2]]])

    def gap(head, xn):
        v = _wp_clear(sigma - sum(head), ctx)
        return math.inf if v is None else abs(v[0] - xn)

    out = []
    for B in np.roots(_fiber_poly(n, weierstrass(sigma, ctx)[0], g2, g3)):
        xs = np.roots(spectral_poly(n, B, ctx))
        ws = [cmath.sqrt(4.0 * x**3 - g2 * x - g3) for x in xs]   # wp'(wp_inverse(x))
        eps = _lagrange_signs(xs, ws[:-1])
        head = [wp_inverse(x, ctx, sign_hint=e).z for x, e in zip(xs, eps)]
        head = min((head, [-c for c in head]), key=lambda h: gap(h, xs[-1]))
        tol = 1e-11 * (1.0 + max(abs(w * x**r) for w, x in zip(ws, xs) for r in range(n - 1)))
        hit = _damped_newton(residual, jacobian, head[0] if n == 2 else np.array(head),
                             tol, 60, cap=0.45)
        if hit is None:
            continue
        a, (f, vals) = hit
        x, y = (list(col) for col in zip(*vals))
        out.append(XnPoint(n=n, a=[TorusPoint.from_z(c, ctx) for c in split(a)],
                           x=x, y=y, B=(2 * n - 1) * sum(x), residual=float(np.abs(f).max())))
    return out


def sigma_n_degree_probe(n: int, sigma0, ctx: LatticeContext) -> int:
    """Number of distinct B with sigma_n(a(B)) = sigma0 (expect n(n+1)/2).

    For n = 2, 3 the B are the roots of :func:`_fiber_poly` whose fiber
    points clear the lattice, counted once each.  n = 1 returns 1.
    """
    sig = sigma0.z if isinstance(sigma0, TorusPoint) else complex(sigma0)
    if n == 1:
        return 1
    if n not in (2, 3):
        raise ValueError("degree probe implemented for n in {1, 2, 3}")
    bs: list[complex] = []
    for p in _fiber_over_sigma(sig, ctx, n):
        if not any(abs(p.B - b) < 1e-6 * (1.0 + abs(b)) for b in bs):
            bs.append(p.B)
    return len(bs)


@dataclass
class Type2Solution:
    """A nontrivial zero sigma of Z_n with its curve point a."""

    sigma: TorusPoint
    a: XnPoint
    zn: complex
    hecke: complex
    green_defect: float   # |sum grad G(a_i)|

    def to_json_dict(self) -> dict:
        return {
            "sigma": {"r": self.sigma.r, "s": self.sigma.s},
            "a": [{"r": p.r, "s": p.s} for p in self.a.a],
            "B": [self.a.B.real, self.a.B.imag],
            "green_defect": self.green_defect,
        }


def find_type2(n: int, ctx: LatticeContext, grid: int = 64) -> list[Type2Solution]:
    """Nontrivial zeros of Z_n (sigma outside the 2-torsion) with the
    matching a on X_n; every returned a satisfies sum grad G(a_i) ~ 0.

    n = 1: the zeros are the extra critical points of G, and a = sigma.
    n = 2, 3: zeros of W_n(Z) located by scanning + Newton, then, of the
    n(n+1)/2 fiber points above sigma from one polynomial in B
    (:func:`_fiber_over_sigma`), the one whose z_n value equals Z(sigma).
    A zero within 1e-6 of a half-period is trivial: there Z = wp' = 0, and
    for n = 3 W_3(Z) has a double zero that Newton reaches only linearly.
    An empty list is a meaningful outcome (e.g. rectangular tori at n = 1).
    """
    if grid < 64:
        raise ValueError("grid must be >= 64")
    if n == 1:
        cs = critical_points(ctx, grid=max(48, grid // 2))
        out = []
        if cs.extra_pair is not None:
            for p in cs.extra_pair:
                x, y = weierstrass(p.z, ctx)
                a = XnPoint(n=1, a=[p], x=[x], y=[y], B=x, residual=0.0)
                zv = hecke_Z(p.r, p.s, ctx)
                out.append(Type2Solution(
                    sigma=p, a=a, zn=0.0, hecke=zv,
                    green_defect=abs(zv) / (2.0 * math.pi)))
        return out
    if n not in (2, 3):
        raise ValueError("find_type2 implemented for n in {1, 2, 3}")
    tau = ctx.tau
    zeros: list[tuple[float, float]] = []

    def residual(x):
        r, s = x
        z = r + s * tau
        if lattice_distance(z, ctx) < POLE_CLEARANCE:
            return None
        p, zeta, pp = _wp_zeta(z, ctx, prime=True)
        zv = zeta - r * ctx.eta1 - s * ctx.eta2
        return _wn(n, zv, p, pp, ctx), (zv, p, pp)

    def jacobian(x, f, data):
        # chain rule through Z_r = -wp - eta1, Z_s = -wp tau - eta2 and
        # d/ds = tau d/dr on wp, wp', with wp'' = 6 wp^2 - g2/2
        zv, p, pp = data
        _, wz, wp_, wpp = _wn(n, zv, p, pp, ctx, partials=True)
        dwp = wp_ * pp + wpp * (6.0 * p * p - ctx.g2 / 2.0)
        fr = wz * (-p - ctx.eta1) + dwp
        fs = wz * (-p * tau - ctx.eta2) + dwp * tau
        return np.array([[fr.real, fs.real], [fr.imag, fs.imag]])

    rr = (np.arange(grid) + 0.37) / grid
    ss = (np.arange(grid) + 0.59) / grid
    R, S = np.meshgrid(rr, ss, indexing="ij")
    P, Zg, Pp = _wp_zeta(R + S * tau, ctx, prime=True)
    wind = _winding_cells(_wn(n, Zg - R * ctx.eta1 - S * ctx.eta2, P, Pp, ctx))
    cells = list(zip(*np.where(np.abs(np.round(wind)) >= 1)))
    for i, j in cells:
        r0 = (rr[i] + rr[i + 1]) / 2
        s0 = (ss[j] + ss[j + 1]) / 2
        hit = _damped_newton(residual, jacobian, np.array([r0, s0]), 1e-11, 80, cap=0.3)
        if hit is None:
            continue
        r1, s1 = hit[0][0] % 1.0, hit[0][1] % 1.0
        # the 2-torsion are trivial zeros, deduplicated like the others
        if all(_rs_distance(r1, s1, *q) >= 1e-6 for q in (*E2_RS, *zeros)):
            zeros.append((r1, s1))
    out = []
    for (r1, s1) in zeros:
        sig_pt = TorusPoint.from_rs(r1, s1, ctx)
        zval = hecke_Z(r1, s1, ctx)
        fiber = _fiber_over_sigma(sig_pt.z, ctx, n)
        best_zn, best = min(((zn_value(cand, ctx), cand) for cand in fiber),
                            key=lambda t: abs(t[0] - zval), default=(math.inf, None))
        if abs(best_zn - zval) > 1e-6 * (1.0 + abs(zval)):
            continue
        best = best.canonical(ctx)   # one form per point, whatever Newton reached
        defect = abs(sum(hecke_Z(p.r, p.s, ctx) for p in best.a)) / (2.0 * math.pi)
        out.append(Type2Solution(sigma=sig_pt, a=best, zn=best_zn,
                                 hecke=zval, green_defect=defect))
    out.sort(key=lambda t: (round(t.sigma.r, 9), round(t.sigma.s, 9)))
    return out


def ln_sweep_csv(n: int, b_values, ctx: LatticeContext, path: str) -> None:
    """CSV of (Re B, Im B, Re l_n, Im l_n) for plotting sweeps."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re_B", "im_B", "re_ln", "im_ln"])
        for b in b_values:
            v = lame_ln(n, complex(b), ctx)
            w.writerow([complex(b).real, complex(b).imag, v.real, v.imag])
