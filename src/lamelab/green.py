"""Torus Green function, the Hecke function Z, and critical point counts.

The gradient of the Green function is carried entirely by
``Z(r, s) = zeta(r + s*tau) - r*eta1 - s*eta2``; critical points of G
are exactly the zeros of Z.  Besides the three half-periods the zeros
come in +/- pairs and the total is always 3 or 5.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    POLE_CLEARANCE,
    LatticeContext,
    TorusPoint,
    _cell,
    _damped_newton,
    _damped_newton_many,
    _wp_zeta,
    lattice_distance,
    lattice_distance_many,
    make_context,
    theta1,
    zeta_many,
    zeta_w,
)
from .errors import NoConvergence, PoleProximity

HALF_PERIOD_RS = ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


def green_value(z, ctx: LatticeContext) -> float:
    """G(z) = -(1/2pi) log|theta1(z)/theta1'(0)| + y^2/(2b), with C(tau) = 0.

    The additive constant is irrelevant to every gradient-level use, so
    it is pinned to zero.
    """
    zc = z.z if isinstance(z, TorusPoint) else complex(z)
    if lattice_distance(zc, ctx) < POLE_CLEARANCE:
        raise PoleProximity("Green function has its logarithmic pole here")
    z0, _, _ = _cell(zc, ctx)
    b = ctx.tau.imag
    val = -math.log(abs(theta1(z0, ctx) / ctx.theta1prime0)) / (2.0 * math.pi)
    return val + z0.imag**2 / (2.0 * b)


def hecke_Z(r: float, s: float, ctx: LatticeContext) -> complex:
    """Z(r, s) = zeta(r + s tau) - r eta1 - s eta2;  zero iff grad G = 0."""
    z = r + s * ctx.tau
    if lattice_distance(z, ctx) < POLE_CLEARANCE:
        raise PoleProximity("(r, s) is on the lattice")
    return zeta_w(z, ctx) - r * ctx.eta1 - s * ctx.eta2


def hecke_Z_qseries(r: float, s: float, ctx: LatticeContext) -> complex:
    """Z(r, s) from the Fourier side: 2 pi i (s - 1/2) plus geometric tails.

    Independent of the theta route, so agreement with :func:`hecke_Z` is a
    two-formula consistency check.  Arguments are reduced to [0, 1)^2 and
    folded through Z(-r, -s) = -Z(r, s) to keep both tails geometric.
    """
    r0 = r - math.floor(r)
    s0 = s - math.floor(s)
    if lattice_distance(r0 + s0 * ctx.tau, ctx) < POLE_CLEARANCE:
        raise PoleProximity("(r, s) is on the lattice")
    if s0 > 0.5:
        return -hecke_Z_qseries(1.0 - r0, 1.0 - s0, ctx)
    tau = ctx.tau
    terms = int(math.ceil(18.0 * math.log(10.0) / (2.0 * math.pi * tau.imag * max(0.5, 1.0 - s0)))) + 6
    z = r0 + s0 * tau
    u = cmath.exp(2j * math.pi * z)
    Q = cmath.exp(2j * math.pi * tau)
    total = 2j * math.pi * (s0 - 0.5) - 2j * math.pi * u / (1.0 - u)
    Qn = 1.0 + 0j
    for _ in range(terms):
        Qn *= Q
        total -= 2j * math.pi * (u * Qn / (1.0 - u * Qn) - Qn / u / (1.0 - Qn / u))
    return total


@dataclass
class CriticalSet:
    """Zeros of Z in [0,1)^2 up to the +/- identification."""

    points: list        # TorusPoint, canonical representatives
    count: int          # 3 or 5
    extra_pair: tuple | None   # (p, -p) beyond the half-periods, if any
    tau: complex

    def to_json(self, classification: str | None = None) -> str:
        payload = {
            "schema": 1,
            "tau": [self.tau.real, self.tau.imag],
            "count": self.count,
            "points": [{"r": p.r, "s": p.s} for p in self.points],
        }
        if classification is not None:
            payload["classification"] = classification
        return json.dumps(payload, indent=2)


def _hecke_jacobian(ctx: LatticeContext):
    """d(Re Z, Im Z)/d(r, s) from wp at the point, for :func:`_damped_newton`:
    Z_r = -wp - eta1 and Z_s = -wp tau - eta2."""
    tau = ctx.tau

    def jacobian(x, val, p):
        zr = -p - ctx.eta1
        zs = -p * tau - ctx.eta2
        return np.array([[zr.real, zs.real], [zr.imag, zs.imag]])

    return jacobian


def _newton_Z(r: float, s: float, ctx: LatticeContext) -> tuple[float, float] | None:
    """2D Newton for (Re Z, Im Z) = 0 in the (r, s) chart."""
    tau = ctx.tau

    def residual(x):
        r, s = x
        z = r + s * tau
        if lattice_distance(z, ctx) < POLE_CLEARANCE:
            return None
        p, zeta = _wp_zeta(z, ctx)
        return zeta - r * ctx.eta1 - s * ctx.eta2, p

    hit = _damped_newton(residual, _hecke_jacobian(ctx), (r, s), 1e-13, 60, final_tol=1e-11)
    return None if hit is None else tuple(hit[0])


def _hecke_many(points, ctx: LatticeContext) -> list:
    """The residual of :func:`_newton_Z` at many (r, s) points, from one
    kernel call: (Z, wp) per point, or None inside the pole clearance."""
    r, s = np.array(points, dtype=float).T
    z = r + s * ctx.tau
    clear = lattice_distance_many(z, ctx) >= POLE_CLEARANCE
    p, zeta = _wp_zeta(z[clear], ctx)
    Z = zeta - r[clear] * ctx.eta1 - s[clear] * ctx.eta2
    vals = iter(zip(Z.tolist(), p.tolist()))
    return [next(vals) if ok else None for ok in clear.tolist()]


def _winding_cells(vals: np.ndarray) -> np.ndarray:
    """Cells whose corner arguments wind once counterclockwise."""
    ang = np.angle(vals)
    def darg(a, b):
        d = b - a
        return (d + np.pi) % (2 * np.pi) - np.pi
    w = (darg(ang[:-1, :-1], ang[1:, :-1])
         + darg(ang[1:, :-1], ang[1:, 1:])
         + darg(ang[1:, 1:], ang[:-1, 1:])
         + darg(ang[:-1, 1:], ang[:-1, :-1]))
    return w / (2 * np.pi)


def critical_points(ctx: LatticeContext, grid: int = 48) -> CriticalSet:
    """All zeros of Z in [0,1)^2 by winding-flagged cells plus 2D Newton.

    The Newton runs from all seeds go in lockstep, one array kernel call
    per round.  Deduplicates in seed order modulo the lattice and the +/-
    symmetry, always seeds the three half-periods, and checks the 3-or-5
    dichotomy.
    """
    if grid < 32:
        raise ValueError("grid must be >= 32")
    tau = ctx.tau
    rr = (np.arange(grid + 1) + 0.31) / grid        # offset avoids the corner pole
    ss = (np.arange(grid + 1) + 0.43) / grid
    R, S = np.meshgrid(rr, ss, indexing="ij")
    Zg = zeta_many(R + S * tau, ctx) - R * ctx.eta1 - S * ctx.eta2
    # Z is analytic in z and zbar (the lattice-coordinate part is only
    # R-linear), so its zeros can wind either way: flag both orientations.
    wind = _winding_cells(Zg)
    seeds = [((rr[i] + rr[i + 1]) / 2, (ss[j] + ss[j + 1]) / 2)
             for i, j in zip(*np.where(np.abs(wind) > 0.5))]
    seeds += list(HALF_PERIOD_RS)
    # extra pairs split out from a degenerate half-period, so probe a fan
    # of shrinking offsets around each one to resolve nearby zeros
    for hr, hs in HALF_PERIOD_RS:
        for rad in (3e-2, 3e-3, 3e-4, 3e-5, 3e-6):
            for k in range(4):
                ang = 2 * math.pi * (k + 0.5) / 4
                seeds.append((hr + rad * math.cos(ang), hs + rad * math.sin(ang)))
    hits = _damped_newton_many(lambda pts: _hecke_many(pts, ctx), _hecke_jacobian(ctx),
                               seeds, 1e-13, 60, final_tol=1e-11)
    found: list[tuple[float, float]] = []
    for hit in hits:
        if hit is None:
            continue
        res = hit[0]
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
    # partition into half-periods and +/- pairs; the binning tolerance
    # matches the dedup scale so a nearby split-off pair stays visible
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


def _omega_label(cs: "CriticalSet", boundary_tol: float) -> str:
    if cs.count == 3:
        return "Omega3"
    p = cs.extra_pair[0]
    for hr, hs in HALF_PERIOD_RS:
        dr = min(abs(p.r - hr), 1 - abs(p.r - hr))
        ds = min(abs(p.s - hs), 1 - abs(p.s - hs))
        if math.hypot(dr, ds) < boundary_tol:
            return "NearBoundary"
    return "Omega5"


def classify_omega(ctx: LatticeContext) -> str:
    """'Omega3' / 'Omega5' from the zero count; 'NearBoundary' when the
    extra pair sits within 1e-6 of a half-period in (r, s) (the
    degenerate splitting regime)."""
    return _omega_label(critical_points(ctx), 1e-6)


def gamma0_2_winding(r: float, s: float) -> float:
    """Winding number of tau -> Z_{r,s}(tau) along the boundary of the
    standard Gamma_0(2) fundamental domain, cut at height 4 and 0.05 from the cusps.

    Counts the zeros of Z_{r,s} inside the domain; the result should be an
    integer to high accuracy whenever the boundary stays clear of zeros.
    """
    height, cusp_gap = 4.0, 0.05
    theta0 = 2.0 * math.asin(cusp_gap)
    pts = ([complex(0.0, t) for t in np.linspace(height, cusp_gap, 350)]
           + [0.5 + 0.5 * cmath.exp(1j * th) for th in np.linspace(math.pi - theta0, theta0, 700)]
           + [complex(1.0, t) for t in np.linspace(cusp_gap, height, 350)]
           + [complex(x, height) for x in np.linspace(1.0, 0.0, 350)])
    total = 0.0
    prev = None
    for tau in pts:
        ctx = make_context(tau)
        val = hecke_Z(r, s, ctx)
        if prev is not None:
            d = cmath.phase(val / prev)
            total += d
        prev = val
    return total / (2.0 * math.pi)
