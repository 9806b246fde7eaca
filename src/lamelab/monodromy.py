"""Numerical monodromy of generalized Lame equations on the torus.

The frame of w'' = I(z) w is carried along polylines by Taylor steps,
each a fixed fraction of the distance to the nearest singular translate.
Straight period segments detour counterclockwise around any singular
translate inside the corridor, passing it on the left, which fixes the
homotopy classes of the period loops; since sum A_i = 0 their transports
are the monodromy matrices S_1, S_2.  Local certificates come from the
Frobenius expansion at each source p_i: the exponents are -l_i/2 and
l_i/2 + 1, the log coefficient is -F_i / (l_i + 1), and the frame is at
p_i + radius.  The chord circle that this replaced is the tests' oracle.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from dataclasses import dataclass

from .elliptic import (
    POLE_CLEARANCE,
    LatticeContext,
    TorusPoint,
    _wp_zeta,
    lattice_distance,
    lattice_distance_many,
    rs_coordinates,
    weierstrass,
    wp_many,
    wp_regular_coefficients,
    wp_zeta_many,
    zeta_w,
)
from .errors import (
    CriticalPointOfF,
    HalfPeriodInput,
    Inconsistent,
    NotDiagonalizable,
    PathTooClose,
    PoleProximity,
)
from .polysys import LameParams, SourceDivisor

CLEARANCE_RADIUS = 1e-2

#: Taylor order and step fraction: a step covers at most _STEP of the distance
#: to the nearest singular translate, so truncation errs by ~_STEP**_ORDER
_ORDER = 36
_STEP = 0.3
#: default clearance of a transported polyline from the source translates
_PATH_CLEARANCE = 0.55 * CLEARANCE_RADIUS
#: classify_projective's commutator tolerance, and unitarizable's on |eigenvalue ratio| - 1
_CLASS_TOL = 1e-6


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use; nothing in
    the package integrates with it, it is the tests' DOP853 reference."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


@dataclass
class MonodromyPair:
    """Monodromy matrices along the two period loops from base z0."""

    S1: np.ndarray
    S2: np.ndarray
    base: complex
    residual: float   # worst |det S_i - 1| over the two transports

    def commutator(self) -> np.ndarray:
        return np.linalg.inv(self.S2) @ np.linalg.inv(self.S1) @ self.S2 @ self.S1

    def commutator_defect(self, ell: int) -> float:
        target = (-1.0) ** ell * np.eye(2)
        return float(np.max(np.abs(self.commutator() - target)))

    def anticommutator_defect(self) -> float:
        num = np.max(np.abs(self.S1 @ self.S2 + self.S2 @ self.S1))
        den = np.max(np.abs(self.S1 @ self.S2))
        return float(num / den)

    def to_json(self, extra: dict | None = None) -> str:
        payload = {
            "schema": 1,
            "base": [self.base.real, self.base.imag],
            "S1": [[v.real, v.imag] for v in self.S1.reshape(-1)],
            "S2": [[v.real, v.imag] for v in self.S2.reshape(-1)],
            "residual": self.residual,
        }
        payload.update(extra or {})
        return json.dumps(payload, indent=2)


def potential(z: complex, L: SourceDivisor, params: LameParams,
              ctx: LatticeContext, clearance: float = POLE_CLEARANCE) -> complex:
    """I(z) = sum eta_i(eta_i+1) wp(z - p_i) + sum A_i zeta(z - p_i) + B,
    with eta_i = l_i / 2."""
    if len(params.A) != L.N:
        raise ValueError(f"expected {L.N} accessory parameters, got {len(params.A)}")
    d = z - np.array([p.z for p in L.points])
    near = lattice_distance_many(d, ctx) < clearance
    if near.any():
        raise PoleProximity(f"z within clearance of source at {L.points[near.argmax()].z}")
    eta = np.array(L.weights) / 2.0
    pv, zv = wp_zeta_many(d, ctx)
    return complex(params.B) + complex(eta * (eta + 1.0) @ pv + np.array(params.A) @ zv)


def _singular_translates(L: SourceDivisor, ctx: LatticeContext,
                         lo: complex, hi: complex, pad: float):
    """Source translates p + m + n tau inside a bounding box plus padding,
    in (p, m, n) order."""
    k = np.arange(-3, 4)
    q = (np.array([p.z for p in L.points])[:, None, None] + k[:, None] + k * ctx.tau).ravel()
    inside = ((min(lo.real, hi.real) - pad <= q.real) & (q.real <= max(lo.real, hi.real) + pad)
              & (min(lo.imag, hi.imag) - pad <= q.imag) & (q.imag <= max(lo.imag, hi.imag) + pad))
    return q[inside].tolist()


def path_with_detours(z0: complex, omega: complex, L: SourceDivisor,
                      ctx: LatticeContext, radius: float | None = None) -> list[complex]:
    """Straight segment z0 -> z0 + omega with counterclockwise semicircular
    detours (radius = clearance, shrunk if sources are closer) around every
    singular translate lying within the corridor; the singularity stays on
    the left of the oriented path."""
    if radius is None:
        radius = CLEARANCE_RADIUS
        n = L.N
        for i in range(n):
            for j in range(i + 1, n):
                d = lattice_distance(L.points[i].z - L.points[j].z, ctx)
                radius = min(radius, 0.4 * d)
    u = omega / abs(omega)
    length = abs(omega)
    events = []
    for q in _singular_translates(L, ctx, z0, z0 + omega, 2 * radius):
        t = ((q - z0) / u).real
        dist = abs(z0 + t * u - q)
        if -radius < t < length + radius and dist < radius:
            events.append((t, q))
    events.sort(key=lambda e: e[0])
    path = [z0]
    for t, q in events:
        foot = z0 + t * u
        e_in = foot - radius * u
        e_out = foot + radius * u
        path.append(e_in)
        # arg sweeps -pi -> 0 in the frame of u: counterclockwise half-turn
        for th in np.linspace(-math.pi, 0.0, 14)[1:-1]:
            path.append(foot + radius * cmath.exp(1j * th) * u)
        path.append(e_out)
    path.append(z0 + omega)
    return path


def _walk(pts: np.ndarray, L: SourceDivisor, ctx: LatticeContext,
          clearance: float) -> tuple[np.ndarray, np.ndarray]:
    """Taylor centres z_j and steps h_j along the polyline ``pts``: a step
    covers ``_STEP`` of the distance rho to the nearest source translate,
    or the rest of its segment.  PoleProximity if a centre is within
    ``clearance`` of a source or a step cannot move it.

    rho at the vertices comes from one array call; only centres inside a
    segment take the scalar one.
    """
    src = [p.z for p in L.points]
    vertex_rho = lattice_distance_many(np.subtract.outer(pts[:-1], src), ctx).min(axis=1)
    nodes = [complex(pts[0])]
    for zb, rho in zip(pts[1:].tolist(), vertex_rho.tolist()):
        while nodes[-1] != zb:
            z = nodes[-1]
            if rho is None:
                rho = min(lattice_distance(z - p, ctx) for p in src)
            step = _STEP * rho / abs(zb - z)
            nodes.append(zb if step >= 1.0 else z + step * (zb - z))
            if not rho >= clearance or nodes[-1] == z:
                raise PoleProximity(f"z={z} within clearance of a source translate")
            rho = None
    z = np.array(nodes)
    return z[:-1], np.diff(z)


def _potential_rows(z: np.ndarray, h: np.ndarray, L: SourceDivisor,
                    params: LameParams, ctx: LatticeContext, order: int = _ORDER) -> np.ndarray:
    """``rows[j, k] = I_k(z_j) h_j**k``, k <= order: the Taylor rows of I.

    One kernel call gives wp, zeta and wp' at every (centre, source)
    difference; ``p'' = 6 p^2 - g2/2`` gives every wp row at once and
    the zeta rows are ``-P_{k-1} / k``.
    """
    if len(params.A) != L.N:
        raise ValueError(f"expected {L.N} accessory parameters, got {len(params.A)}")
    p0, z0, p1 = _wp_zeta(z[:, None] - np.array([p.z for p in L.points]), ctx, prime=True)
    h = h[:, None]
    P = np.zeros(p0.shape + (order + 1,), dtype=complex)
    P[..., 0], P[..., 1] = p0, p1 * h
    for k in range(order - 1):
        conv = 6.0 * np.einsum("mij,mij->mi", P[..., : k + 1], P[..., k::-1])
        P[..., k + 2] = h * h * (conv - ctx.g2 / 2.0 if k == 0 else conv) / ((k + 1) * (k + 2))
    Z = np.insert(-P[..., :-1] * h[..., None] / np.arange(1, order + 1), 0, z0, axis=-1)
    eta = np.array(L.weights) / 2.0
    rows = eta * (eta + 1.0) @ P + np.array(params.A, dtype=complex) @ Z
    rows[:, 0] += params.B
    return rows


def _step_matrices(z: np.ndarray, h: np.ndarray, L: SourceDivisor,
                   params: LameParams, ctx: LatticeContext) -> np.ndarray:
    """The 2x2 matrices carrying (w, w') over the steps z_j -> z_j + h_j.

    In t = (z - z_j) / h_j the equation is w_tt = h^2 I w, so the Taylor
    coefficients of the two solutions with (w, w') = (1, 0) and (0, 1)
    follow from ``(k+2)(k+1) c_{k+2} = sum_j h^2 I_j h^j c_{k-j}``.
    """
    I = _potential_rows(z, h, L, params, ctx) * (h * h)[:, None]
    c = np.zeros((len(z), _ORDER + 1, 2), dtype=complex)
    c[:, 0, 0], c[:, 1, 1] = 1.0, h
    for k in range(_ORDER - 1):
        c[:, k + 2] = np.einsum("mj,mjs->ms", I[:, : k + 1], c[:, k::-1]) / ((k + 1) * (k + 2))
    return np.stack([c.sum(axis=1), np.arange(_ORDER + 1.0) @ c / h[:, None]], axis=1)


def _carry(polylines, L: SourceDivisor, params: LameParams,
           ctx: LatticeContext, clearance: float) -> list[np.ndarray]:
    """Product of the step matrices along each polyline, from one Taylor
    pass over the centres of all of them."""
    walks = [_walk(pts, L, ctx, clearance) for pts in polylines]
    T = _step_matrices(*(np.concatenate(a) for a in zip(*walks)), L, params, ctx)
    out, start = [], 0
    for z, _ in walks:
        Y = np.eye(2, dtype=complex)
        for Tj in T[start:start + len(z)]:
            Y = Tj @ Y
        out.append(Y)
        start += len(z)
    return out


def _cleared(path, L: SourceDivisor, ctx: LatticeContext, clearance: float) -> np.ndarray:
    """The polyline as an array; PathTooClose if one of 9 points per
    segment is within ``clearance`` of a source translate."""
    pts = np.array([complex(p) for p in path])
    zs = (pts[:-1, None] + np.linspace(0.0, 1.0, 9) * np.diff(pts)[:, None]).ravel()
    dist = lattice_distance_many(np.subtract.outer(zs, [p.z for p in L.points]), ctx).min(axis=1)
    if (dist < clearance).any():
        k = int(np.argmax(dist < clearance))
        raise PathTooClose(f"path point {zs[k]} is {dist[k]:.2e} from a singular translate")
    return pts


def transport(path, L: SourceDivisor, params: LameParams, ctx: LatticeContext,
              clearance: float | None = None) -> np.ndarray:
    """Fundamental 2x2 matrix carrying (w, w') along the polyline.

    PathTooClose if one of 9 points per segment is within ``clearance``
    of a source translate.  The frame's Wronskian is conserved (the
    system is traceless); :func:`monodromy_pair` reports its drift.
    """
    if clearance is None:
        clearance = _PATH_CLEARANCE
    return _carry([_cleared(path, L, ctx, clearance)], L, params, ctx, 0.5 * clearance)[0]


def wronskian_drift(M: np.ndarray) -> float:
    return float(abs(np.linalg.det(M) - 1.0))


def choose_base_point(L: SourceDivisor, ctx: LatticeContext) -> complex:
    """A base point keeping both period corridors clear of the sources.

    The first grid point, in r-major order, that maximizes the distance
    of the base and of both period segments from the source translates
    within 0.3 of the segment's bounding box.
    """
    tau = ctx.tau
    grid = np.linspace(0.04, 0.96, 23)
    z0 = (grid[:, None] + grid[None, :] * tau).ravel()
    src = np.array([p.z for p in L.points])
    m, n = (a.ravel() for a in np.meshgrid(np.arange(-3, 4), np.arange(-3, 4)))
    q_all = (src[:, None] + m + n * tau).ravel()
    d = lattice_distance_many(np.subtract.outer(z0, src), ctx).min(axis=1)
    for omega in (1.0, tau):
        u = omega / abs(omega)
        z1 = z0 + omega
        lo_re = np.minimum(z0.real, z1.real) - 0.3
        hi_re = np.maximum(z0.real, z1.real) + 0.3
        lo_im = np.minimum(z0.imag, z1.imag) - 0.3
        hi_im = np.maximum(z0.imag, z1.imag) + 0.3
        # a translate outside the bounding box of all the boxes is in none
        # of them: drop it before the (grid x translates) arrays are built
        q = q_all[(lo_re.min() <= q_all.real) & (q_all.real <= hi_re.max())
                  & (lo_im.min() <= q_all.imag) & (q_all.imag <= hi_im.max())]
        inside = ((lo_re[:, None] <= q.real) & (q.real <= hi_re[:, None])
                  & (lo_im[:, None] <= q.imag) & (q.imag <= hi_im[:, None]))
        t = np.clip(((q - z0[:, None]) / u).real, 0.0, abs(omega))
        w = z0[:, None] + t * u - q
        d = np.minimum(d, np.where(inside, np.hypot(w.real, w.imag), math.inf).min(axis=1))
    return z0[int(np.argmax(d))]


def monodromy_pair(L: SourceDivisor, params: LameParams, ctx: LatticeContext,
                   z0: complex | None = None) -> MonodromyPair:
    """S_1 along z0 -> z0 + 1 and S_2 along z0 -> z0 + tau.

    Requires sum A_i ~ 0 so the potential is genuinely elliptic and the
    endpoint frames identify with the starting ones.
    """
    if not params.admissible(1e-6):
        raise ValueError("sum A_i must vanish for an elliptic potential")
    if z0 is None:
        z0 = choose_base_point(L, ctx)
    # both loops share one Taylor pass; each is checked, then walked, in turn
    loops = (_cleared(path_with_detours(z0, omega, L, ctx), L, ctx, _PATH_CLEARANCE)
             for omega in (1.0 + 0j, ctx.tau))
    S = _carry(loops, L, params, ctx, 0.5 * _PATH_CLEARANCE)
    return MonodromyPair(S1=S[0], S2=S[1], base=z0,
                         residual=max(wronskian_drift(M) for M in S))


def _frobenius(p_i, L: SourceDivisor, params: LameParams, ctx: LatticeContext,
               radius: float | None = None):
    """(l, w1, w1', Omega) on the circle of ``radius`` around p_i, l = 0 off
    the sources.  In t = z - q, q the source translate at p_i, w1 =
    t^(l/2+1) (1 + O(t)) is summed with w1' at z1 = p_i + radius; Omega is
    the resonance of the exponent -l/2 at order l + 1.  The series run in
    x = t / (z1 - q) to the order K with (radius / rho)^K <= 1e-17, rho the
    distance to the nearest other singular translate."""
    zc = p_i.z if isinstance(p_i, TorusPoint) else complex(p_i)
    dist = lattice_distance_many(zc - np.array([p.z for p in L.points]), ctx).tolist()
    others = [d for d in dist if d > 1e-9]
    if radius is None:
        radius = min([CLEARANCE_RADIUS] + [0.4 * d for d in others])
    clearance = 0.5 * radius
    # exact: the circle is radius from its centre and d - radius from a source
    # at lattice distance d (negative when the circle encloses it)
    gap = min([radius] + [d - radius for d in others])
    if gap <= clearance:
        raise PathTooClose(f"circle of radius {radius:.2e} is {gap:.2e} from a singular translate")
    if len(others) == L.N:
        return 0, 0.0, 0.0, 0.0
    # q's own nearest translate: twice a half period's distance from the lattice
    halves = np.array([1.0, ctx.tau, 1.0 + ctx.tau]) / 2.0
    rho = min(others + [2.0 * lattice_distance_many(halves, ctx).min()])
    if not rho > 1.25 * radius:   # as the chord circle: within radius / 4, or enclosed
        raise PoleProximity(f"circle of radius {radius:.2e} nears a translate {rho:.2e} away")
    i = dist.index(min(dist))
    l, eta, a = L.weights[i], L.weights[i] / 2.0, complex(params.A[i])
    K = max(l, math.ceil(17.0 / math.log10(rho / radius)))
    r, s = (round(x) for x in rs_coordinates(zc - L.points[i].z, ctx))
    q = L.points[i].z + r + s * ctx.tau
    h = zc + radius - q
    rest = SourceDivisor(L.points[:i] + L.points[i + 1:], L.weights[:i] + L.weights[i + 1:])
    rows = _potential_rows(np.array([q]), np.array([h]), rest, LameParams(
        list(params.A[:i]) + list(params.A[i + 1:]), params.B), ctx, K)[0]
    # the source's own wp and zeta, poles removed; zeta's translate adds r eta1 + s eta2
    preg = wp_regular_coefficients(ctx, K) * h ** np.arange(K + 1)
    rows += eta * (eta + 1.0) * preg
    rows[1:] -= a * h * preg[:-1] / np.arange(1, K + 1)
    rows[0] += a * (r * ctx.eta1 + s * ctx.eta2)
    # w_xx = (eta (eta + 1) / x^2 + a h / x + sum_k c_k x^k) w, so the exponent e
    # has n (n + 2e - 1) a_n = a h a_{n-1} + sum_k c_k a_{n-2-k}
    c, ah = (h * h * rows).tolist(), a * h

    def series(e: float, n_max: int) -> list:
        coef = [1.0 + 0j]   # a_0 .. a_{n_max}; at the resonance, the right side
        for n in range(1, n_max + 1):
            coef.append((ah * coef[-1] + sum(c[k] * coef[n - 2 - k] for k in range(n - 1)))
                        / (n * (n + 2.0 * e - 1.0) or 1.0))
        return coef

    coef = series(eta + 1.0, K)
    dw1 = h ** eta * sum((n + eta + 1.0) * x for n, x in enumerate(coef))
    return l, h ** (eta + 1.0) * sum(coef), dw1, series(-eta, l + 1)[-1] / h ** (l + 1)


def local_monodromy(p_i, L: SourceDivisor, params: LameParams,
                    ctx: LatticeContext, radius: float | None = None) -> np.ndarray:
    """Monodromy of (w, w') at z1 = p_i + radius around the counterclockwise
    circle p_i + radius e^{i theta}: the Frobenius solutions have Wronskian
    -(l + 1) and log coefficient kappa = Omega / (l + 1), so M = (-1)^l (I -
    2 pi i kappa / (l + 1) [[-w1 w1', w1^2], [-w1'^2, w1 w1']]); I off the sources."""
    l, w1, dw1, omega = _frobenius(p_i, L, params, ctx, radius)
    k = 2j * math.pi * omega / (l + 1) ** 2
    return (-1.0) ** l * np.array([[1.0 + k * w1 * dw1, -k * w1 * w1],
                                   [k * dw1 * dw1, 1.0 - k * w1 * dw1]])


def classify_projective(mp: MonodromyPair) -> str:
    """{K4 | AbelianDiagonal | AbelianUnipotent | Other} from the pair.

    K4 requires anticommuting S_i with vanishing normalized traces (the
    odd-weight case); commuting pairs split on diagonalizability.
    """
    C = mp.commutator()
    scale = np.max(np.abs(C))
    if np.max(np.abs(C - np.eye(2))) < _CLASS_TOL * (1.0 + scale):
        commuting = True
    elif np.max(np.abs(C + np.eye(2))) < _CLASS_TOL * (1.0 + scale):
        commuting = False
    else:
        raise Inconsistent("commutator is neither +I nor -I within tolerance")
    if not commuting:
        n1 = np.linalg.norm(mp.S1)
        n2 = np.linalg.norm(mp.S2)
        if abs(np.trace(mp.S1)) < 1e-5 * n1 and abs(np.trace(mp.S2)) < 1e-5 * n2:
            return "K4"
        return "Other"
    def has_distinct_eigs(M):
        lam = np.linalg.eigvals(M)
        return abs(lam[0] - lam[1]) > 1e-7 * np.linalg.norm(M)
    if has_distinct_eigs(mp.S1) or has_distinct_eigs(mp.S2):
        return "AbelianDiagonal"
    def off_scalar(M):
        lam = np.trace(M) / 2.0
        return np.max(np.abs(M - lam * np.eye(2))) / np.linalg.norm(M)
    if off_scalar(mp.S1) < 1e-8 and off_scalar(mp.S2) < 1e-8:
        return "AbelianDiagonal"   # both scalar: trivially diagonal
    return "AbelianUnipotent"


def unitarizable(mp: MonodromyPair) -> bool:
    """True iff both eigenvalue ratios have unit modulus in a simultaneous
    eigenframe; only meaningful for the AbelianDiagonal class."""
    label = classify_projective(mp)
    if label != "AbelianDiagonal":
        raise NotDiagonalizable(f"classification is {label}")
    lam1 = np.linalg.eigvals(mp.S1)
    if abs(lam1[0] - lam1[1]) > 1e-7 * np.linalg.norm(mp.S1):
        _, V = np.linalg.eig(mp.S1)
    else:
        _, V = np.linalg.eig(mp.S2)
    Vi = np.linalg.inv(V)
    for M in (mp.S1, mp.S2):
        D = Vi @ M @ V
        ratio = D[0, 0] / D[1, 1]
        if abs(abs(ratio) - 1.0) > _CLASS_TOL:
            return False
    return True


def period_integral(a: complex, i: int, ctx: LatticeContext) -> complex:
    """Closed-form loop integrals F_1(a) = 2(zeta(a) - eta1 a) and
    F_2(a) = 2(tau zeta(a) - eta2 a); both lie in i R exactly when a is a
    critical point of the Green function."""
    a = complex(a)
    if i not in (1, 2):
        raise ValueError("period index must be 1 or 2")
    for hr in (0.0, 0.5):
        for hs in (0.0, 0.5):
            if lattice_distance(a - (hr + hs * ctx.tau), ctx) < POLE_CLEARANCE:
                raise HalfPeriodInput("period integral degenerates on half-lattice points")
    if i == 1:
        return 2.0 * (zeta_w(a, ctx) - ctx.eta1 * a)
    return 2.0 * (ctx.tau * zeta_w(a, ctx) - ctx.eta2 * a)


def period_integral_quadrature(a: complex, i: int, ctx: LatticeContext,
                               z0: complex, nodes: int = 3000) -> complex:
    """Trapezoid value of int wp'(a) / (wp(x) - wp(a)) dx along the period
    segment from z0; the integrand is elliptic, so the rule converges
    geometrically.  The value depends on the segment through the homotopy
    class relative to the integrand poles at x = +-a."""
    a = complex(a)
    omega = 1.0 + 0j if i == 1 else ctx.tau
    pa, ppa = weierstrass(a, ctx)
    x = z0 + np.linspace(0.0, 1.0, nodes + 1) * omega
    near = lattice_distance_many(x, ctx) < POLE_CLEARANCE
    if near.any():
        raise PoleProximity(f"quadrature node {x[near.argmax()]} is within clearance of the lattice")
    vals = ppa / (wp_many(x, ctx)[0] - pa)
    return complex(omega * (np.sum(vals[1:-1]) + 0.5 * (vals[0] + vals[-1])) / nodes)


def _clear_period_bases(a: complex, i: int, ctx: LatticeContext, count: int):
    """Base points whose straight period segment clears x = +-a and the
    lattice, best first."""
    omega = 1.0 + 0j if i == 1 else ctx.tau
    g = np.linspace(0.05, 0.95, 13)
    z0 = (g[:, None] + g * ctx.tau).reshape(-1)
    seg = z0[:, None] + np.linspace(0, 1, 33) * omega
    d = np.minimum.reduce([lattice_distance_many(seg - shift, ctx).min(axis=1)
                           for shift in (a, -a, 0.0)])
    best = np.argsort(-d, kind="stable")[:count]
    return [z0[k] for k in best if d[k] > 0.04]


def period_crosscheck(a: complex, i: int, ctx: LatticeContext) -> dict:
    """Closed form against quadrature from up to 6 base points.

    Every segment must agree with the closed form up to an integer
    multiple of 2 pi i (branch crossings of the log); segments in the
    canonical class agree modulo 4 pi i, and ``defect_mod_4pi`` is the
    smallest such deviation observed.
    """
    closed = period_integral(a, i, ctx)
    two_pi = 2.0 * math.pi
    worst_2pi, best_4pi = 0.0, math.inf
    for z0 in _clear_period_bases(a, i, ctx, 6):
        quad = period_integral_quadrature(a, i, ctx, z0)
        m = (closed - quad) / (2j * math.pi)
        worst_2pi = max(worst_2pi, abs(m - round(m.real)))
        k = round(m.real / 2.0) * 2.0
        best_4pi = min(best_4pi, abs(closed - quad - k * 2j * math.pi))
    return {"closed": closed, "defect_mod_2pi": worst_2pi * two_pi,
            "defect_mod_4pi": best_4pi}


def u_density(f: complex, fprime: complex) -> float:
    """Liouville density u = log 8 + log(|f'|^2 / (1 + |f|^2)^2) carried by
    a developing map value and derivative; Delta u + e^u = 0 where f is
    holomorphic with f' != 0."""
    if fprime == 0:
        raise CriticalPointOfF("f' = 0: density diverges")
    return math.log(8.0) + math.log(abs(fprime) ** 2 / (1.0 + abs(f) ** 2) ** 2)
