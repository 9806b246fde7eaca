"""Weierstrass/theta kernel on the normalized torus C/(Z + Z*tau).

Everything downstream evaluates through the odd theta function
``theta1(z; tau)``: the quasi-periods, zeta, sigma and wp come from
logarithmic derivatives of its q-series, which converges geometrically
for |q| < 1.  Points are reduced to lattice coordinates r, s in [0, 1)
before series evaluation and the quasi-period corrections are reapplied
exactly afterwards.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, PoleProximity

TWO_PI_I = 2j * math.pi

#: refuse evaluation closer to a lattice point than this (lattice units)
POLE_CLEARANCE = 1e-3


@dataclass(frozen=True)
class LatticeContext:
    """Immutable per-torus cache: tau, q, invariants, quasi-periods.

    ``series_terms`` is the number of theta terms kept; the default makes
    |q|**series_terms**2 < 1e-18 so truncation sits far below ``tol`` (1e-9).
    """

    tau: complex
    q: complex
    g2: complex
    g3: complex
    eta1: complex
    eta2: complex
    series_terms: int
    tol: float
    # cached theta data: frequencies (2n+1)*pi and coefficients 2(-1)^n q^{(n+1/2)^2},
    # n < series_terms, without the tail of coefficients that underflow to 0
    _freq: np.ndarray = field(repr=False, compare=False, default=None)
    _coef: np.ndarray = field(repr=False, compare=False, default=None)
    theta1prime0: complex = field(repr=False, compare=False, default=0j)

    @property
    def omega1(self) -> complex:
        return 1.0 + 0j

    @property
    def omega2(self) -> complex:
        return self.tau

    @property
    def omega3(self) -> complex:
        return 1.0 + self.tau


def default_series_terms(tau: complex) -> int:
    # |q|^(N^2 - 2.5 N) < 1e-18: margin for arguments up to s ~ 1.2 used
    # in the eta2 translation defect
    b = tau.imag
    c = 18.0 * math.log(10.0) / (math.pi * b)
    return max(8, int(math.ceil(0.5 * (2.5 + math.sqrt(6.25 + 4.0 * c)))) + 3)


def make_context(tau: complex, series_terms: int | None = None) -> LatticeContext:
    """Build a LatticeContext for the torus with periods (1, tau), Im tau > 0."""
    tol = 1e-9
    tau = complex(tau)
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(f"tau must be finite with Im(tau) > 0, got {tau}")
    if series_terms is None:
        series_terms = default_series_terms(tau)
    elif series_terms < 1:
        raise ValueError(f"series_terms must be >= 1, got {series_terms}")
    q = cmath.exp(1j * math.pi * tau)
    if q == 0:
        raise ValueError(f"q = exp(i pi tau) underflows for Im(tau) = {tau.imag:g}")
    if abs(q) ** (series_terms**2) >= tol:
        raise ValueError("series_terms too small for this tau at the requested tol")
    n = np.arange(series_terms)
    coef = 2.0 * (-1.0) ** n * q ** ((n + 0.5) ** 2)
    # drop the tail that underflows to 0: inf * 0 from its sin at z0 + tau made eta2 NaN
    coef = coef[: np.count_nonzero(coef)]
    freq = (2 * n[: len(coef)] + 1) * math.pi
    t0, t1, t2, t3 = _theta_block_arrays(0.0 + 0j, freq, coef)
    eta1 = -t3 / (3.0 * t1)
    # eta2 as the translation defect zeta(z0 + tau) - zeta(z0) at a generic
    # well-conditioned point (not via Legendre), so the Legendre residual
    # stays a genuine consistency diagnostic of the series
    z0 = 0.43 + 0.17 * tau
    a0, a1, _, _ = _theta_block_arrays(z0, freq, coef)
    with np.errstate(over="ignore", invalid="ignore"):   # a NaN fails Legendre
        b0, b1, _, _ = _theta_block_arrays(z0 + tau, freq, coef)
    eta2 = eta1 * tau + b1 / b0 - a1 / a0
    g2, g3 = eisenstein(tau)
    ctx = LatticeContext(
        tau=tau, q=q, g2=g2, g3=g3, eta1=eta1, eta2=eta2,
        series_terms=series_terms, tol=tol,
        _freq=freq, _coef=coef, theta1prime0=t1,
    )
    legendre = abs(eta1 * tau - eta2 - TWO_PI_I)
    if not legendre < tol:
        raise ValueError(f"Legendre residual {legendre:.3e} is not below tol; increase "
                         "series_terms, or the theta series overflows at this Im(tau)")
    return ctx


def _theta_block_arrays(z, freq, coef):
    """theta1 and its first three z-derivatives (z may be a numpy array).

    An array z takes E_k = e^{i freq_k z} = w (w^2)^k, freq_k = (2k + 1) pi,
    w = e^{i pi z}, from one exp and a running product, then sin, cos =
    (E -/+ 1/E)/(2i, 2) in place, 4x faster than np.sin/np.cos; a 0-d z
    keeps those, where numpy's call overhead makes the recurrence twice as
    slow (25 us against 12 us).
    """
    zz = np.asarray(z, dtype=complex)
    if zz.ndim == 0:
        ph = np.multiply.outer(zz, freq)
        s, c = np.sin(ph), np.cos(ph)
        return (complex(s @ coef), complex(c @ (coef * freq)),
                complex(-(s @ (coef * freq**2))), complex(-(c @ (coef * freq**3))))
    e = np.empty(zz.shape + freq.shape, dtype=complex)
    w = np.exp((1j * math.pi) * zz)
    e[..., 0], e[..., 1:] = w, (w * w)[..., None]
    np.cumprod(e, axis=-1, out=e)
    inv = 1.0 / e
    c = e + inv     # 2 cos
    e -= inv        # 2i sin
    return ((e @ coef) * -0.5j, (c @ (coef * freq)) * 0.5,
            (e @ (coef * freq**2)) * 0.5j, (c @ (coef * freq**3)) * -0.5)


def theta1(z: complex, ctx: LatticeContext, order: int = 0):
    """Truncated series value of theta1(z; tau) or its z-derivative.

    ``order`` in 0..3 selects the derivative.  Entire in z, so no
    argument restrictions; for large |Im z| prefer reducing through the
    torus functions below, which handle quasi-periodicity exactly.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0, 1, 2 or 3, not {order!r}")
    return _theta_block_arrays(z, ctx._freq, ctx._coef)[order]


@dataclass(frozen=True)
class TorusPoint:
    """A point z = r + s*tau carried in both coordinate systems."""

    r: float
    s: float
    z: complex

    @staticmethod
    def from_rs(r: float, s: float, ctx: LatticeContext) -> "TorusPoint":
        return TorusPoint(float(r), float(s), complex(r) + complex(s) * ctx.tau)

    @staticmethod
    def from_z(z: complex, ctx: LatticeContext) -> "TorusPoint":
        r, s = rs_coordinates(z, ctx)
        return TorusPoint(r, s, complex(z))

    def canonical(self, ctx: LatticeContext) -> "TorusPoint":
        r = self.r - math.floor(self.r)
        s = self.s - math.floor(self.s)
        return TorusPoint.from_rs(r, s, ctx)

    def negate(self, ctx: LatticeContext) -> "TorusPoint":
        return TorusPoint.from_z(-self.z, ctx).canonical(ctx)


def rs_coordinates(z: complex, ctx: LatticeContext) -> tuple[float, float]:
    s = z.imag / ctx.tau.imag
    r = z.real - s * ctx.tau.real
    return r, s


def lattice_distance(z: complex, ctx: LatticeContext) -> float:
    """Distance from z to the lattice Z + Z*tau."""
    r, s = rs_coordinates(z, ctx)
    r -= math.floor(r)
    s -= math.floor(s)
    best = math.inf
    for dr in (0.0, 1.0):
        for ds in (0.0, 1.0):
            best = min(best, abs((r - dr) + (s - ds) * ctx.tau))
    return best


# corners (dr, ds) of the reduced cell, as lattice_distance visits them
_CORNER_R = np.array([0.0, 0.0, 1.0, 1.0])
_CORNER_S = np.array([0.0, 1.0, 0.0, 1.0])


def lattice_distance_many(z: np.ndarray, ctx: LatticeContext) -> np.ndarray:
    """Vectorized :func:`lattice_distance`, rounding exactly as it does."""
    r, s = rs_coordinates(np.asarray(z, dtype=complex), ctx)
    r = (r - np.floor(r))[..., None] - _CORNER_R
    s = (s - np.floor(s))[..., None] - _CORNER_S
    w = r + s * ctx.tau
    # hypot rounds as the scalar abs() does; numpy's complex abs may not
    return np.hypot(w.real, w.imag).min(axis=-1)


def _cell(z, ctx: LatticeContext):
    """Split z = z0 + m + n*tau with the lattice coordinates of z0 in [0, 1).

    z may be a scalar or an array; ``// 1.0`` floors both and keeps a
    Python float a Python float, so the scalar path stays cheap.
    """
    r, s = rs_coordinates(z, ctx)
    m, n = r // 1.0, s // 1.0
    return (r - m) + (s - n) * ctx.tau, m, n


def _wp_zeta(z, ctx: LatticeContext, prime: bool = False):
    """(wp, zeta) at z, or (wp, zeta, wp') with ``prime``, from one theta
    block at the reduced point; the quasi-periods restore zeta exactly.

    The one kernel behind every wp/zeta value: z may be a Python scalar
    (Python complex arithmetic) or an array; no clearance check.
    """
    z0, m, n = _cell(z, ctx)
    t0, t1, t2, t3 = _theta_block_arrays(z0, ctx._freq, ctx._coef)
    u = t1 / t0
    du = t2 / t0 - u * u
    wp_val = -ctx.eta1 - du
    zeta = ctx.eta1 * z0 + u + m * ctx.eta1 + n * ctx.eta2
    if not prime:
        return wp_val, zeta
    return wp_val, zeta, -(t3 / t0 - 3.0 * u * du - u**3)


def _require_clear(z: complex, ctx: LatticeContext):
    d = lattice_distance(z, ctx)
    if d < POLE_CLEARANCE:
        raise PoleProximity(f"z={z} is {d:.2e} from the lattice (clearance {POLE_CLEARANCE:g})")


def zeta_w(z: complex, ctx: LatticeContext) -> complex:
    """Weierstrass zeta via eta1*z + theta1'(z)/theta1(z), reduced exactly."""
    _require_clear(z, ctx)
    return _wp_zeta(z, ctx)[1]


def sigma_w(z: complex, ctx: LatticeContext) -> complex:
    """Weierstrass sigma = exp(eta1 z^2/2) theta1(z)/theta1'(0)."""
    z0, m, n = _cell(z, ctx)
    t0 = _theta_block_arrays(z0, ctx._freq, ctx._coef)[0]
    base = cmath.exp(ctx.eta1 * z0 * z0 / 2.0) * t0 / ctx.theta1prime0
    if m == 0 and n == 0:
        return base
    eta = m * ctx.eta1 + n * ctx.eta2
    omega = m + n * ctx.tau
    sign = (-1.0) ** (m + n + m * n)
    return sign * cmath.exp(eta * (z0 + omega / 2.0)) * base


def weierstrass(z: complex, ctx: LatticeContext) -> tuple[complex, complex]:
    """(wp(z), wp'(z)) through logarithmic derivatives of theta1."""
    _require_clear(z, ctx)
    p, _, pp = _wp_zeta(z, ctx, prime=True)
    return p, pp


def wp(z: complex, ctx: LatticeContext) -> complex:
    return weierstrass(z, ctx)[0]


def wp_prime(z: complex, ctx: LatticeContext) -> complex:
    return weierstrass(z, ctx)[1]


def zeta_many(z: np.ndarray, ctx: LatticeContext) -> np.ndarray:
    """Vectorized zeta over an array of points (no clearance check)."""
    return _wp_zeta(np.asarray(z, dtype=complex), ctx)[1]


def wp_many(z: np.ndarray, ctx: LatticeContext) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (wp, wp') over an array of points (no clearance check)."""
    p, _, pp = _wp_zeta(np.asarray(z, dtype=complex), ctx, prime=True)
    return p, pp


def wp_zeta_many(z: np.ndarray, ctx: LatticeContext) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (wp, zeta) from one theta block (no clearance check)."""
    return _wp_zeta(np.asarray(z, dtype=complex), ctx)


def eisenstein(tau: complex) -> tuple[complex, complex]:
    """g2 = 60*E4(lattice), g3 = 140*E6(lattice) by q-expansion.

    Uses the normalized series 1 + 240 sum sigma3(n) Q^n and
    1 - 504 sum sigma5(n) Q^n with Q = exp(2 pi i tau), rescaled to the
    lattice sums:  g2 = (4 pi^4/3) E4,  g3 = (8 pi^6/27) E6.
    """
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("Im(tau) must be positive")
    terms = int(math.ceil(18.0 * math.log(10.0) / (2.0 * math.pi * tau.imag))) + 4
    Q = cmath.exp(TWO_PI_I * tau)
    sig3 = np.zeros(terms + 1)
    sig5 = np.zeros(terms + 1)
    for d in range(1, terms + 1):
        mult = np.arange(d, terms + 1, d)
        sig3[mult] += float(d) ** 3
        sig5[mult] += float(d) ** 5
    Qn = Q ** np.arange(terms + 1)
    e4 = 1.0 + 240.0 * np.sum(sig3[1:] * Qn[1:])
    e6 = 1.0 - 504.0 * np.sum(sig5[1:] * Qn[1:])
    g2 = (4.0 * math.pi**4 / 3.0) * e4
    g3 = (8.0 * math.pi**6 / 27.0) * e6
    return complex(g2), complex(g3)


def wp_inverse(x: complex, ctx: LatticeContext, sign_hint: int = +1) -> TorusPoint:
    """Solve wp(a) = x; the branch a / -a follows ``sign_hint``.

    With sign_hint = +1 the returned point has wp'(a) matching the
    principal square root of 4x^3 - g2 x - g3; -1 selects the mirror.
    :func:`_damped_newton` runs from the best cells of a 9 x 9 seed grid
    until |wp(a) - x| < 1e-11 (1 + |x|).  At a branch value x = e_i, where
    that is only sqrt-accurate, a second run on wp'(a) = 0 polishes a
    onto the half-period.
    """
    x = complex(x)
    tau = ctx.tau
    grid = np.linspace(0.07, 0.93, 9)
    cand = (grid[:, None] + grid[None, :] * tau).ravel()
    vals, _ = wp_many(cand, ctx)
    order = np.argsort(np.abs(vals - x))
    a_found = None
    for idx in order[:6]:
        a = complex(cand[idx])
        ok = _newton_wp(a, x, ctx, 1e-11)
        if ok is not None:
            a_found = ok
            break
    if a_found is None:
        raise NoConvergence(f"wp_inverse failed for x={x}")
    a = a_found
    w = cmath.sqrt(4.0 * x**3 - ctx.g2 * x - ctx.g3)
    if abs(w) < 1e-5 * (1.0 + abs(x)) ** 1.5:
        # branch value: the preimage is a half-period; Newton on wp'(a) = 0
        # with wp'' = 6 wp^2 - g2/2
        def residual(a):
            val = _wp_clear(a, ctx)
            return None if val is None else (val[1], val[0])
        hit = _damped_newton(residual, lambda a, pp, p: 6.0 * p * p - ctx.g2 / 2.0,
                             a, 1e-13 * (1.0 + abs(x)) ** 1.5, 40)
        if hit is not None:
            a = hit[0]
    else:
        # branch selection on wp'
        _, pp = weierstrass(a, ctx)
        plus_branch = abs(pp - w) <= abs(pp + w)
        if (sign_hint >= 0) != plus_branch:
            a = -a
    return TorusPoint.from_z(a, ctx).canonical(ctx)


def _wp_clear(z, ctx: LatticeContext):
    """(wp, wp') at z, or None inside the pole clearance, so that a
    Newton trial there is infeasible instead of raising."""
    if lattice_distance(z, ctx) < POLE_CLEARANCE:
        return None
    p, _, pp = _wp_zeta(z, ctx, prime=True)
    return p, pp


def _newton_wp(a: complex, x: complex, ctx: LatticeContext, tol: float):
    """Root of wp(a) = x from a, or None."""
    def residual(a):
        val = _wp_clear(a, ctx)
        return None if val is None else (val[0] - x, val)

    def slope(a, f, val):
        p, pp = val
        # wp' = 0 to roundoff: a half-period, where no Newton step exists
        return 0 if abs(pp) < 1e-13 * (1.0 + abs(p)) ** 1.5 else pp

    tol = tol * (1.0 + abs(x))
    hit = _damped_newton(residual, slope, a, tol, 60)
    start = residual(a) if hit is None else None
    if start is not None and slope(a, *start) == 0:
        # a start on a half-period, such as the seed (1 + tau)/2 of
        # wp_inverse's grid: nudge it off and start again
        a += 0.01 * cmath.exp(2j * math.pi * abs(start[0]))
        hit = _damped_newton(residual, slope, a, tol, 60)
    return None if hit is None else hit[0]


#: halvings the line search tries before it gives a Newton step up
_HALVINGS = 30


def _size(v):
    """Largest entry modulus: the convergence and step-cap measure."""
    return np.max(np.abs(v)) if isinstance(v, np.ndarray) else abs(v)


def _norm(v):
    """Euclidean norm: the measure the line search must decrease."""
    return np.linalg.norm(v) if isinstance(v, np.ndarray) else abs(v)


def _newton_run(jacobian, x, fx, tol: float, iters: int, final_tol, cap):
    """The damped-Newton policy for one start x with residual ``fx``, as a
    generator: it yields each trial point of the line search and is sent
    that point's residual (None where infeasible); at a matrix derivative
    it first yields the tuple ``(J, b)`` and is sent the step J^-1 b (see
    :func:`_solve`).  It returns ``(root, residual(root))`` or None (see
    :func:`_damped_newton`).

    The generator holds no evaluation or solve of its own, so one driver
    can feed a single start (:func:`_damped_newton`) and another many
    starts at once (:func:`_damped_newton_many`) through the same steps,
    bit for bit.
    """
    for _ in range(iters):
        f = fx[0]
        if _size(f) < tol:
            return x, fx
        J = jacobian(x, *fx)
        if not isinstance(J, np.ndarray):
            if J == 0:
                return None
            step = f / J
        else:
            step = yield J, (f if isinstance(f, np.ndarray) else np.array([f.real, f.imag]))
            if step is None:
                return None
        if cap is not None and _size(step) > cap:
            step = step * (cap / _size(step))
        lam, base = 1.0, _norm(f)
        for _ in range(_HALVINGS):
            trial = x - lam * step
            ft = yield trial
            if ft is not None and _norm(ft[0]) < base:
                break
            lam *= 0.5
        else:
            return None
        x, fx = trial, ft
    return (x, fx) if _size(fx[0]) < (tol if final_tol is None else final_tol) else None


def _solve(J, b):
    """The Newton step J^-1 b, or None where np.linalg.solve rejects J."""
    try:
        return np.linalg.solve(J, b)
    except np.linalg.LinAlgError:
        return None


def _solve_many(systems):
    """:func:`_solve` of each ``(J, b)``, from one stacked np.linalg.solve
    (the same bits) unless some J is singular."""
    J, b = map(np.array, zip(*systems))
    try:
        return list(np.linalg.solve(J, b[..., None])[..., 0])
    except np.linalg.LinAlgError:
        return [_solve(J, b) for J, b in systems]


def _damped_newton(residual, jacobian, x, tol: float, iters: int, *,
                   final_tol: float | None = None, cap: float | None = None):
    """Damped Newton on residual(x) = 0 from x: (root, residual(root)) or None.

    ``residual(x)`` is None where x is infeasible (off the domain or
    inside a clearance), else ``(f, data)``, where ``data`` is whatever
    the derivative can reuse (wp, wp' of the same kernel block, say).
    ``jacobian(x, f, data)`` is called at accepted iterates only.  A
    scalar derivative divides; a matrix is solved, a complex f of a real
    pair x (an (r, s) chart) as (Re f, Im f).  The step is shortened to
    ``cap`` in its largest entry (lattice units), then halved until the
    residual's Euclidean norm falls (Deuflhard's monotonicity test).

    An iterate whose residual has largest entry below ``tol`` is the
    root; after ``iters`` steps the last iterate is accepted below
    ``final_tol`` (default ``tol``).  An infeasible start, a singular
    derivative (zero, or a matrix ``np.linalg.solve`` rejects) or a step
    that no halving makes decrease gives None.

    This drives one :func:`_newton_run`, answering each ask as it comes.
    """
    fx = residual(x)
    if fx is None:
        return None
    run = _newton_run(jacobian, x, fx, tol, iters, final_tol, cap)
    answer = None
    try:
        while True:
            ask = run.send(answer)
            answer = _solve(*ask) if isinstance(ask, tuple) else residual(ask)
    except StopIteration as stop:
        return stop.value


def _damped_newton_many(residual_many, jacobian, xs, tol: float, iters: int, *,
                        final_tol: float | None = None, cap: float | None = None):
    """:func:`_damped_newton` from every start in ``xs`` at once, in lockstep:
    a list with, per start, what ``_damped_newton`` returns for it.

    ``residual_many(points)`` takes a list of points and returns the list
    of their residuals, each None or ``(f, data)`` as ``residual`` would.
    It is called once for the starts and then once per round, on the
    pending trial point of every run still going, so an array kernel
    evaluates all of them in one call; the runs at an accepted iterate
    first get their steps from one stacked solve.  Each start keeps its
    own :func:`_newton_run`; a start that fails or converges drops out
    without touching the others.
    """
    out = [None] * len(xs)
    runs = [(i, _newton_run(jacobian, x, fx, tol, iters, final_tol, cap))
            for i, (x, fx) in enumerate(zip(xs, residual_many(list(xs))))
            if fx is not None]

    def send(k, answer):
        """Run k's next ask, or None once it has finished."""
        try:
            return runs[k][1].send(answer)
        except StopIteration as stop:
            out[runs[k][0]] = stop.value

    sent = [None] * len(runs)
    while runs:
        asks = [send(k, answer) for k, answer in enumerate(sent)]
        solving = [k for k, ask in enumerate(asks) if isinstance(ask, tuple)]
        if solving:
            for k, step in zip(solving, _solve_many([asks[k] for k in solving])):
                asks[k] = send(k, step)
        going = [k for k, ask in enumerate(asks) if ask is not None]
        runs, trials = [runs[k] for k in going], [asks[k] for k in going]
        sent = residual_many(trials) if trials else []
    return out


def wp_regular_coefficients(ctx: LatticeContext, k_max: int) -> np.ndarray:
    """Taylor coefficients of wp(w) - w^-2 around 0 up to order k_max.

    Recursion on c_k in wp = w^-2 + sum_{k>=2} c_k w^{2k-2}:
    c_2 = g2/20, c_3 = g3/28, c_k = 3/((2k+1)(k-3)) sum c_m c_{k-m}.
    """
    out = np.zeros(k_max + 1, dtype=complex)
    kk = k_max // 2 + 2
    c = np.zeros(kk + 1, dtype=complex)
    if kk >= 2:
        c[2] = ctx.g2 / 20.0
    if kk >= 3:
        c[3] = ctx.g3 / 28.0
    for k in range(4, kk + 1):
        c[k] = 3.0 / ((2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1))
    for k in range(2, kk + 1):
        if 2 * k - 2 <= k_max:
            out[2 * k - 2] = c[k]
    return out


def taylor_data(kind: str, base: complex, shift: complex, k_max: int,
                ctx: LatticeContext) -> np.ndarray:
    """Taylor coefficients at z = base of zeta(z - shift) or wp(z - shift).

    When base - shift lies on the lattice the pole is removed first and
    the coefficients of the regular part are returned (so the orders
    below 3 vanish for zeta and below 2 for wp).
    """
    if kind not in ("zeta", "wp"):
        raise ValueError(f"kind must be 'zeta' or 'wp', not {kind!r}")
    d = complex(base) - complex(shift)
    if lattice_distance(d, ctx) < POLE_CLEARANCE:
        if lattice_distance(d, ctx) > ctx.tol * 10:
            raise PoleProximity(f"expansion point {d} too close to the shifted pole")
        preg = wp_regular_coefficients(ctx, k_max + 1)
        if kind == "wp":
            return preg[: k_max + 1]
        out = np.zeros(k_max + 1, dtype=complex)
        for k in range(1, k_max + 1):
            out[k] = -preg[k - 1] / k
        return out
    # regular case: wp Taylor row from p'' = 6 p^2 - g2/2
    p0, p1 = weierstrass(d, ctx)
    pcoef = np.zeros(k_max + 2, dtype=complex)
    pcoef[0], pcoef[1] = p0, p1
    for k in range(k_max):
        conv = sum(pcoef[j] * pcoef[k - j] for j in range(k + 1))
        rhs = 6.0 * conv - (ctx.g2 / 2.0 if k == 0 else 0.0)
        pcoef[k + 2] = rhs / ((k + 1) * (k + 2))
    if kind == "wp":
        return pcoef[: k_max + 1]
    zcoef = np.zeros(k_max + 1, dtype=complex)
    zcoef[0] = zeta_w(d, ctx)
    for k in range(1, k_max + 1):
        zcoef[k] = -pcoef[k - 1] / k
    return zcoef


@dataclass
class IdentityReport:
    """Max residuals of the three closed-form identities used as oracles."""

    addition_square: float      # z2^2 = wp(a1+a2) + wp(a1) + wp(a2)
    cubic_three_point: float    # z3^3 = 3(wp(s)+sum wp(ai)) z3 + (wp'(s)-sum wp'(ai))
    zeta_sum_square: float      # (zeta(a)+zeta(b)+zeta(c))^2 = wp(a)+wp(b)+wp(c), a+b+c=0
    samples: int

    def max_residual(self) -> float:
        return max(self.addition_square, self.cubic_three_point, self.zeta_sum_square)


def _random_clear_point(rng, ctx):
    for _ in range(200):
        r = rng.uniform(0.06, 0.94)
        s = rng.uniform(0.06, 0.94)
        z = r + s * ctx.tau
        if lattice_distance(z, ctx) > 3 * POLE_CLEARANCE:
            return z
    raise NoConvergence("could not sample a pole-clear point")


def check_identities(ctx: LatticeContext, samples: int = 25, seed: int = 0) -> IdentityReport:
    """Evaluate both sides of the three kernel identities at random points.

    Degenerate draws (colliding points, sums on the lattice) are
    resampled rather than reported as failures.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst2 = worst3 = worstz = 0.0
    done2 = done3 = donez = 0
    guard = 0
    while (done2 < samples or done3 < samples or donez < samples) and guard < 80 * samples:
        guard += 1
        a1 = _random_clear_point(rng, ctx)
        a2 = _random_clear_point(rng, ctx)
        a3 = _random_clear_point(rng, ctx)
        # every point below is checked clear of the lattice first, so the
        # kernel is called directly, once per point
        (p1, k1, d1), (p2, k2, d2), (p3, k3, d3) = (
            _wp_zeta(a, ctx, prime=True) for a in (a1, a2, a3))
        if done2 < samples:
            if lattice_distance(a1 - a2, ctx) > 3 * POLE_CLEARANCE and \
               lattice_distance(a1 + a2, ctx) > 3 * POLE_CLEARANCE:
                ps, ks = _wp_zeta(a1 + a2, ctx)
                z2 = ks - k1 - k2
                rhs = ps + p1 + p2
                worst2 = max(worst2, abs(z2 * z2 - rhs) / (1.0 + abs(rhs)))
                done2 += 1
        if done3 < samples:
            sig = a1 + a2 + a3
            if lattice_distance(sig, ctx) > 3 * POLE_CLEARANCE:
                ps, ks, ds = _wp_zeta(sig, ctx, prime=True)
                z3 = ks - k1 - k2 - k3
                psum = p1 + p2 + p3
                dsum = d1 + d2 + d3
                lhs = z3**3
                rhs = 3.0 * (ps + psum) * z3 + (ds - dsum)
                worst3 = max(worst3, abs(lhs - rhs) / (1.0 + abs(rhs)))
                done3 += 1
        if donez < samples:
            c = -a1 - a2
            if lattice_distance(c, ctx) > 3 * POLE_CLEARANCE:
                ps, ks = _wp_zeta(c, ctx)
                lhs = (k1 + k2 + ks) ** 2
                rhs = p1 + p2 + ps
                worstz = max(worstz, abs(lhs - rhs) / (1.0 + abs(rhs)))
                donez += 1
    if min(done2, done3, donez) < samples:
        raise NoConvergence("identity sampler kept hitting degenerate configurations")
    return IdentityReport(worst2, worst3, worstz, samples)
