"""Batch command line front-end.

Complex numbers are written as ``a+bi`` with no spaces (``1.5-0.3i``,
``2i``, ``0.7``); JSON output encodes them as [re, im] pairs and carries
``"schema": 1``.  Exit codes: 0 pass, 1 assertion failure, 2 usage error,
3 incomplete enumeration.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import re
import sys

import numpy as np

from . import curves, green, monodromy, polysys
from .elliptic import TorusPoint, make_context
from .errors import LamelabError, PartialEnumeration

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' with no spaces; bare reals and bare imaginaries allowed."""
    t = text.strip()
    if not t:
        raise ValueError("empty complex literal")
    if t.endswith("i"):
        body = t[:-1]
        # split into real and imaginary pieces at the last +/- not at start/exponent
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                rpart, ipart = body[:k], body[k:]
                break
        else:
            rpart, ipart = "", body
        if ipart in ("", "+"):
            ival = 1.0
        elif ipart == "-":
            ival = -1.0
        else:
            ival = float(ipart)
        rval = float(rpart) if rpart else 0.0
        return complex(rval, ival)
    return complex(float(t), 0.0)


def _finite(value, flag: str):
    """``value`` if it is finite, else a ValueError that names ``flag``."""
    if not cmath.isfinite(value):
        raise ValueError(f"{flag} must be finite, not {value}")
    return value


def parse_divisor(text: str, ctx):
    """Grammar: 'p=r,s:w;p=r,s:w;...' with lattice coordinates r, s."""
    pairs, weights = [], []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = re.match(r"^p=([^,:]+),([^,:]+):(\d+)$", chunk)
        if not m:
            raise ValueError(f"bad divisor term {chunk!r} (want p=r,s:w)")
        pairs.append(tuple(_finite(float(m.group(k)), f"--divisor {chunk!r}: p=r,s")
                           for k in (1, 2)))
        weights.append(int(m.group(3)))
    if not pairs:
        raise ValueError("empty divisor")
    return polysys.SourceDivisor.from_rs(pairs, weights, ctx)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_critical(args) -> int:
    ctx = make_context(args.tau)
    cs = green.critical_points(ctx, grid=args.grid)
    label = green._omega_label(cs, boundary_tol=1e-6)
    _emit(args, cs.to_json(classification=label))
    return EXIT_OK


def cmd_hecke(args) -> int:
    r, s = _finite(args.r, "--r"), _finite(args.s, "--s")
    ctx = make_context(args.tau)
    v = green.hecke_Z(r, s, ctx)
    vq = green.hecke_Z_qseries(r, s, ctx)
    _emit(args, json.dumps({
        "schema": 1,
        "tau": [args.tau.real, args.tau.imag],
        "r": r, "s": s,
        "Z": [v.real, v.imag],
        "Z_qseries": [vq.real, vq.imag],
        "agreement": abs(v - vq),
    }, indent=2))
    return EXIT_OK


def cmd_lame_curve(args) -> int:
    ctx = make_context(args.tau)
    if args.sweep:
        lo, hi, num = args.sweep.split(",")
        bs = np.linspace(float(lo), float(hi), int(num)) + args.b_imag * 1j
        curves.ln_sweep_csv(args.n, bs, ctx, args.output or "ln_sweep.csv")
        return EXIT_OK
    pt = curves.point_on_Xn(args.n, _finite(args.B, "--B"), ctx)
    _emit(args, pt.to_json())
    return EXIT_OK


def cmd_premodular(args) -> int:
    r, s = (_finite(float(x), "--sigma") for x in args.sigma.split(","))
    ctx = make_context(args.tau)
    sig = TorusPoint.from_rs(r, s, ctx)
    v = curves.Zn_premodular(args.n, sig, ctx)
    _emit(args, json.dumps({
        "schema": 1, "n": args.n,
        "sigma": {"r": r, "s": s},
        "Zn": [v.real, v.imag],
    }, indent=2))
    return EXIT_OK


def cmd_type2(args) -> int:
    ctx = make_context(args.tau)
    sols = curves.find_type2(args.n, ctx, grid=args.grid)
    _emit(args, json.dumps({
        "schema": 1, "n": args.n,
        "tau": [args.tau.real, args.tau.imag],
        "count": len(sols),
        "solutions": [s.to_json_dict() for s in sols],
    }, indent=2))
    return EXIT_OK


def cmd_solve(args) -> int:
    ctx = make_context(args.tau)
    L = parse_divisor(args.divisor, ctx)
    cfg = polysys.SolveConfig(seed=args.seed, max_starts=args.max_starts)
    expected = polysys.degree_formula(L) if L.ell % 2 == 1 else None
    code = EXIT_OK
    try:
        sols = polysys.solve_system(L, ctx, cfg)
    except PartialEnumeration as exc:
        sols = exc.solutions
        code = EXIT_PARTIAL
        print(f"warning: {exc}", file=sys.stderr)
    payload = polysys.solutions_json(L, sols, expected)
    if args.check_monodromy:
        payload["classifications"] = [
            monodromy.classify_projective(monodromy.monodromy_pair(L, sol, ctx)) for sol in sols]
    _emit(args, json.dumps(payload, indent=2))
    return code


def _json_complex(v, what: str) -> complex:
    """A JSON [re, im] pair of finite numbers (read as floats) as a complex."""
    if not (isinstance(v, list) and len(v) == 2
            and all(type(x) is float and np.isfinite(x) for x in v)):
        raise ValueError(f"{what} must be a [re, im] pair of finite numbers, not {v!r}")
    return complex(v[0], v[1])


def parse_params(text: str) -> polysys.LameParams:
    """Parse --params: a JSON object with "A", a list of [re, im] pairs,
    and "B", one [re, im] pair (a solution object from ``solve`` will do;
    its other keys are ignored)."""
    try:
        # integers as floats: an integer too large for a float reads as inf
        data = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--params is not JSON: {exc}") from None
    if not isinstance(data, dict) or "A" not in data or "B" not in data:
        raise ValueError('--params must be a JSON object with keys "A" and "B"')
    if not isinstance(data["A"], list):
        raise ValueError('--params "A" must be a list of [re, im] pairs')
    return polysys.LameParams(A=[_json_complex(a, '"A" entry') for a in data["A"]],
                              B=_json_complex(data["B"], '"B"'))


def cmd_monodromy(args) -> int:
    ctx = make_context(args.tau)
    L = parse_divisor(args.divisor, ctx)
    params = parse_params(args.params)
    mp = monodromy.monodromy_pair(L, params, ctx)
    label = monodromy.classify_projective(mp)
    extra = {
        "params": {"A": [[a.real, a.imag] for a in params.A],
                   "B": [params.B.real, params.B.imag]},
        "commutator_defect": mp.commutator_defect(L.ell),
        "classification": label,
    }
    if label == "AbelianDiagonal":
        extra["unitarizable"] = monodromy.unitarizable(mp)
    _emit(args, mp.to_json(extra))
    return EXIT_OK


def cmd_identities(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    ctx = make_context(args.tau)
    rep = curves_identities_report(ctx, args.samples, args.seed)
    worst_name = max(rep, key=lambda k: rep[k])
    ok = all(v < 1e-9 for v in rep.values())
    payload = json.dumps({
        "schema": 1,
        "tau": [args.tau.real, args.tau.imag],
        "residuals": rep,
        "pass": ok,
    }, indent=2)
    if args.germ_k:
        # the constraint table takes over --output; the summary goes to stdout
        rng = np.random.default_rng(args.seed)
        n = args.n
        pairs = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(2 * n)]
        L = polysys.SourceDivisor.from_rs(pairs, [1] * (2 * n), ctx)
        gs = polysys.germ_series(L, None, args.germ_k, ctx)
        report = polysys.germ_constraints(gs)
        polysys.germ_constraints_csv(report, args.output or "germ_constraints.csv")
        print(payload)
    else:
        _emit(args, payload)
    if not ok:
        print(f"worst identity: {worst_name} = {rep[worst_name]:.3e}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def curves_identities_report(ctx, samples: int, seed: int) -> dict:
    """Identity battery: kernel identities, the four-point factorization,
    and the low-order germ closure sums on a random even divisor."""
    from .elliptic import check_identities
    rng = np.random.default_rng(seed)
    rep = check_identities(ctx, samples=samples, seed=seed)
    out = {
        "addition_square": rep.addition_square,
        "cubic_three_point": rep.cubic_three_point,
        "zeta_sum_square": rep.zeta_sum_square,
    }
    worst = 0.0
    for _ in range(max(4, samples // 4)):
        pts = []
        while len(pts) < 4:
            cand = (rng.uniform(0.03, 0.97), rng.uniform(0.03, 0.97))
            if all(abs(cand[0] - p[0]) + abs(cand[1] - p[1]) > 0.05 for p in pts):
                pts.append(cand)
        zs = [complex(r, 0) + s * ctx.tau for r, s in pts]
        resid = polysys.verify_l4_identity(*zs, ctx)
        scale = polysys.l4_identity_scale(*zs, ctx)
        worst = max(worst, resid / scale)
    out["four_point_factorization"] = worst
    pairs = []
    while len(pairs) < 4:
        cand = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        if all(abs(cand[0] - p[0]) + abs(cand[1] - p[1]) > 0.05 for p in pairs):
            pairs.append(cand)
    L = polysys.SourceDivisor.from_rs(pairs, [1, 1, 1, 1], ctx)
    gs = polysys.germ_series(L, None, 3, ctx)
    rep2 = polysys.germ_constraints(gs)
    scale = 1.0 + float(np.max(np.abs(gs.coeffs)))
    out["germ_closure_k2"] = abs(rep2.values[1]) / scale
    out["germ_closure_k3"] = abs(rep2.values[2]) / scale
    return out


def cmd_germ(args) -> int:
    ctx = make_context(args.tau)
    rng = np.random.default_rng(args.seed)
    n = args.n
    if args.symmetric:
        pts = [(rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)) for _ in range(n)]
        pairs = [q for r, s in pts for q in ((r, s), ((-r) % 1.0, (-s) % 1.0))]
    else:
        pairs = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(2 * n)]
    L = polysys.SourceDivisor.from_rs(pairs, [1] * (2 * n), ctx)
    gs = polysys.germ_series(L, None, args.k, ctx)
    report = polysys.germ_constraints(gs)
    polysys.germ_constraints_csv(report, args.output or "germ_constraints.csv")
    print(json.dumps({
        "schema": 1,
        "k_values": [abs(v) for v in report.values],
        "t5_sides": [[report.k4_lhs.real, report.k4_lhs.imag],
                     [report.k4_rhs.real, report.k4_rhs.imag]],
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lamelab",
                                 description="torus Liouville/Lame numerical toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_tau(p):
        p.add_argument("--tau", type=parse_complex, required=True,
                       help="modulus a+bi with b > 0, no spaces")
        p.add_argument("--output", default=None)

    p = sub.add_parser("critical", help="critical points of the Green function")
    add_tau(p)
    p.add_argument("--grid", type=int, default=48)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("hecke", help="Hecke function value, both routes")
    add_tau(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("lame-curve", help="points of X_n / l_n sweeps")
    add_tau(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--B", type=parse_complex, default=complex(1.0))
    p.add_argument("--sweep", default=None, help="lo,hi,num real sweep of B")
    p.add_argument("--b-imag", type=float, default=0.0)
    p.set_defaults(func=cmd_lame_curve)

    p = sub.add_parser("premodular", help="evaluate Z_n(sigma)")
    add_tau(p)
    p.add_argument("--n", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--sigma", required=True, help="r,s lattice coordinates")
    p.set_defaults(func=cmd_premodular)

    p = sub.add_parser("type2", help="nontrivial zeros of Z_n with curve data")
    add_tau(p)
    p.add_argument("--n", type=int, default=1, choices=(1, 2))
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(func=cmd_type2)

    p = sub.add_parser("solve", help="log-free parameters for a divisor")
    add_tau(p)
    p.add_argument("--divisor", required=True, help="p=r,s:w;p=r,s:w;...")
    p.add_argument("--max-starts", type=int, default=1200)
    p.add_argument("--check-monodromy", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("monodromy", help="monodromy pair for given parameters")
    add_tau(p)
    p.add_argument("--divisor", required=True)
    p.add_argument("--params", required=True,
                   help='JSON {"A": [[re,im],...], "B": [re,im]}')
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("identities", help="run the identity battery")
    add_tau(p)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--germ-k", type=int, default=0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("germ", help="germ constraint table for even divisors")
    add_tau(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_germ)
    return ap


def _attach_values(argv: list[str]) -> list[str]:
    """``--s -1e-3`` as ``--s=-1e-3``: argparse would take a token that starts
    with one "-", other than -h or a plain -1 or -.5, for an option name."""
    out: list[str] = []
    for token in argv:
        if out and out[-1][:2] == "--" and "=" not in out[-1] and re.match(r"-[^-h]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()   # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:  # ``lamelab solve ... | head``: write nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except PartialEnumeration as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except (ValueError, LamelabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
