"""Command-line front end. JSON is the stable output contract.

Exit codes: 0 = success, 1 = the tool ran but a mathematical check
failed (rejected certificate, non-psd matrix, table mismatch, ...),
2 = usage or input error. Payloads on exit 0/1 are valid JSON; errors
carry a "reason" string. All randomness sits behind --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass

from . import delsarte, entrywise, lattice, schurdet
from .gegenbauer import gegenbauer as gegenbauer_poly
from .gegenbauer import to_gegenbauer_basis, to_jacobi_basis
from .polycore import Poly, rat, rat_str

# Size limits; README ("CLI") has the timings behind them. A `schur verify` trial at
# N = 17 and degree 24 (elimination on series of 7 terms) takes 0.05 s on average on a
# 2-vCPU Xeon VM with Python 3.11.7: 200 trials take 6.3-6.4 s, the default 10 about 0.5 s.
MAX_SCHUR_N = 17
MAX_SCHUR_DEGREE = 24
MAX_SCHUR_TRIALS = 200
MAX_GEGENBAUER_K = 1700
MAX_LP_DEGREE = 800
MAX_LP_ENTRIES = 20_000_000
MAX_PRESERVER_DIM = 1500
MAX_DIM = 10_000  # gegenbauer and bound spherical-code
MAX_MIDCONVEX_SAMPLES = 1000


@dataclass
class CommandResult:
    exit_code: int
    payload: dict
    text: str | None = None  # human rendering; JSON remains the contract


def _load_list(path: str, key: str, what: str, ok) -> list:
    """The list under `key` in a JSON object file; `what` names the items `ok` accepts."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f'{path}: missing key "{key}"')
    if not (isinstance(data[key], list) and all(map(ok, data[key]))):
        raise ValueError(f'{path}: "{key}" must be a list of {what}')
    return data[key]


def _load_rows(path: str) -> list:
    """The "rows" of a matrix file: a list of lists of numbers, for :meth:`SymMatrix.from_rows` to check."""
    rows = _load_list(path, "rows", "lists", lambda r: isinstance(r, list))
    for i, r in enumerate(rows):
        if not all(type(v) in (int, float) for v in r):  # json reads true and false as bools, an int subclass
            raise ValueError(f"{path}: row {i} has an entry that is not a number")
    return rows


def _ranged(lo: int, hi: int):
    def check(s: str) -> int:
        v = int(s)
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(f"must be between {lo} and {hi}, got {v}")
        return v
    check.__name__ = "int"  # argparse names a non-integer "invalid int value"
    return check


def _cmd_gegenbauer(args) -> CommandResult:
    if args.expand:
        p = Poly(_load_list(
            args.expand, "poly", 'finite numbers or rational strings such as "1/3"',
            lambda c: isinstance(c, str) or type(c) in (int, float),
        ))
        if (p.degree or 0) > MAX_GEGENBAUER_K:
            raise ValueError(f"--expand polynomial degree must be at most {MAX_GEGENBAUER_K}, got {p.degree}")
        coeffs = to_gegenbauer_basis(args.dim, p)
        classical = to_jacobi_basis(coeffs)
        return CommandResult(0, {
            "dim": args.dim,
            "coeffs": [rat_str(c) for c in coeffs.coeffs],
            "classical_coeffs": [rat_str(c) for c in classical.coeffs],
        })
    poly = gegenbauer_poly(args.dim, args.k)
    return CommandResult(0, {"dim": args.dim, "k": args.k, "poly": poly.to_strings()})


def _cmd_bound(args) -> CommandResult:
    if args.bound_command == "kissing":
        cert = delsarte.known_certificate(args.cert)
        payload = cert.to_json_dict()
        payload["name"] = args.cert
        return CommandResult(0, payload)
    # spherical-code
    max_grid = MAX_LP_ENTRIES // (args.degree + 1)
    if args.grid > max_grid:
        raise ValueError(f"--grid must be at most {max_grid} at --degree {args.degree}, got {args.grid}")
    try:
        res = delsarte.lp_bound(args.dim, args.cos, args.degree, args.grid)
    except delsarte.LpInfeasible as exc:
        return CommandResult(1, {"reason": f"infeasible: {exc}"})
    payload = {
        "float_bound": res.float_bound,
        "float_coeffs": [float(c) for c in res.float_coeffs],
        "certificate": res.certificate.to_json_dict() if res.certificate else None,
        "rejection": res.rejection,
    }
    if not res.certificate:
        payload["reason"] = f"no certificate: {res.rejection}"
    return CommandResult(0 if res.certificate else 1, payload)


def _cmd_check(args) -> CommandResult:
    if args.check_command == "psd":
        mat = entrywise.SymMatrix.from_rows(_load_rows(args.matrix))
        tol = None if args.tol is None else rat(args.tol)
        if tol is not None and abs(tol) > sys.float_info.max:
            raise ValueError(f"--tol {args.tol!r} is beyond the float range")
        rep = entrywise.psd_check(mat, None if tol is None else float(tol))
        payload = {
            "is_psd": rep.is_psd,
            "min_eigenvalue": rep.min_eigenvalue,
            "rank": rep.rank,
            "inertia": list(rep.inertia),
            "tol": rep.tol,
        }
        if not rep.is_psd:
            payload["reason"] = "matrix is not positive semidefinite"
        return CommandResult(0 if rep.is_psd else 1, payload)

    if args.check_command == "preserver":
        power = rat(args.power)
        w = entrywise.power_preserver_witness(args.dim, power)  # None: x^power preserves psd
        witness = None if w is None else {"power": rat_str(w.power), "x": [rat_str(v) for v in w.x],
                                          "w": [str(v) for v in w.w], "upper": rat_str(w.upper)}
        return CommandResult(0, {"witness": witness, "power": rat_str(power), "dim": args.dim})

    # midconvex
    pairs = _load_list(
        args.samples, "samples", "[x, f(x)] pairs of numbers within the float range",
        lambda p: isinstance(p, list) and len(p) == 2
        and all(type(z) is float or type(z) is int and abs(z) <= sys.float_info.max for z in p),
    )
    if len(pairs) > MAX_MIDCONVEX_SAMPLES:
        raise ValueError(f"at most {MAX_MIDCONVEX_SAMPLES} samples, got {len(pairs)}")
    rep = entrywise.vasudeva_2x2_check(pairs)
    payload = {
        "nonnegative": rep.nonnegative,
        "nondecreasing": rep.nondecreasing,
        "mult_midconvex": rep.mult_midconvex,
    }
    if rep.violation:  # exactly when a predicate fails
        payload["reason"] = "2x2 preserver predicates violated"
        payload["violation"] = list(rep.violation)
    return CommandResult(1 if rep.violation else 0, payload)


def _cmd_embed(args) -> CommandResult:
    d = entrywise.DistanceMatrix(_load_rows(args.distances))
    if args.geometry == "euclidean":
        res = entrywise.euclidean_embed(d)
    else:
        try:
            res = entrywise.sphere_embed(d)
        except entrywise.DiameterError as exc:
            return CommandResult(1, {"reason": f"diameter: {exc}"})
    if not res.embeddable:
        return CommandResult(1, {
            "reason": "not embeddable",
            "witness_eigenvalue": res.witness_eigenvalue,
        })
    gram = res.points @ res.points.T  # psd by construction; round-trips into check psd
    return CommandResult(0, {
        "dim": res.dim,
        "points": res.points.tolist(),
        "gram": {"n": len(gram), "rows": gram.tolist()},
    })


def _cmd_lattice(args) -> CommandResult:
    try:
        lat = lattice.standard_lattice(args.name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    inv = lattice.lattice_invariants(lat)
    payload = {
        "rank": lat.rank,
        "gram": lat.gram_json(),
        "lambda1_sq": rat_str(inv.lambda1_sq),
        "kissing": inv.kissing,
        "covolume_sq": rat_str(inv.covolume_sq),
        "density": inv.density,
        "hermite": inv.hermite,
    }
    text = None
    if not args.json:
        text = "\n".join([
            f"lattice {args.name}: rank {lat.rank}",
            f"  lambda1^2   = {payload['lambda1_sq']}",
            f"  kissing     = {inv.kissing}",
            f"  covolume^2  = {payload['covolume_sq']}",
            f"  density     = {inv.density:.12g}",
            f"  hermite     = {inv.hermite:.12g}",
        ])
    return CommandResult(0, payload, text)


def _cmd_schur(args) -> CommandResult:
    rng = random.Random(args.seed)
    cutoff = args.N * (args.N - 1) // 2 + 6
    for _ in range(args.trials):
        u = rng.sample(range(-8, 9), args.N)
        v = rng.sample(range(-8, 9), args.N)
        fc = [rng.randint(-4, 4) for _ in range(args.degree + 1)]
        a = schurdet.det_series_direct(fc, u, v, cutoff)
        b = schurdet.det_series_formula(fc, u, v, cutoff)
        if a != b:
            return CommandResult(1, {
                "agree": False,
                "reason": "series mismatch",
                "u": u, "v": v,
                "f": [rat_str(c) for c in fc],
            })
    return CommandResult(0, {"agree": True, "N": args.N, "instances": args.trials, "cutoff": cutoff})


def _cmd_tables(args) -> CommandResult:
    report = lattice.table_report(args.dims)
    text = None
    if not args.json:
        lines = [
            f"{'n':>3} {'lattice':>8} {'gamma^n':>14} {'density':>18} {'kissing':>8} match"
        ]
        for r in report["rows"]:
            lines.append(
                f"{r['n']:>3} {r['lattice']:>8} {r['gamma_pow_n']:>14} "
                f"{r['density']:>18.12f} {r['kissing']:>8} {'ok' if r['match'] else 'MISMATCH'}"
            )
        for m in report["mordell"]:
            lines.append(
                f"mordell n={m['n']}: gamma_n={m['gamma_n']:.6f} <= {m['bound']:.6f} "
                f"{'ok' if m['ok'] else 'VIOLATED'}"
            )
        text = "\n".join(lines)
    return CommandResult(0 if report["all_match"] else 1, report, text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line exits 2 with a JSON reason
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="poscert")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gegenbauer", help="emit G_k^{(n)} or expand a polynomial")
    g.add_argument("--dim", type=_ranged(2, MAX_DIM), required=True, help=f"2-{MAX_DIM}")
    gk = g.add_mutually_exclusive_group(required=True)
    gk.add_argument("--k", type=_ranged(0, MAX_GEGENBAUER_K), help=f"degree, 0-{MAX_GEGENBAUER_K}")
    gk.add_argument("--expand", metavar="FILE")
    g.set_defaults(func=_cmd_gegenbauer)

    b = sub.add_parser("bound", help="spherical-code upper bounds")
    bsub = b.add_subparsers(dest="bound_command", required=True)
    bs = bsub.add_parser("spherical-code", help="LP bound plus exact certificate")
    bs.add_argument("--dim", type=_ranged(2, MAX_DIM), required=True, help=f"2-{MAX_DIM}")
    bs.add_argument("--cos", required=True, help="cos(psi) as 'p/q'; a negative one as --cos=-p/q")
    bs.add_argument("--degree", type=_ranged(0, MAX_LP_DEGREE), required=True, help=f"0-{MAX_LP_DEGREE}")
    bs.add_argument("--grid", type=int, default=2000)
    bk = bsub.add_parser("kissing", help="verify an embedded kissing certificate")
    bk.add_argument("--cert", choices=delsarte.KNOWN_CERTIFICATE_NAMES, required=True)
    b.set_defaults(func=_cmd_bound)

    c = sub.add_parser("check", help="psd / power-preserver / midconvexity checks")
    csub = c.add_subparsers(dest="check_command", required=True)
    cp = csub.add_parser("psd")
    cp.add_argument("matrix", help="matrix JSON file")
    cp.add_argument("--tol", help="'p/q' or a decimal; default 1e-10 times the largest |eigenvalue|")
    cv = csub.add_parser("preserver")
    cv.add_argument("--power", required=True, help="'p/q' or a decimal; a negative p/q as --power=-p/q")
    cv.add_argument("--dim", type=_ranged(2, MAX_PRESERVER_DIM), required=True, help=f"2-{MAX_PRESERVER_DIM}")
    cm = csub.add_parser("midconvex")
    cm.add_argument("samples", help="samples JSON file")
    c.set_defaults(func=_cmd_check)

    e = sub.add_parser("embed", help="Euclidean or spherical metric embedding")
    e.add_argument("geometry", choices=("euclidean", "sphere"))
    e.add_argument("distances", help="distance matrix JSON file")
    e.set_defaults(func=_cmd_embed)

    l = sub.add_parser("lattice", help="lattice invariants")
    lsub = l.add_subparsers(dest="lattice_command", required=True)
    li = lsub.add_parser("info")
    li.add_argument("--name", required=True,
                    help=f"A1-A3, D4, D5, E6-E8, Leech, or Z<k> with k <= {lattice.MAX_Z_RANK}")
    li.add_argument("--json", action="store_true")
    l.set_defaults(func=_cmd_lattice)

    s = sub.add_parser("schur", help="verify the determinant identity on random data")
    ssub = s.add_subparsers(dest="schur_command", required=True)
    sv = ssub.add_parser("verify")
    sv.add_argument("--N", type=_ranged(1, MAX_SCHUR_N), required=True, help=f"matrix size, 1-{MAX_SCHUR_N}")
    sv.add_argument("--degree", type=_ranged(0, MAX_SCHUR_DEGREE), required=True,
                    help=f"degree of f, 0-{MAX_SCHUR_DEGREE}")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--trials", type=_ranged(1, MAX_SCHUR_TRIALS), default=10,
                    help=f"instances checked, 1-{MAX_SCHUR_TRIALS}")
    s.set_defaults(func=_cmd_schur)

    t = sub.add_parser("tables", help="recompute the packing/kissing tables")
    t.add_argument("--json", action="store_true")
    t.add_argument("--dims", type=int, nargs="*", default=None)
    t.set_defaults(func=_cmd_tables)

    return p


def run(argv: list[str]) -> CommandResult:
    """Dispatch a command line; returns the result instead of exiting."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        return CommandResult(2, {"reason": str(exc)})
    except (RuntimeError, OverflowError, MemoryError) as exc:  # e.g. the simplex iteration limit
        return CommandResult(1, {"reason": f"computation failed: {str(exc) or type(exc).__name__}"})


def main(argv: list[str] | None = None) -> None:
    result = run(sys.argv[1:] if argv is None else argv)
    try:
        if result.exit_code == 2:
            print(json.dumps(result.payload), file=sys.stderr)
        elif result.text is not None:
            print(result.text)
        else:
            print(json.dumps(result.payload, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: silence the interpreter's flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
