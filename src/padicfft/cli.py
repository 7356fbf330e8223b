"""Command line front end.

Subcommands: plan, root, dft, idft, mul, selftest, bench. All state comes
in through flags (no environment variables); the seed defaults to a fixed
constant so repeated runs produce byte-identical artifacts. Exit codes:
0 ok, also when stdout is closed before all of it is written (as by
`| head`), which then prints nothing more; 2 usage or malformed file,
3 violated mathematical precondition, 4 broken internal invariant.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import polyio
from .errors import (
    CoefficientNotRational,
    FileFormatError,
    InternalError,
    LengthMismatch,
    PreconditionError,
)
from .fft import basis_routes, dft, idft, poly_multiply, subring_axes
from .lifting import expand_lifted_factor
from .orders import FactoredOrder, multiplicative_order
from .padic import PadicContext, poly_text
from .pipeline import DEFAULT_SEED, build_pipeline
from .planner import asymptotic_report, choose_parameters, report_csv
from .selftest import CRITERIA, run_selftest

DEFAULT_K = 32


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors print one `error usage` line, like every other error."""

    def error(self, message):
        self.exit(2, f"error usage ArgumentError: {' '.join(message.split())}\n")


def _criterion_numbers(text: str) -> set:
    """--only value: comma-separated criterion numbers, each in 1..len(CRITERIA)."""
    parts = text.split(",")
    if not all(part.strip().isdigit() and 1 <= int(part) <= len(CRITERIA) for part in parts):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers in 1..{len(CRITERIA)}, got {text!r}")
    return {int(part) for part in parts}


def _add_seed(sp):
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="RNG seed for the tower construction (default 0x5eed)")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="padicfft",
        description="Exact DFT, inverse DFT, and polynomial multiplication over Z/p^K "
                    "via a root of unity lifted from a finite-field tower.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="choose transform parameters (s, d) for a target size")
    sp.add_argument("-p", type=int, required=True, help="odd prime")
    sp.add_argument("-N", type=int, required=True, help="size the transform length must exceed")
    sp.add_argument("-K", type=int, default=DEFAULT_K, help="p-adic precision, which picks the backend (default 32)")

    sp = sub.add_parser("root", help="build and lift a primitive s-th root of unity")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-s", type=int, required=True, help="root order, coprime to p")
    sp.add_argument("-K", type=int, default=DEFAULT_K, help="p-adic precision (default 32)")
    _add_seed(sp)

    sp = sub.add_parser("dft", help="evaluate a polynomial file at all s-th roots of unity")
    sp.add_argument("-i", "--input", required=True, metavar="POLY")
    sp.add_argument("-o", "--output", required=True, metavar="EVALS")
    sp.add_argument("-p", type=int, help="override the file's prime")
    sp.add_argument("-K", type=int, help="override the file's precision")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("-s", type=int, help="transform length (default: planner on the degree)")
    group.add_argument("-N", type=int, help="let the planner pick s > N")
    _add_seed(sp)

    sp = sub.add_parser("idft", help="recover a polynomial file from an evaluation file")
    sp.add_argument("-i", "--input", required=True, metavar="EVALS")
    sp.add_argument("-o", "--output", required=True, metavar="POLY")
    sp.add_argument("-p", type=int, required=True, help="prime (evaluation files do not carry it)")
    sp.add_argument("-K", type=int, default=DEFAULT_K)
    _add_seed(sp)

    sp = sub.add_parser("mul", help="multiply two polynomial files exactly")
    sp.add_argument("inputs", nargs=2, metavar="POLY")
    sp.add_argument("-o", "--output", required=True, metavar="POLY")
    sp.add_argument("-p", type=int, help="override the files' prime")
    sp.add_argument("-K", type=int, help="override the files' precision")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("-s", type=int)
    group.add_argument("-N", type=int)
    _add_seed(sp)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--only", type=_criterion_numbers, default=None,
                    help="comma-separated criterion numbers, e.g. 1,6,10")

    sp = sub.add_parser("bench", help="planner sweep with instrumented transform counts")
    sp.add_argument("-p", type=int, default=3)
    sp.add_argument("-N", type=int, nargs="+", default=[100, 1000, 10000])
    sp.add_argument("-K", type=int, default=8, help="precision for the measured runs (default 8)")
    sp.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    sp.add_argument("--no-measure", action="store_true",
                    help="emit only the predicted columns")
    _add_seed(sp)
    return ap


def _cmd_plan(args) -> int:
    PadicContext(args.p, args.K)  # refuses a bad p or K, and a p^K past every exact product, before basis_routes
    res = choose_parameters(args.p, args.N)
    factors = " * ".join(f"{q}^{v}" if v > 1 else str(q) for q, v in res.s_factored.factors)
    print(f"p={res.p} N={res.N}")
    print(f"r={res.r}")
    print(f"s={res.s} = {factors}")
    print(f"d={res.d}")
    print("axes=" + " ".join(f"{g}:{dg}" for g, dg in subring_axes(res.p, res.s_factored)))
    routes = basis_routes(res.p, args.K, res.s_factored, res.d)
    if routes:
        print(f"basis=in:{routes[0]} out:{routes[1]}")
    print(f"predicted_mults={res.predicted_mults}")
    print(f"d_matches_prime_product={res.d_matches_prime_product}")
    print(f"small_d_regime={res.small_d_regime}")
    return 0


def _cmd_root(args) -> int:
    pipe = build_pipeline(args.p, args.K, s=args.s, seed=args.seed)
    d = pipe.d
    fbar = pipe.tower.modulus
    factor = expand_lifted_factor(pipe.plan.ring, pipe.plan.root)
    with polyio.int_digits(polyio.residue_digits(args.p, args.K)):
        lines = [f"f = {poly_text(fbar[:-1], monic_top=True, top_degree=d)}  (mod {args.p})",
                 f"F = {poly_text(factor[:-1], monic_top=True, top_degree=d)}  (mod {args.p}^{args.K})",
                 f"alpha = {pipe.plan.root}"]
    print("\n".join(lines))
    return 0


def _length_for(args, p: int, K: int, degree: int | None = None) -> FactoredOrder:
    """The transform length for -s, for -N, or else for the planner on degree; p and K are checked first."""
    PadicContext(p, K)
    if args.s is not None:
        return FactoredOrder.of(args.s)
    N = args.N if args.N is not None else max(1, degree)
    return choose_parameters(p, N).s_factored


def _cmd_dft(args) -> int:
    data = polyio.read_poly(args.input)
    p = args.p if args.p is not None else data.p
    K = args.K if args.K is not None else data.K
    s = _length_for(args, p, K, max(1, len(data.coeffs) - 1))
    if len(data.coeffs) > s.value:  # refused before the tower, the lift and the plan are built
        raise LengthMismatch(f"{len(data.coeffs)} coefficients do not fit in length {s.value}")
    plan = build_pipeline(p, K, s=s, seed=args.seed).plan
    xs = np.zeros((plan.s, plan.ring.degree), dtype=object)
    xs[: len(data.coeffs), 0] = data.coeffs
    evals = [tuple(v) for v in dft(xs, plan).tolist()]
    polyio.write_evals(args.output, polyio.EvalData(s=plan.s, d=plan.ring.degree, exp=data.exp, elements=evals))
    return 0


def _cmd_idft(args) -> int:
    PadicContext(args.p, args.K)
    data = polyio.read_evals(args.input, polyio.residue_digits(args.p, args.K))
    if data.s > 1 and data.s % args.p:  # else the build refuses s
        d = multiplicative_order(args.p, data.s)  # the ring's degree, known before the tower is built
        if d != data.d:
            raise LengthMismatch(f"file carries degree {data.d}, ring for (p={args.p}, s={data.s}) has {d}")
    plan = build_pipeline(args.p, args.K, s=data.s, seed=args.seed).plan
    out = idft(np.array(data.elements, dtype=object), plan)
    bad = np.flatnonzero((out[:, 1:] != 0).any(axis=1))
    if bad.size:
        raise CoefficientNotRational(f"coefficient {bad[0]} of the inverse transform is not in Z/p^K")
    polyio.write_poly(args.output, polyio.PolyData(p=args.p, K=args.K, exp=data.exp, coeffs=out[:, 0].tolist()))
    return 0


def _cmd_mul(args) -> int:
    a = polyio.read_poly(args.inputs[0])
    b = polyio.read_poly(args.inputs[1])
    if args.p is None and args.K is None and (a.p, a.K) != (b.p, b.K):
        raise FileFormatError(f"input headers disagree: {a.p} {a.K} vs {b.p} {b.K}")
    p = args.p if args.p is not None else a.p
    K = args.K if args.K is not None else a.K
    plan = None
    if args.s is not None or args.N is not None:
        plan = build_pipeline(p, K, s=_length_for(args, p, K), seed=args.seed).plan
    coeffs = poly_multiply(a.coeffs, b.coeffs, p, K, plan=plan, seed=args.seed)
    polyio.write_poly(args.output, polyio.PolyData(p=p, K=K, exp=a.exp + b.exp, coeffs=coeffs))
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(numbers=args.only)
    return 0 if results and all(r.passed for r in results) else 4


def _measured_count(p: int, K: int, N: int, seed: int) -> int:
    pipe = build_pipeline(p, K, N=N, seed=seed)
    plan = pipe.plan
    plan.ring.counter.reset()
    dft([plan.ring.zero()] * plan.s, plan)
    return plan.ring.counter.count


def _cmd_bench(args) -> int:
    rows = asymptotic_report(args.p, args.N)
    csv = report_csv(rows)
    if not args.no_measure:
        lines = csv.rstrip("\n").split("\n")
        counts = [_measured_count(args.p, args.K, row.N, args.seed) for row in rows]
        lines[0] += ",measured_mults"
        for i, c in enumerate(counts):
            lines[i + 1] += f",{c}"
        csv = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "root": _cmd_root,
    "dft": _cmd_dft,
    "idft": _cmd_idft,
    "mul": _cmd_mul,
    "selftest": _cmd_selftest,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout breaks here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # the reader wanted no more output; stdout goes to the null device so nothing is left to flush into the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FileFormatError as exc:
        print(f"error usage {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error usage OSError: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error precondition {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"error internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
