"""Command-line front end.

Exit codes: 0 success (or verified / product / factor found), 1 for a
mathematically negative outcome (not found, not verified, not a product),
2 for usage or precondition errors, 3 for internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import corpus, dimers, factor, gf, guess, roots
from .core import (
    CFiniteSeq,
    eval_terms,
    format_rational,
    format_seq,
    parse_rational,
    parse_seq,
)

NEGATIVE = 1
USAGE = 2
INTERNAL = 3


class UsageError(ValueError):
    pass


def _default_digits() -> int:
    raw = os.environ.get("CFINITE_DIGITS")
    if raw is None:
        return roots.DEFAULT_DIGITS
    try:
        digits = int(raw)
    except ValueError:
        raise UsageError(f"CFINITE_DIGITS must be an integer, got {raw!r}")
    if digits < 1:
        raise UsageError(f"CFINITE_DIGITS must be >= 1, got {digits}")
    return digits


def _read_seq(text: str) -> CFiniteSeq:
    """A sequence literal, or @path to a file of literals (first one used)."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    return parse_seq(line)
        raise UsageError(f"no sequence literal found in {text[1:]}")
    try:
        return parse_seq(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _read_terms(text: str):
    try:
        return [parse_rational(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"bad term list: {exc}")


def _seq_json(seq: CFiniteSeq) -> dict:
    return {
        "init": [format_rational(d) for d in seq.init],
        "rec": [format_rational(c) for c in seq.rec],
    }


def _emit_seq(seq: CFiniteSeq, args) -> int:
    if args.json:
        print(json.dumps(_seq_json(seq)))
    else:
        print(format_seq(seq))
    return 0


def _emit_cert(cert: guess.ProofCertificate, args, verbose=False) -> int:
    if args.json:
        print(
            json.dumps(
                {
                    "verified": cert.verified,
                    "order_bound": cert.order_bound,
                    "terms_checked": cert.terms_checked,
                    "statement": cert.statement,
                }
            )
        )
    else:
        if verbose:
            print(f"order bound: {cert.order_bound}")
            print(f"terms compared: {cert.terms_checked}")
        print(str(cert))
    return 0 if cert.verified else NEGATIVE


# --- verb implementations ----------------------------------------------------

def _cmd_guess(args) -> int:
    terms = _read_terms(args.terms)
    cfg = guess.GuessConfig(max_order=args.max_order)
    found = guess.guess_rec(terms, cfg)
    if found is None:
        print("no linear recurrence found", file=sys.stderr)
        return NEGATIVE
    return _emit_seq(found, args)


def _cmd_terms(args) -> int:
    seq = _read_seq(args.seq)
    values = eval_terms(seq, args.count)
    if args.json:
        print(json.dumps([format_rational(v) for v in values]))
    else:
        print(", ".join(format_rational(v) for v in values))
    return 0


def _binary(op):
    def run(args):
        return _emit_seq(op(_read_seq(args.s1), _read_seq(args.s2)), args)

    return run


def _cmd_bt(args) -> int:
    return _emit_seq(guess.binomial_transform(_read_seq(args.seq)), args)


def _cmd_psum(args) -> int:
    return _emit_seq(guess.partial_sums(_read_seq(args.seq)), args)


def _cmd_subseq(args) -> int:
    return _emit_seq(
        guess.subsequence(_read_seq(args.seq), args.step, args.offset), args
    )


def _cmd_gf(args) -> int:
    text = args.value.strip()
    if text.startswith("[") or text.startswith("@"):
        result = gf.c_to_r(_read_seq(text))
        if args.json:
            print(
                json.dumps(
                    {
                        "numerator": [format_rational(c) for c in result.num.coeffs],
                        "denominator": [format_rational(c) for c in result.den.coeffs],
                    }
                )
            )
        else:
            print(gf.format_gf(result))
        return 0
    try:
        parsed = gf.parse_gf(text)
    except ValueError as exc:
        raise UsageError(str(exc))
    return _emit_seq(gf.r_to_c(parsed), args)


def _cmd_prove(args) -> int:
    cert = guess.prove_equal(_read_seq(args.s1), _read_seq(args.s2))
    return _emit_cert(cert, args, verbose=args.verbose)


def _cmd_nlr(args) -> int:
    terms = _read_terms(args.terms)
    rel = guess.guess_nlr(terms, args.order, args.degree)
    if rel is None:
        print("no polynomial relation found", file=sys.stderr)
        return NEGATIVE
    if args.json:
        print(
            json.dumps(
                {
                    "order": rel.order,
                    "degree": rel.degree,
                    "support": [list(e) for e in rel.support],
                    "coefficients": list(rel.coefficients),
                    "text": str(rel),
                }
            )
        )
    else:
        print(str(rel))
    return 0


def _cmd_indicator(args) -> int:
    profile = roots.prod_indicator(args.orders)
    if args.json:
        print(json.dumps(list(profile.multiplicities)))
    else:
        print(str(profile))
    return 0


def _parse_orders(text: str):
    try:
        orders = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad order list: {text!r}")
    if not orders:
        raise UsageError("empty order list")
    return orders


def _cmd_isprod(args) -> int:
    seq = _read_seq(args.seq)
    orders = _parse_orders(args.orders)
    verdict = roots.is_prod_g(seq, orders, args.digits)
    if args.json:
        print(
            json.dumps(
                {
                    "is_product": verdict.is_product,
                    "orders": list(verdict.orders),
                    "expected": list(verdict.expected.multiplicities),
                    "observed": list(verdict.observed.multiplicities),
                    "digits": verdict.digits,
                }
            )
        )
    else:
        print(str(verdict))
    return 0 if verdict.is_product else NEGATIVE


def _cmd_factor(args) -> int:
    seq = _read_seq(args.seq)
    orders = _parse_orders(args.orders)
    if len(orders) != 2:
        raise UsageError("factor needs exactly two orders, e.g. --orders 2,2")
    L1, L2 = orders
    if args.mode == "roots":
        pair = factor.factorize_roots(seq, L1, L2, args.digits)
    else:
        pair = factor.factorize_integer(seq, L1, L2, args.bound, args.budget)
    if pair is None:
        print("no factorization found", file=sys.stderr)
        return NEGATIVE
    if args.json:
        print(
            json.dumps(
                {
                    "left": _seq_json(pair.left),
                    "right": _seq_json(pair.right),
                    "normalization": pair.normalization,
                    "verified": pair.certificate.verified,
                    "order_bound": pair.certificate.order_bound,
                }
            )
        )
    else:
        print(str(pair))
    return 0


def _cmd_dimer(args) -> int:
    weights = (parse_rational(args.hweight), parse_rational(args.vweight))
    if args.report_product:
        report = dimers.dimer_product_report(args.width, args.digits, weights)
        if args.json:
            print(
                json.dumps(
                    {
                        "width": report.width,
                        "minimal_order": report.minimal_order,
                        "sequence": _seq_json(report.seq),
                        "applicable": report.applicable,
                        "is_product": (
                            report.verdict.is_product if report.verdict else None
                        ),
                        "factor_orders": list(report.factor_orders),
                        "expected": (
                            list(report.verdict.expected.multiplicities)
                            if report.verdict
                            else None
                        ),
                        "observed": (
                            list(report.verdict.observed.multiplicities)
                            if report.verdict
                            else None
                        ),
                        "note": report.note,
                    }
                )
            )
        else:
            print(str(report))
        if not report.applicable:
            return USAGE
        return 0 if report.verdict.is_product else NEGATIVE
    values = dimers.dimer_terms(args.width, args.terms, weights)
    if args.json:
        print(json.dumps([format_rational(v) for v in values]))
    else:
        print(", ".join(format_rational(v) for v in values))
    return 0


def _cmd_seq(args) -> int:
    params = [parse_rational(p) for p in args.params]
    return _emit_seq(corpus.lookup(args.name, params), args)


_IDENTITY_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


def _cmd_verify_identity(args) -> int:
    if args.name == "shapiro":
        cert = guess.verify_parametric_identity(
            corpus.shapiro_product_lhs,
            corpus.shapiro_product_gf,
            [2, 2],
            args.terms,
            grids=[_IDENTITY_GRID, _IDENTITY_GRID],
        )
    else:
        cert = guess.verify_parametric_identity(
            corpus.ekhad_product_lhs,
            corpus.ekhad_product_gf,
            [2, 2, 2],
            args.terms,
            grids=[_IDENTITY_GRID] * 3,
        )
    return _emit_cert(cert, args, verbose=args.verbose)


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfinite",
        description="exact calculator and conjecture engine for linear "
        "recurrences with constant coefficients",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("guess", help="guess a recurrence from terms")
    p.add_argument("terms", help="comma-separated rational terms")
    p.add_argument("--max-order", type=int, default=12)
    p.set_defaults(run=_cmd_guess)

    p = sub.add_parser("terms", help="print the first N terms of a sequence")
    p.add_argument("seq")
    p.add_argument("count", type=int)
    p.set_defaults(run=_cmd_terms)

    for verb, op, text in (
        ("add", guess.add, "termwise sum"),
        ("mul", guess.mul, "termwise (Hadamard) product"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("s1")
        p.add_argument("s2")
        p.set_defaults(run=_binary(op))

    p = sub.add_parser("bt", help="binomial transform")
    p.add_argument("seq")
    p.set_defaults(run=_cmd_bt)

    p = sub.add_parser("psum", help="partial sums")
    p.add_argument("seq")
    p.set_defaults(run=_cmd_psum)

    p = sub.add_parser("subseq", help="arithmetic-progression subsequence")
    p.add_argument("seq")
    p.add_argument("step", type=int)
    p.add_argument("offset", type=int, nargs="?", default=0)
    p.set_defaults(run=_cmd_subseq)

    p = sub.add_parser(
        "gf",
        help="convert sequence -> generating function or back "
        "(direction inferred from the literal)",
    )
    p.add_argument("value")
    p.set_defaults(run=_cmd_gf)

    p = sub.add_parser("prove", help="finite-check equality proof")
    p.add_argument("s1")
    p.add_argument("s2")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(run=_cmd_prove)

    p = sub.add_parser("nlr", help="guess a polynomial (nonlinear) recurrence")
    p.add_argument("terms")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(run=_cmd_nlr)

    p = sub.add_parser("indicator", help="generic product repetition profile")
    p.add_argument("orders", type=int, nargs="+")
    p.set_defaults(run=_cmd_indicator)

    p = sub.add_parser("isprod", help="empirical product test")
    p.add_argument("seq")
    p.add_argument("--orders", required=True, help="e.g. 2,2")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(run=_cmd_isprod)

    p = sub.add_parser("factor", help="factor into a termwise product")
    p.add_argument("seq")
    p.add_argument("--mode", choices=("roots", "integer"), default="roots")
    p.add_argument("--orders", required=True, help="e.g. 2,2")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--budget", type=float, default=60.0)
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(run=_cmd_factor)

    p = sub.add_parser("dimer", help="domino tilings of width-M strips")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--hweight", default="1")
    p.add_argument("--vweight", default="1")
    p.add_argument("--report-product", action="store_true")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(run=_cmd_dimer)

    p = sub.add_parser("seq", help="named sequence from the registry")
    p.add_argument("name", choices=corpus.names())
    p.add_argument("params", nargs="*")
    p.set_defaults(run=_cmd_seq)

    p = sub.add_parser(
        "verify-identity", help="grid-verify a built-in parametric identity"
    )
    p.add_argument("name", choices=("shapiro", "ekhad"))
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(run=_cmd_verify_identity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # no option starts with a digit, so "-1,1" or "-1/2" is a value; a leading
    # space stops argparse reading it as an option (the parsers strip it)
    argv = sys.argv[1:] if argv is None else argv
    argv = [" " + a if a[:1] == "-" and a[1:2].isdigit() else a for a in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep that contract
        return exc.code if exc.code else 0
    try:
        if hasattr(args, "digits"):
            if args.digits is None:
                args.digits = _default_digits()
            elif args.digits < 1:
                raise UsageError(f"--digits must be >= 1, got {args.digits}")
        return args.run(args)
    except (UsageError, corpus.UnknownSequenceError, corpus.ArityMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE
    except (
        ValueError,
        roots.OrderMismatchError,
        roots.DegenerateRootsError,
        factor.PrecisionError,
        factor.BudgetExhausted,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except guess.InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
