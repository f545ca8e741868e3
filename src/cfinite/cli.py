"""Command-line front end.

Exit codes: 0 success (or verified / product / factor found), 1 for a
mathematically negative outcome (not found, not verified, not a product),
2 for usage or precondition errors, 3 for internal invariant violations.

Every verb is one entry in the table of `build_parser` and prints through
`_emit`: the text form, or the JSON payload under `--json`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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


def _parse_orders(text: str):
    try:
        orders = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad order list: {text!r}")
    if not orders:
        raise UsageError("empty order list")
    return orders


def _emit(args, text: str, payload, code: int = 0) -> int:
    """Print `text`, or `payload` as JSON under --json; return `code`."""
    print(json.dumps(payload) if args.json else text)
    return code


def _rationals(values) -> list:
    return [format_rational(v) for v in values]


def _seq_json(seq: CFiniteSeq) -> dict:
    return {"init": _rationals(seq.init), "rec": _rationals(seq.rec)}


def _emit_seq(args, seq: CFiniteSeq) -> int:
    return _emit(args, format_seq(seq), _seq_json(seq))


def _emit_values(args, values) -> int:
    shown = _rationals(values)
    return _emit(args, ", ".join(shown), shown)


def _emit_cert(args, cert: guess.ProofCertificate) -> int:
    head = f"order bound: {cert.order_bound}\nterms compared: {cert.terms_checked}\n"
    text = (head if args.verbose else "") + str(cert)
    payload = {
        "verified": cert.verified,
        "order_bound": cert.order_bound,
        "terms_checked": cert.terms_checked,
        "statement": cert.statement,
    }
    return _emit(args, text, payload, 0 if cert.verified else NEGATIVE)


def _profiles(verdict) -> dict:
    """The expected and observed repetition profiles of a product verdict."""
    if verdict is None:
        return {"expected": None, "observed": None}
    return {
        "expected": list(verdict.expected.multiplicities),
        "observed": list(verdict.observed.multiplicities),
    }


# --- verb implementations ----------------------------------------------------

def _cmd_guess(args) -> int:
    cfg = guess.GuessConfig(max_order=args.max_order)
    found = guess.guess_rec(_read_terms(args.terms), cfg)
    if found is None:
        print("no linear recurrence found", file=sys.stderr)
        return NEGATIVE
    return _emit_seq(args, found)


def _cmd_gf(args) -> int:
    text = args.value.strip()
    if text.startswith("[") or text.startswith("@"):
        result = gf.c_to_r(_read_seq(text))
        payload = {
            "numerator": _rationals(result.num.coeffs),
            "denominator": _rationals(result.den.coeffs),
        }
        return _emit(args, gf.format_gf(result), payload)
    try:
        parsed = gf.parse_gf(text)
    except ValueError as exc:
        raise UsageError(str(exc))
    return _emit_seq(args, gf.r_to_c(parsed))


def _cmd_nlr(args) -> int:
    rel = guess.guess_nlr(_read_terms(args.terms), args.order, args.degree)
    if rel is None:
        print("no polynomial relation found", file=sys.stderr)
        return NEGATIVE
    payload = {
        "order": rel.order,
        "degree": rel.degree,
        "support": [list(e) for e in rel.support],
        "coefficients": list(rel.coefficients),
        "text": str(rel),
    }
    return _emit(args, str(rel), payload)


def _cmd_indicator(args) -> int:
    profile = roots.prod_indicator(args.orders)
    return _emit(args, str(profile), list(profile.multiplicities))


def _cmd_isprod(args) -> int:
    seq = _read_seq(args.seq)
    verdict = roots.is_prod_g(seq, _parse_orders(args.orders), args.digits)
    payload = {
        "is_product": verdict.is_product,
        "orders": list(verdict.orders),
        **_profiles(verdict),
        "digits": verdict.digits,
    }
    return _emit(args, str(verdict), payload, 0 if verdict.is_product else NEGATIVE)


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
    payload = {
        "left": _seq_json(pair.left),
        "right": _seq_json(pair.right),
        "normalization": pair.normalization,
        "verified": pair.certificate.verified,
        "order_bound": pair.certificate.order_bound,
    }
    return _emit(args, str(pair), payload)


def _cmd_dimer(args) -> int:
    weights = (parse_rational(args.hweight), parse_rational(args.vweight))
    if not args.report_product:
        return _emit_values(args, dimers.dimer_terms(args.width, args.terms, weights))
    report = dimers.dimer_product_report(args.width, args.digits, weights)
    verdict = report.verdict
    payload = {
        "width": report.width,
        "minimal_order": report.minimal_order,
        "sequence": _seq_json(report.seq),
        "applicable": report.applicable,
        "is_product": verdict.is_product if verdict else None,
        "factor_orders": list(report.factor_orders),
        **_profiles(verdict),
        "note": report.note,
    }
    if not report.applicable:
        code = USAGE
    else:
        code = 0 if verdict.is_product else NEGATIVE
    return _emit(args, str(report), payload, code)


def _cmd_seq(args) -> int:
    params = [parse_rational(p) for p in args.params]
    return _emit_seq(args, corpus.lookup(args.name, params))


# name -> (left-hand side, generating function): point builders that carry
# their identity's form in Z[params]
_IDENTITIES = {
    "shapiro": (corpus.shapiro_product_lhs, corpus.shapiro_product_gf),
    "ekhad": (corpus.ekhad_product_lhs, corpus.ekhad_product_gf),
}


def _cmd_verify_identity(args) -> int:
    lhs, rhs = _IDENTITIES[args.name]
    return _emit_cert(args, guess.verify_parametric_identity(lhs, rhs, series_terms=args.terms))


# --- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built on the first call and shared after it.

    Each `main` call reuses it: argparse keeps no state from one parse to the
    next and looks up `sys.stdout` and `sys.stderr` only when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="cfinite",
        description="exact calculator and conjecture engine for linear "
        "recurrences with constant coefficients",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="verb", required=True)

    def arg(*flags, **options):
        return flags, options

    def verb(name, run, text, *arguments):
        p = sub.add_parser(name, help=text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(run=run)

    s1, s2, seq = arg("s1"), arg("s2"), arg("seq")
    orders = arg("--orders", required=True, help="e.g. 2,2")
    digits = arg("--digits", type=int, default=roots.DEFAULT_DIGITS)
    verbose = arg("--verbose", action="store_true")

    verb("guess", _cmd_guess, "guess a recurrence from terms",
         arg("terms", help="comma-separated rational terms"),
         arg("--max-order", type=int, default=12))
    verb("terms", lambda a: _emit_values(a, eval_terms(_read_seq(a.seq), a.count)),
         "print the first N terms of a sequence", seq, arg("count", type=int))
    verb("add", lambda a: _emit_seq(a, guess.add(_read_seq(a.s1), _read_seq(a.s2))),
         "termwise sum", s1, s2)
    verb("mul", lambda a: _emit_seq(a, guess.mul(_read_seq(a.s1), _read_seq(a.s2))),
         "termwise (Hadamard) product", s1, s2)
    verb("bt", lambda a: _emit_seq(a, guess.binomial_transform(_read_seq(a.seq))),
         "binomial transform", seq)
    verb("psum", lambda a: _emit_seq(a, guess.partial_sums(_read_seq(a.seq))),
         "partial sums", seq)
    verb("subseq",
         lambda a: _emit_seq(a, guess.subsequence(_read_seq(a.seq), a.step, a.offset)),
         "arithmetic-progression subsequence", seq, arg("step", type=int),
         arg("offset", type=int, nargs="?", default=0))
    verb("gf", _cmd_gf, "convert sequence -> generating function or back "
         "(direction inferred from the literal)", arg("value"))
    verb("prove",
         lambda a: _emit_cert(a, guess.prove_equal(_read_seq(a.s1), _read_seq(a.s2))),
         "finite-check equality proof", s1, s2, verbose)
    verb("nlr", _cmd_nlr, "guess a polynomial (nonlinear) recurrence",
         arg("terms"), arg("--order", type=int, required=True),
         arg("--degree", type=int, required=True))
    verb("indicator", _cmd_indicator, "generic product repetition profile",
         arg("orders", type=int, nargs="+"))
    verb("isprod", _cmd_isprod, "empirical product test", seq, orders, digits)
    verb("factor", _cmd_factor, "factor into a termwise product", seq,
         arg("--mode", choices=("roots", "integer"), default="roots"), orders,
         arg("--bound", type=int, default=3),
         arg("--budget", type=float, default=60.0), digits)
    verb("dimer", _cmd_dimer, "domino tilings of width-M strips",
         arg("--width", type=int, required=True),
         arg("--terms", type=int, default=10), arg("--hweight", default="1"),
         arg("--vweight", default="1"),
         arg("--report-product", action="store_true"), digits)
    verb("seq", _cmd_seq, "named sequence from the registry",
         arg("name", choices=corpus.names()), arg("params", nargs="*"))
    verb("verify-identity", _cmd_verify_identity,
         "prove a built-in parametric identity",
         arg("name", choices=_IDENTITIES), arg("--terms", type=int, default=20),
         verbose)
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
    # exact integers of any length: lift the interpreter's int-to-string limit
    # for this run only, so library and in-process callers keep their own
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if getattr(args, "digits", 1) < 1:
            raise UsageError(f"--digits must be >= 1, got {args.digits}")
        return args.run(args)
    except (UsageError, corpus.UnknownSequenceError, corpus.ArityMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE
    except (
        ValueError,
        roots.DegenerateRootsError,
        roots.PrecisionError,
        factor.BudgetExhausted,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except guess.InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
