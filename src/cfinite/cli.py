"""Command-line front end.

Exit codes: 0 success (or verified / product / factor found), 1 for a
mathematically negative outcome (not found, not verified, not a product),
2 for usage or precondition errors and for a request that runs out of
memory, 3 for internal invariant violations.

Every verb is one entry of the table `_VERBS`: its run function, help
line, positionals and options.  `main` reads argv straight off that table
in one pass (`_read_argv`): an option is one of the command's own
(`--json`, `-h`/`--help`) until the verb is read and one of the verb's
after it, written `--name value` or `--name=value` under its name or any
unique prefix of it, and `--` ends the options.  A token that starts with
"-" and a digit is a value, since no option does.
A usage error prints its usage line, then `cfinite ...: error: ...`, and
exits 2.  Every verb prints through `_emit`: the text form, or the JSON
payload under `--json`.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

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
    if args.json:
        import json  # only --json needs it, so plain runs start without it

        text = json.dumps(payload)
    print(text)
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
    payload = {
        "verified": cert.verified,
        "order_bound": cert.order_bound,
        "terms_checked": cert.terms_checked,
        "statement": cert.statement,
    }
    return _emit(args, str(cert), payload, 0 if cert.verified else NEGATIVE)


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
    verdict = roots.is_prod_g(seq, _parse_orders(args.orders))
    payload = {
        "is_product": verdict.is_product,
        "orders": list(verdict.orders),
        **_profiles(verdict),
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
        pair = factor.factorize_integer(seq, L1, L2, args.bound)
    if pair is None:
        print("no factorization found", file=sys.stderr)
        return NEGATIVE
    payload = {
        "left": _seq_json(pair.left),
        "right": _seq_json(pair.right),
        "verified": pair.certificate.verified,
        "order_bound": pair.certificate.order_bound,
    }
    return _emit(args, str(pair), payload)


def _cmd_dimer(args) -> int:
    weights = (parse_rational(args.hweight), parse_rational(args.vweight))
    if not args.report_product:
        return _emit_values(args, dimers.dimer_terms(args.width, args.terms, weights))
    report = dimers.dimer_product_report(args.width, weights=weights)
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


# --- argv reader -------------------------------------------------------------

class _BadArgv(Exception):
    """A usage error in argv, with the usage line and the program name it is
    printed under: those of `verb`, or of the command itself when None."""

    def __init__(self, message: str, verb=None):
        super().__init__(message)
        self.usage, self.prog = (verb.usage, verb.prog) if verb else (_USAGE, "cfinite")


class _Arg:
    """One argument of a verb: a positional ("seq") or an option ("--orders").

    A positional takes nargs 1, "?", "*" or "+" values; an option takes one
    value (nargs 1) or none (nargs 0, a flag: False unless given).  Values
    are converted by `type` and checked against `choices`.
    """

    __slots__ = ("name", "dest", "type", "nargs", "default", "required", "choices", "help")

    def __init__(self, name, type=str, nargs=1, default=None, required=False,
                 choices=(), help=""):
        self.name, self.type, self.nargs, self.required = name, type, nargs, required
        self.dest = name.lstrip("-").replace("-", "_")
        self.default = False if nargs == 0 else () if nargs in ("*", "+") else default
        self.choices, self.help = tuple(choices), help

    @property
    def is_option(self) -> bool:
        return self.name[0] == "-"

    def usage(self) -> str:
        """The argument as its verb's usage line shows it."""
        meta = "{%s}" % ",".join(self.choices) if self.choices else None
        if not self.is_option:
            meta = meta or self.name
            return {1: meta, "?": f"[{meta}]", "*": f"[{meta} ...]",
                    "+": f"{meta} [{meta} ...]"}[self.nargs]
        text = self.name if self.nargs == 0 else f"{self.name} {meta or self.dest.upper()}"
        return text if self.required else f"[{text}]"

    def read(self, text: str, verb):
        """One value: `text` converted by type and checked against choices."""
        try:
            value = self.type(text)
        except ValueError:
            raise _BadArgv(
                f"argument {self.name}: invalid {self.type.__name__} value: {text!r}", verb
            ) from None
        if self.choices and value not in self.choices:
            raise _BadArgv(
                f"argument {self.name}: invalid choice: {value!r} "
                f"(choose from {', '.join(map(repr, self.choices))})",
                verb,
            )
        return value


_HELP = _Arg("--help", nargs=0, help="show this help and exit")
_JSON = _Arg("--json", nargs=0, help="machine-readable output")


class _Verb:
    """One verb: its run function, help line and arguments, in the order
    that a missing-argument error lists them."""

    __slots__ = ("name", "prog", "run", "help", "args", "options", "positionals",
                 "defaults", "usage")

    def __init__(self, name, run, help, *args):
        self.name, self.prog, self.run, self.help, self.args = (
            name, f"cfinite {name}", run, help, args
        )
        self.options = {"-h": _HELP, "--help": _HELP}
        self.options.update((a.name, a) for a in args if a.is_option)
        self.positionals = [a for a in args if not a.is_option]
        self.defaults = {a.dest: a.default for a in args}
        shown = [a.usage() for a in args if a.is_option] + [a.usage() for a in self.positionals]
        self.usage = " ".join(["usage:", self.prog, "[-h]", *shown])


_S1, _S2, _SEQ = _Arg("s1"), _Arg("s2"), _Arg("seq")
_ORDERS = _Arg("--orders", required=True, help="e.g. 2,2")
# factor's p-adic precision; isprod ignores it, kept for perfbench's isprod jobs
_DIGITS = _Arg("--digits", type=int, default=factor.DEFAULT_DIGITS)

_VERBS = {verb.name: verb for verb in [
    _Verb("guess", _cmd_guess, "guess a recurrence from terms",
          _Arg("terms", help="comma-separated rational terms"),
          _Arg("--max-order", type=int, default=12)),
    _Verb("terms", lambda a: _emit_values(a, eval_terms(_read_seq(a.seq), a.count)),
          "print the first N terms of a sequence", _SEQ, _Arg("count", type=int)),
    _Verb("add", lambda a: _emit_seq(a, guess.add(_read_seq(a.s1), _read_seq(a.s2))),
          "termwise sum", _S1, _S2),
    _Verb("mul", lambda a: _emit_seq(a, guess.mul(_read_seq(a.s1), _read_seq(a.s2))),
          "termwise (Hadamard) product", _S1, _S2),
    _Verb("bt", lambda a: _emit_seq(a, guess.binomial_transform(_read_seq(a.seq))),
          "binomial transform", _SEQ),
    _Verb("psum", lambda a: _emit_seq(a, guess.partial_sums(_read_seq(a.seq))),
          "partial sums", _SEQ),
    _Verb("subseq",
          lambda a: _emit_seq(a, guess.subsequence(_read_seq(a.seq), a.step, a.offset)),
          "arithmetic-progression subsequence", _SEQ, _Arg("step", type=int),
          _Arg("offset", type=int, nargs="?", default=0)),
    _Verb("gf", _cmd_gf, "convert sequence -> generating function or back "
          "(direction inferred from the literal)", _Arg("value")),
    _Verb("prove",
          lambda a: _emit_cert(a, guess.prove_equal(_read_seq(a.s1), _read_seq(a.s2))),
          "finite-check equality proof", _S1, _S2),
    _Verb("nlr", _cmd_nlr, "guess a polynomial (nonlinear) recurrence",
          _Arg("terms"), _Arg("--order", type=int, required=True),
          _Arg("--degree", type=int, required=True)),
    _Verb("indicator", _cmd_indicator, "generic product repetition profile",
          _Arg("orders", type=int, nargs="+")),
    _Verb("isprod", _cmd_isprod, "empirical product test", _SEQ, _ORDERS, _DIGITS),
    _Verb("factor", _cmd_factor, "factor into a termwise product", _SEQ,
          _Arg("--mode", choices=("roots", "integer"), default="roots"), _ORDERS,
          _Arg("--bound", type=int, default=3), _DIGITS),
    _Verb("dimer", _cmd_dimer, "domino tilings of width-M strips",
          _Arg("--width", type=int, required=True),
          _Arg("--terms", type=int, default=10), _Arg("--hweight", default="1"),
          _Arg("--vweight", default="1"), _Arg("--report-product", nargs=0)),
    _Verb("seq", _cmd_seq, "named sequence from the registry",
          _Arg("name", choices=corpus.names()), _Arg("params", nargs="*")),
    # the check reads exactly its order bound's coefficients; --terms is kept
    # for perfbench's interactive requests
    _Verb("verify-identity",
          lambda a: _emit_cert(a, guess.verify_parametric_identity(*_IDENTITIES[a.name])),
          "prove a built-in parametric identity", _Arg("name", choices=_IDENTITIES),
          _Arg("--terms", type=int, help="accepted and ignored")),
]}

_TOP_OPTIONS = {"-h": _HELP, "--help": _HELP, "--json": _JSON}
_USAGE = "usage: cfinite [-h] [--json] {%s} ..." % ",".join(_VERBS)
_DESCRIPTION = (
    "exact calculator and conjecture engine for linear recurrences with "
    "constant coefficients"
)


def _is_option(token: str) -> bool:
    """Whether an argv token is read as an option: it starts with "-" and is
    not "-" alone, a number such as -1,1 or -.5 (no option starts with a
    digit) or a text with a space in it."""
    return (
        token[:1] == "-"
        and len(token) > 1
        and not token[1].isdigit()
        and not (token[1] == "." and token[2:3].isdigit())
        and " " not in token
    )


def _option(options: dict, token: str, verb):
    """(arg, value) of an option token: the _Arg it names, exactly or by a
    unique prefix of a long name (None if it names none), and the text after
    "=" (None without one)."""
    name, eq, value = token.partition("=")
    arg = options.get(name)
    if arg is None and name[:2] == "--":
        hits = [s for s in options if s.startswith(name)]
        if len(hits) > 1:
            raise _BadArgv(f"ambiguous option: {token} could match {', '.join(hits)}", verb)
        if hits:
            arg = options[hits[0]]
    return arg, (value if eq else None)


def _help(verb=None) -> str:
    """The --help text of a verb, or of the command when verb is None."""
    if verb is None:
        usage, text = _USAGE, _DESCRIPTION
        rows = [(v.name, v.help) for v in _VERBS.values()] + [(_JSON.name, _JSON.help)]
    else:
        usage, text = verb.usage, verb.help
        rows = []
        for a in verb.args:
            notes = [a.help] if a.help else []
            if a.choices:
                notes.append(f"one of {', '.join(a.choices)}")
            if a.default not in (None, False):
                notes.append(f"default {a.default}")
            label = f"{a.name} {a.dest.upper()}" if a.is_option and a.nargs else a.name
            rows.append((label, "; ".join(notes)))
    rows.append(("-h, --help", _HELP.help))
    width = max(len(label) for label, _ in rows) + 2
    lines = [f"  {label:<{width}}{line}".rstrip() for label, line in rows]
    return "\n".join([usage, "", text, "", *lines])


def _read_argv(argv: list):
    """(run, args) for one command line, read off _VERBS; None once --help
    has printed its text.  Raises _BadArgv on a usage error.

    One pass over argv: an option is looked up among the command's own until
    the verb is read and among the verb's after it, read as `--name value`
    or `--name=value` under its name or any unique prefix of a long name,
    and `--` ends the options.  The first value is the verb; the verb's
    positionals are filled in order as they come: one value each, "?" one
    if given, and "*" or "+" (always last) every value left.
    """
    verb, options, values, extras, ended, p = None, _TOP_OPTIONS, {"json": False}, [], False, 0
    i, n = 0, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if ended or not _is_option(token):
            if verb is None:
                verb = _VERBS.get(token)
                if verb is None:  # the invalid-choice error of a verb argument
                    _Arg("verb", choices=_VERBS).read(token, None)
                options, positionals = verb.options, verb.positionals
                values.update(verb.defaults)
            elif p == len(positionals):
                extras.append(token)
            else:
                arg = positionals[p]
                value = arg.read(token, verb)
                if arg.nargs in ("*", "+"):
                    values[arg.dest] = [*values[arg.dest], value]
                else:
                    values[arg.dest] = value
                    p += 1
            continue
        if token == "--":
            ended = True
            continue
        arg, value = _option(options, token, verb)
        if arg is None:
            extras.append(token)
            continue
        if arg is _HELP:
            print(_help(verb))
            return None
        if arg.nargs == 0:
            if value is not None:
                raise _BadArgv(f"argument {arg.name}: ignored explicit argument {value!r}", verb)
            value = True
        else:
            if value is None:
                if i == n or _is_option(argv[i]):
                    raise _BadArgv(f"argument {arg.name}: expected one argument", verb)
                value = argv[i]
                i += 1
            value = arg.read(value, verb)
        values[arg.dest] = value
    if verb is None:
        raise _BadArgv("the following arguments are required: verb")
    # the first positional short of a value and every later one but a "?"
    # are missing; a required option has no default, and no value read is None
    first = positionals[p] if p < len(positionals) else None
    short = first and (first.nargs == 1 or first.nargs == "+" and not values[first.dest])
    unfilled = positionals[p:] if short else ()
    missing = [
        a.name for a in verb.args
        if a in unfilled and a.nargs != "?" or a.required and values[a.dest] is None
    ]
    if missing:
        raise _BadArgv(f"the following arguments are required: {', '.join(missing)}", verb)
    if extras:
        raise _BadArgv(f"unrecognized arguments: {' '.join(extras)}")
    return verb.run, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        read = _read_argv(sys.argv[1:] if argv is None else argv)
    except _BadArgv as exc:
        print(exc.usage, file=sys.stderr)
        print(f"{exc.prog}: error: {exc}", file=sys.stderr)
        return USAGE
    if read is None:
        return 0
    run, args = read
    # exact integers of any length: lift the interpreter's int-to-string limit
    # for this run only, so library and in-process callers keep their own
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if getattr(args, "digits", 1) < 1:
            raise UsageError(f"--digits must be >= 1, got {args.digits}")
        return run(args)
    except (UsageError, corpus.UnknownSequenceError, corpus.ArityMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return USAGE
    except (
        ValueError,
        roots.DegenerateRootsError,
        roots.PrecisionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except MemoryError:
        print("error: out of memory; ask for fewer or smaller terms", file=sys.stderr)
        return USAGE
    except guess.InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
