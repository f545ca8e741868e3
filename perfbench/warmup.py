"""One fixed warm-up call into each layer a workload uses; the set-up probe.

Run as a script, `python3 perfbench/warmup.py <workload>` times, from the
start of a fresh interpreter, `import cfinite, cfinite.cli` plus the
warm-up calls of that workload's layers.  It prints the seconds, then the
seconds of each calibration slice run after them (calib.py), one line of
JSON.  The interpreter must find cfinite on its path (run.py sets
PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

LAYERS = {
    "closure": ("core", "linalg", "gf", "guess"),
    "products": ("core", "linalg", "gf", "guess", "roots", "factor"),
    "dimers": ("core", "linalg", "gf", "guess", "roots", "dimers"),
    "interactive": ("core", "linalg", "gf", "guess", "roots", "dimers", "cli"),
}


def _cli_guess():
    from cfinite import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["guess", "0,1,1,2,3,5,8,13"])


def warm(workload):
    warm_layers(LAYERS[workload])


def warm_layers(layers):
    from cfinite import dimers, factor, gf, guess, linalg, roots
    from cfinite.core import CFiniteSeq, Polynomial, eval_at

    fib = CFiniteSeq([0, 1], [1, 1])
    fib_pell = CFiniteSeq([0, 1, 2, 10], [2, 7, 2, -1])
    calls = {
        "core": lambda: (eval_at(fib, 50), Polynomial([1, 1]) * Polynomial([1, -1])),
        "linalg": lambda: linalg.solve([[1, 1], [1, 2]], [1, 2]),
        "gf": lambda: gf.r_to_c(gf.c_to_r(fib)),
        "guess": lambda: guess.mul(fib, fib),
        "roots": lambda: roots.is_prod_g(fib_pell, (2, 2), 30),
        "factor": lambda: factor.factorize_roots(fib_pell, 2, 2, 30),
        "dimers": lambda: (dimers.dimer_seq(2), dimers.kasteleyn_count(2, 2)),
        "cli": _cli_guess,
    }
    for layer in layers:
        calls[layer]()


def prime_every_span():
    """Before a traced pass: the warm-up of every layer, plus one small call
    of each traced function those calls miss, so that no per-layer figure is
    a structural 0 on a workload that never calls that function."""
    from cfinite import corpus, dimers, factor, guess
    from cfinite.core import CFiniteSeq, eval_terms

    warm_layers(("core", "linalg", "gf", "guess", "roots", "factor", "dimers", "cli"))
    fib = CFiniteSeq([0, 1], [1, 1])
    guess.guess_nlr(eval_terms(fib, 17), 1, 2)
    guess.verify_parametric_identity(
        corpus.shapiro_product_lhs, corpus.shapiro_product_gf, [2, 2], 4
    )
    factor.factorize_integer(CFiniteSeq([0, 1, 2, 10], [2, 7, 2, -1]), 2, 2, 1, stats={})
    dimers.dimer_product_report(2, digits=30)


if __name__ == "__main__":
    t0 = time.perf_counter()
    import cfinite  # noqa: F401
    import cfinite.cli  # noqa: F401

    warm(sys.argv[1])
    setup = time.perf_counter() - t0
    import calib  # after the clock stops: not part of the set-up

    print(json.dumps({"setup_s": setup, "calibration_s": calib.seconds(5)}))
