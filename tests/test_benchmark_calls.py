"""The call shapes perfbench (workloads.py, warmup.py) sends the package.

Some of them pass parameters the package accepts and ignores (`digits` of
the product test and of the strip report, `budget` of the integer
factoriser, `param_degrees` and `series_terms` of the identity check).
Each is dropped together with the benchmark's use of it; until then this
test fails if one goes first.  The two such CLI options are pinned by
golden rows in tests/test_cli_golden.py, text and --json:
`isprod --digits 40` prints the bytes of the request without it, and
`verify-identity shapiro --terms 12` those of `--terms 8`; every --terms
value is checked in tests/test_cli.py.
"""

from cfinite import corpus, dimers, factor, guess, roots
from cfinite.core import CFiniteSeq

FIB_PELL = CFiniteSeq([0, 1, 2, 10], [2, 7, 2, -1])


def test_benchmark_call_shapes():
    for digits in (30, 50, 100):
        assert roots.is_prod_g(FIB_PELL, (2, 2), digits).is_product
    assert dimers.dimer_product_report(2, digits=30).applicable
    assert guess.verify_parametric_identity(
        corpus.shapiro_product_lhs, corpus.shapiro_product_gf, [2, 2], 4
    ).verified
    # the products workload's integer job, then the traced primer's call
    for bound, extra in ((2, {"budget": 1e6}), (1, {})):
        stats = {}
        assert factor.factorize_integer(FIB_PELL, 2, 2, bound, **extra, stats=stats)
        assert stats["candidates"] >= 1
