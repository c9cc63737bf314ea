from fractions import Fraction

import pytest

from qshuffle import bases
from qshuffle.bases import pi_basis, sigma_basis
from qshuffle.factorization import (
    PAIRS,
    GradedTensorSeries,
    _exp_factor,
    character_checks,
    diagonal,
    factorized_product,
    lyndon_decreasing,
    verify_factorization,
)
from qshuffle.ncpoly import NCPolynomial, add_into, shuffle_words, stuffle_words
from qshuffle.words import Word


def test_diagonal_small():
    d0 = diagonal(0, "stuffle")
    assert d0.terms == {(Word(), Word()): Fraction(1)}
    d1 = diagonal(1, "stuffle")
    assert set(d1.terms) == {(Word(), Word()), (Word((1,)), Word((1,)))}
    d2 = diagonal(2, "shuffle")
    assert len(d2.terms) == 4
    assert d2.coeff(Word((1, 1)), Word((1, 1))) == 1
    assert d2.coeff(Word((2,)), Word((2,))) == 1


def test_lyndon_decreasing_order():
    got = [w.letters for w in lyndon_decreasing(3)]
    assert got == [(1,), (2, 1), (2,), (3,)]


def test_factorized_product_weight_2_quasi_shuffle():
    assert factorized_product(2, "stuffle") == diagonal(2, "stuffle")


def test_factorized_product_weight_0():
    for pair in PAIRS:
        got = factorized_product(0, pair)
        assert got.terms == {(Word(), Word()): Fraction(1)}


def test_all_pairs_verify_at_weight_3():
    for pair in PAIRS:
        ok, report = verify_factorization(3, pair)
        assert ok and report == [], pair


def test_all_pairs_verify_at_weight_5():
    for pair in PAIRS:
        ok, report = verify_factorization(5, pair)
        assert ok and report == [], pair


def test_negative_control_families_mismatch():
    ok, report = verify_factorization(3, "stuffle", negative_control=True)
    assert not ok and report
    # first failure already at weight 2
    u, v, a, b = report[0]
    assert u.weight == 2 and v.weight == 2
    ok, report = verify_factorization(3, "shuffle", negative_control=True)
    assert not ok and report


def test_negative_control_swapped_left_product():
    got = factorized_product(2, "stuffle", left_kind="shuffle")
    assert got != diagonal(2, "stuffle")
    diffs = diagonal(2, "stuffle").discrepancies(got)
    assert diffs and diffs[0][0].weight == 2


def test_ordered_product_regrouping():
    # splitting the Lyndon product into two consecutive sub-products and
    # multiplying the partial results gives the same truncated series
    n = 4
    full = factorized_product(n, "stuffle")
    ls = lyndon_decreasing(n)
    cut = len(ls) // 2
    first = GradedTensorSeries.unit(n, "stuffle")
    for l in ls[:cut]:
        first = first * _exp_factor(sigma_basis(l), pi_basis(l), n, "stuffle")
    second = GradedTensorSeries.unit(n, "stuffle")
    for l in ls[cut:]:
        second = second * _exp_factor(sigma_basis(l), pi_basis(l), n, "stuffle")
    assert first * second == full


def _all_pairs_product(a: GradedTensorSeries, b: GradedTensorSeries) -> dict:
    # the literal product: every pair of terms, kept when both the left and
    # the right weight stay within the bound; the oracle for the bucketed `*`
    bound = min(a.bound, b.bound)
    kernel = shuffle_words if a.left_kind == "shuffle" else stuffle_words
    out: dict = {}
    for (u1, v1), c1 in a.terms.items():
        for (u2, v2), c2 in b.terms.items():
            if u1.weight + u2.weight <= bound and v1.weight + v2.weight <= bound:
                left = kernel(u1.letters, u2.letters)
                add_into(out, [((Word(u), v1 * v2), n) for u, n in left], c1 * c2)
    return out


def test_product_matches_the_all_pairs_oracle_along_the_factorization():
    for pair in PAIRS:
        dual, primal, kind = bases.PAIRS[pair]
        for n in range(1, 6):
            acc = GradedTensorSeries.unit(n, kind)
            for l in lyndon_decreasing(n):
                values = (bases.basis_element(f, l).value for f in (dual, primal))
                factor = _exp_factor(*values, n, kind)
                expected = _all_pairs_product(acc, factor)
                acc = acc * factor
                assert acc.terms == expected, (pair, n, l)
            assert acc == diagonal(n, kind)


def test_product_matches_the_all_pairs_oracle_on_unequal_weights():
    # terms whose left and right weights differ, so that some pairs are
    # dropped by the left weight alone and others by the right weight alone
    def series(terms, bound, kind):
        return GradedTensorSeries(
            {(Word(u), Word(v)): Fraction(c) for (u, v), c in terms.items()}, bound, kind
        )

    a_terms = {((), ()): 1, ((1,), (2, 1)): 2, ((3,), ()): -1, ((), (1, 1, 1)): "1/2", ((2,), (1,)): 3}
    b_terms = {((1,), (2,)): "-2/3", ((2,), ()): 1, ((), (3,)): 5, ((1, 1), (1, 1)): -1}
    for kind in ("shuffle", "stuffle"):
        for bound in range(0, 7):
            a, b = series(a_terms, bound, kind), series(b_terms, bound + 1, kind)
            for x, y in ((a, b), (b, a), (a, a), (b, b)):
                assert (x * y).terms == _all_pairs_product(x, y), (kind, bound)



def test_graded_tensor_series_guards():
    with pytest.raises(ValueError):
        GradedTensorSeries({}, 3, "concat")
    a = GradedTensorSeries.unit(3, "shuffle")
    b = GradedTensorSeries.unit(3, "stuffle")
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        factorized_product(2, "sh")
    with pytest.raises(ValueError):
        verify_factorization(2, "sh")


def test_discrepancy_report_is_sorted_and_bounded():
    target = diagonal(4, "stuffle")
    got = GradedTensorSeries.unit(4, "stuffle")
    report = target.discrepancies(got, limit=5)
    assert len(report) == 5
    keys = [(u.weight, u.letters, v.weight, v.letters) for u, v, _, _ in report]
    assert keys == sorted(keys)


def test_character_checks_weight_3():
    results = character_checks(3)
    assert [name for name, _, _ in results] == [
        "character-morphism",
        "log-series",
        "closing-identity-stuffle",
        "closing-identity-L",
        "closing-identity-R",
    ]
    assert all(ok for _, ok, _ in results)


def test_character_property_spot_example():
    # the weight-2 case by hand: encode(y1 st y1) = 2 M_(1,1) + M_(2)
    from qshuffle.ncpoly import product
    from qshuffle.symqsym import QSymElement, encode_M, qsym_product

    y1 = NCPolynomial.word((1,))
    lhs = encode_M(product(y1, y1, "stuffle"))
    m1 = QSymElement.single((1,), "M")
    assert lhs == qsym_product(m1, m1)
    assert lhs == 2 * QSymElement.single((1, 1), "M") + QSymElement.single((2,), "M")
