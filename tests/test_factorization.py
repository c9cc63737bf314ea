from fractions import Fraction

import pytest

from qshuffle.bases import pi_basis, sigma_basis
from qshuffle.factorization import (
    PAIRS,
    GradedTensorSeries,
    character_checks,
    diagonal,
    factorized_product,
    lyndon_decreasing,
    verify_factorization,
)
from qshuffle.ncpoly import NCPolynomial
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
    from qshuffle.factorization import _exp_factor  # noqa: PLC2701 - test of internals

    first = GradedTensorSeries.unit(n, "stuffle")
    for l in ls[:cut]:
        first = first * _exp_factor(sigma_basis(l), pi_basis(l), n, "stuffle")
    second = GradedTensorSeries.unit(n, "stuffle")
    for l in ls[cut:]:
        second = second * _exp_factor(sigma_basis(l), pi_basis(l), n, "stuffle")
    assert first * second == full


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
