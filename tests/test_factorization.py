from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import bases, cli
from qshuffle.bases import pi_basis, sigma_basis
from qshuffle.factorization import (
    PAIRS,
    GradedTensorSeries,
    _exp_product,
    character_checks,
    diagonal,
    factorized_product,
    lyndon_decreasing,
    pi1_series,
    verify_factorization,
)
from qshuffle.lyndon import lyndon_up_to
from qshuffle.ncpoly import (
    NCPolynomial,
    TensorPolynomial,
    add_into,
    product,
    shuffle_words,
    stuffle_words,
)
from qshuffle.words import Word, _code, _decode, sort_key, word_str, words_of_weight, words_up_to

import fraction_oracle as oracle

DATA = Path(__file__).parent / "data"


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


def _swapped_left(n: int) -> GradedTensorSeries:
    # the quasi-shuffle pair's factors under the shuffle left product
    return _exp_product(_lyndon_factors(n, "Sigma", "Pi"), n, "shuffle")


def test_negative_control_swapped_left_product():
    # the terms differ from the diagonal's, not only the left product
    got = _swapped_left(2)
    assert got.terms != diagonal(2, "stuffle").terms
    diffs = diagonal(2, "shuffle").discrepancies(got)
    assert diffs and diffs[0][0].weight == 2


def test_ordered_product_regrouping():
    # splitting the Lyndon product into two consecutive sub-products and
    # multiplying the partial results gives the same truncated series
    n = 4
    full = factorized_product(n, "stuffle")
    ls = lyndon_decreasing(n)
    cut = len(ls) // 2
    factors = [(sigma_basis(l), pi_basis(l)) for l in ls]
    first = _exp_product(factors[:cut], n, "stuffle")
    second = _exp_product(factors[cut:], n, "stuffle")
    assert first * second == full


def _series(terms: dict, bound: int, kind: str) -> GradedTensorSeries:
    return GradedTensorSeries({(Word(u), Word(v)): c for (u, v), c in terms.items()}, bound, kind)


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


def _lyndon_factors(n: int, dual: str, primal: str) -> list[list[NCPolynomial]]:
    # the (dual_l, primal_l) values in the order of the factorization
    return [[bases.basis_element(f, l).value for f in (dual, primal)] for l in lyndon_decreasing(n)]


def test_product_matches_the_all_pairs_oracle_along_the_factorization():
    # the partial product after j + 1 factors is the literal product of the
    # one after j factors with the (j + 1)-th exponential
    for pair in PAIRS:
        dual, primal, kind = bases.PAIRS[pair]
        for n in range(1, 6):
            factors = _lyndon_factors(n, dual, primal)
            acc = _exp_product([], n, kind)
            for j, values in enumerate(factors, 1):
                factor = GradedTensorSeries(_fraction_exp_factor(*values, n, kind), n, kind)
                expected = _all_pairs_product(acc, factor)
                acc = _exp_product(factors[:j], n, kind)
                assert acc.terms == expected, (pair, n, j)
                _assert_canonical(acc)
            assert acc == diagonal(n, kind) == factorized_product(n, pair)


def test_product_matches_the_all_pairs_oracle_on_unequal_weights():
    # terms whose left and right weights differ, so that some pairs are
    # dropped by the left weight alone and others by the right weight alone
    a_terms = {((), ()): 1, ((1,), (2, 1)): 2, ((3,), ()): -1, ((), (1, 1, 1)): "1/2", ((2,), (1,)): 3}
    b_terms = {((1,), (2,)): "-2/3", ((2,), ()): 1, ((), (3,)): 5, ((1, 1), (1, 1)): -1}
    for kind in ("shuffle", "stuffle"):
        for bound in range(0, 7):
            a, b = _series(a_terms, bound, kind), _series(b_terms, bound + 1, kind)
            for x, y in ((a, b), (b, a), (a, a), (b, b)):
                assert (x * y).terms == _all_pairs_product(x, y), (kind, bound)


def _assert_canonical(s: GradedTensorSeries) -> None:
    # buckets of nonzero int numerators keyed by their weights, within the
    # bound, over a positive denominator sharing no factor with all of them;
    # a key is a pair (u, v) of letter tuples, u of weight l and v of weight r
    assert type(s._den) is int and s._den > 0
    numerators = []
    for (l, r), bucket in s._buckets.items():
        assert bucket
        for (u, v), n in bucket.items():
            assert Word(u).letters == u and Word(v).letters == v
            assert (sum(u), sum(v)) == (l, r) and max(l, r) <= s.bound
            assert type(n) is int and n != 0
            numerators.append(n)
    assert gcd(s._den, *numerators) == 1


@pytest.mark.parametrize("mismatch", [False, True], ids=["identity", "mismatch"])
def test_exp_product_matches_the_tuple_keyed_oracle_step_by_step(mismatch):
    # every partial product of the factorization, and of its mismatch
    # negative control, has the oracle's denominator and, once decoded, its
    # buckets; the oracle chains its own outputs
    for pair in PAIRS:
        dual, primal, kind = bases.PAIRS[pair]
        if mismatch:
            primal = "Pi" if pair == "shuffle" else "p"
        for n in range(7):
            factors = _lyndon_factors(n, dual, primal)
            buckets, den = {(0, 0): {((), ()): 1}}, 1
            for j in range(len(factors) + 1):
                if j:
                    buckets, den = oracle.times_exp(buckets, den, n, kind, *factors[j - 1])
                acc = _exp_product(factors[:j], n, kind)
                assert (acc._den, acc._buckets) == (den, buckets), (pair, n, j)
            assert factorized_product(n, pair, mismatch=mismatch) == acc


@pytest.mark.parametrize("variant", ["identity", "mismatch", "swapped"])
def test_packed_flatten_matches_the_dict_flatten_oracle(variant):
    # term by term, with the denominator and the bound, at N = 0..8: the four
    # pairs, their mismatch negative control, and each pair's factors under
    # the other left product
    for pair in PAIRS:
        dual, primal, kind = bases.PAIRS[pair]
        if variant == "mismatch":
            primal = "Pi" if pair == "shuffle" else "p"
        elif variant == "swapped":
            kind = "shuffle" if kind == "stuffle" else "stuffle"
        for n in range(9):
            factors = _lyndon_factors(n, dual, primal)
            got, expected = _exp_product(factors, n, kind), oracle.exp_product(factors, n, kind)
            assert (got._den, got._buckets, got.bound) == (expected._den, expected._buckets, n), (pair, n)
            _assert_canonical(got)


_words = st.lists(st.integers(1, 4), max_size=5).map(tuple)


@settings(max_examples=200, deadline=None)
@given(u=_words, v=_words)
def test_codes_decode_and_split_back_into_their_words(u, v):
    # empty u or v included: the empty word is code 0, and a key of left
    # weight 0 is all right word; `_exp_product` cuts its keys with these masks
    assert _decode(_code(u)) == u and _decode(_code(v)) == v
    key, w = _code(u + v), sum(u)
    assert key == _code(u) | _code(v) << w
    assert (_decode(key & (2 << w) - 1), _decode(key >> w & ~1)) == (u, v)


@pytest.mark.parametrize(
    "call",
    [
        lambda: GradedTensorSeries({}, -1, "stuffle"),
        lambda: GradedTensorSeries.unit(1.5, "shuffle"),
        lambda: diagonal(2.5, "stuffle"),
        lambda: diagonal(-1, "shuffle"),
        lambda: factorized_product(-1, "stuffle"),
        lambda: verify_factorization(-2, "L"),
        lambda: verify_factorization("3", "R"),
        lambda: character_checks(-1),
    ],
    ids=["series", "unit", "diagonal-float", "diagonal", "product", "verify", "verify-text", "characters"],
)
def test_factorization_bounds_must_be_integers_at_least_zero(call):
    # verify_factorization(-2, "L") used to pass with an empty report,
    # character_checks(-1) blamed the log, diagonal(2.5, ...) raised TypeError
    with pytest.raises(ValueError, match="expected an integer"):
        call()


_short_words = st.lists(st.integers(1, 3), max_size=3).map(tuple)
_coeffs = st.sampled_from(
    [Fraction(c) for c in ("-2", "-1", "-1/2", "0", "1/3", "1/2", "1", "3/2", "2")]
)
_series_terms = st.dictionaries(st.tuples(_short_words, _short_words), _coeffs, max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["shuffle", "stuffle"]),
    a_terms=_series_terms,
    b_terms=_series_terms,
    bound=st.integers(0, 6),
    extra=st.integers(0, 2),
    cancel=st.tuples(_short_words, _short_words, _short_words, _coeffs, _coeffs),
)
def test_product_on_random_series_matches_the_oracle(kind, a_terms, b_terms, bound, extra, cancel):
    a, b = _series(a_terms, bound, kind), _series(b_terms, bound + extra, kind)
    # (A + B)(B - A) with one right word r: the cross terms AB and -BA cancel
    u, w, r, c, d = cancel
    p = _series({(u, r): c, (w, r): c}, bound + extra, kind)
    q = _series({(w, r): d, (u, r): -d}, bound, kind)
    for x in (a, b, p, q):
        _assert_canonical(x)
    for x, y in ((a, b), (b, a), (a, a), (p, q), (a, q)):
        got = x * y
        expected = _all_pairs_product(x, y)
        assert got.terms == expected
        _assert_canonical(got)
        rebuilt = GradedTensorSeries(expected, got.bound, kind)
        assert got == rebuilt
        for other in (y * x, rebuilt):
            assert (got == other) == (got.terms == other.terms)
    assert (a == b) == (a.terms == b.terms)


def _fraction_exp_factor(dual, primal, bound: int, left_kind: str) -> dict:
    # the Fraction-valued exponential, sum_k (dual^{*k} / k!) (x) primal^k
    # built from TensorPolynomial.tensor of the powers; the oracle for one
    # factor of `_exp_product`
    m = dual.max_weight()
    terms = {(Word(), Word()): Fraction(1)}
    dual_pow = primal_pow = NCPolynomial.one()
    k = 0
    while (k + 1) * m <= bound:
        k += 1
        dual_pow = product(dual_pow, dual, left_kind)
        primal_pow = primal_pow * primal
        pow_terms = TensorPolynomial.tensor(dual_pow, primal_pow).terms
        add_into(terms, pow_terms.items(), Fraction(1, factorial(k)))
    return terms


@st.composite
def _exp_inputs(draw) -> tuple[NCPolynomial, NCPolynomial]:
    # nonzero dual and primal, homogeneous of one weight m in 1..3
    ws = words_of_weight(draw(st.integers(1, 3)))
    poly = st.dictionaries(st.sampled_from(ws), _coeffs.filter(bool), min_size=1, max_size=3)
    return NCPolynomial(draw(poly)), NCPolynomial(draw(poly))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["shuffle", "stuffle"]),
    terms=_series_terms,
    bound=st.integers(0, 6),
    c=_coeffs.filter(bool),
    exp_inputs=_exp_inputs(),
)
def test_tuple_keyed_oracle_on_random_series_matches_the_series_product(kind, terms, bound, c, exp_inputs):
    # the step of the oracle, x · exp(dual (x) primal), is x * factor;
    # c (1 - dual (x) primal) exp(dual (x) primal) has no piece of weight
    # (m, m): there the k = 1 piece of 1 (x) 1 cancels the k = 0 piece of
    # dual (x) primal, and the k = 1 piece of dual (x) primal adds the left
    # products of several left words into the same keys
    dual, primal = exp_inputs
    m = dual.max_weight()
    minus = {key: -c * x for key, x in TensorPolynomial.tensor(dual, primal).terms.items()}
    cancelling = GradedTensorSeries({**minus, (Word(), Word()): c}, bound, kind)
    factor = GradedTensorSeries(_fraction_exp_factor(dual, primal, bound, kind), bound, kind)
    for x in (_series(terms, bound, kind), cancelling):
        expected = x * factor
        got = oracle.times_exp(x._buckets, x._den, bound, kind, dual, primal)
        assert got == (expected._buckets, expected._den)
    assert (m, m) not in expected._buckets and expected.coeff(Word(), Word()) == c


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["shuffle", "stuffle"]),
    bound=st.integers(0, 6),
    factors=st.lists(_exp_inputs(), max_size=3),
)
def test_exp_product_of_random_factors_matches_the_series_product(kind, bound, factors):
    # factors of equal or different weights, in any order, with terms that
    # cancel across the pure tensors of the expansion
    expected = GradedTensorSeries.unit(bound, kind)
    for values in factors:
        expected = expected * GradedTensorSeries(_fraction_exp_factor(*values, bound, kind), bound, kind)
    got = _exp_product(factors, bound, kind)
    assert got == expected and got.bound == bound
    _assert_canonical(got)


def _log_power_loop(max_weight: int, kind: str) -> dict:
    # the termwise log of the diagonal series as the power loop of
    # log(1 + z), z = diagonal - 1, that the log-series identity ran before
    # `GradedTensorSeries.log`; its oracle
    z = GradedTensorSeries(
        {(w, w): 1 for w in words_up_to(max_weight, include_empty=False)}, max_weight, kind
    )
    log_series: dict = {}
    power = GradedTensorSeries.unit(max_weight, kind)
    for k in range(1, max_weight + 1):
        power = power * z
        if not power.terms:
            break
        add_into(log_series, power.terms.items(), Fraction((-1) ** (k - 1), k))
    return log_series


@pytest.mark.parametrize("kind", ["shuffle", "stuffle"])
def test_log_of_the_diagonal_matches_the_power_loop_to_weight_4(kind):
    for n in range(5):
        got = diagonal(n, kind).log()
        assert got.terms == _log_power_loop(n, kind), n
        assert (got.bound, got.left_kind) == (n, kind)
        _assert_canonical(got)
    # the stuffle log regroups over pi1: the log-series identity
    expected = {(w, x): c for w in words_up_to(4, include_empty=False) for x, c in bases.pi1(w).terms.items()}
    assert diagonal(4, "stuffle").log() == GradedTensorSeries(expected, 4, "stuffle")


def _fraction_log(s: GradedTensorSeries) -> dict:
    # log(1 + z) on Fraction term dicts, each power by the all-pairs oracle
    z = GradedTensorSeries({k: c for k, c in s.terms.items() if k != (Word(), Word())}, s.bound, s.left_kind)
    out: dict = {}
    power, k = z, 1
    while power.terms:
        add_into(out, power.terms.items(), Fraction((-1) ** (k - 1), k))
        power = GradedTensorSeries(_all_pairs_product(power, z), s.bound, s.left_kind)
        k += 1
    return out


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["shuffle", "stuffle"]), terms=_series_terms, bound=st.integers(0, 4))
def test_log_on_random_series_matches_the_oracle(kind, terms, bound):
    # terms of weight (0, r) and (l, 0) as well as mixed ones
    unit = (Word(), Word())
    s = _series({**terms, ((), ()): 1}, bound, kind)
    got = s.log()
    assert got.terms == _fraction_log(s) and got.coeff(*unit) == 0
    _assert_canonical(got)
    for c in (0, 2, Fraction(1, 2)):
        with pytest.raises(ValueError):
            _series({**terms, ((), ()): c}, bound, kind).log()


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["shuffle", "stuffle"]), terms=_series_terms, bound=st.integers(0, 4))
def test_exp_and_log_on_random_series_invert_each_other(kind, terms, bound):
    # z without a unit term, x with the unit term 1
    z = _series({k: c for k, c in terms.items() if k != ((), ())}, bound, kind)
    x = _series({**terms, ((), ()): 1}, bound, kind)
    assert z.exp().log() == z and x.log().exp() == x
    assert (z.exp().bound, z.exp().left_kind) == (bound, kind)
    _assert_canonical(z.exp())
    for c in (1, -1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="grade of 1"):
            _series({**terms, ((), ()): c}, bound, kind).exp()


@pytest.mark.parametrize("n", range(7))
def test_pi1_series_is_the_log_of_the_diagonal(n):
    # characters (b) and the pi1-inverse check, one series each way
    got = pi1_series(n)
    assert got == diagonal(n, "stuffle").log() and got.exp() == diagonal(n, "stuffle")
    assert (got.bound, got.left_kind) == (n, "stuffle")
    assert got.terms == {(w, x): c for w in words_up_to(n, include_empty=False) for x, c in bases.pi1(w).terms.items()}
    _assert_canonical(got)


@pytest.mark.parametrize("n", [-1, 1.5, "2"])
def test_pi1_series_rejects_a_bound_that_is_not_a_natural_number(n):
    with pytest.raises(ValueError):
        pi1_series(n)


def test_exp_factor_matches_the_fraction_oracle():
    for pair in PAIRS:
        dual, primal, kind = bases.PAIRS[pair]
        for l in lyndon_up_to(5):
            values = [bases.basis_element(f, l).value for f in (dual, primal)]
            got = _exp_product([values], 5, kind)
            assert got.terms == _fraction_exp_factor(*values, 5, kind), (pair, l)
            _assert_canonical(got)


@pytest.mark.parametrize(
    "dual, primal",
    [
        (NCPolynomial.zero(), NCPolynomial.zero()),
        (NCPolynomial({(1,): 1, (2,): 1}), NCPolynomial.word((1,))),
        (NCPolynomial.word((1,)), NCPolynomial({(1,): 1, (2,): 1})),
        (NCPolynomial.word((1,)), NCPolynomial.word((2,))),
        (NCPolynomial.word((1,)), NCPolynomial.zero()),
        (NCPolynomial.one(), NCPolynomial.one()),
    ],
    ids=["zero", "mixed dual", "mixed primal", "unequal weights", "zero primal", "weight 0"],
)
def test_exp_factor_rejects_inputs_that_are_not_homogeneous_of_one_weight(dual, primal):
    # a zero or weight-0 input used to loop forever, a mixed-weight dual
    # silently dropped its powers; a rejected factor is rejected after a
    # valid one too
    with pytest.raises(ValueError):
        _exp_product([(dual, primal)], 3, "stuffle")
    with pytest.raises(ValueError):
        _exp_product([(pi_basis(Word((1,))),) * 2, (dual, primal)], 3, "stuffle")


def test_terms_are_read_only_and_built_once():
    s = factorized_product(3, "stuffle")
    key = (Word(), Word())
    with pytest.raises(TypeError):
        s.terms[key] = Fraction(2)
    with pytest.raises(TypeError):
        del s.terms[key]
    assert s.terms is s.terms
    assert s == diagonal(3, "stuffle") and s.coeff(Word(), Word()) == 1


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--max-weight", "3", "--pair", "stuffle"], "factorize_w3_stuffle_negative.txt"),
        (["--max-weight", "4", "--pair", "L", "--format", "json"], "factorize_w4_L_negative.json"),
    ],
)
def test_negative_control_output_is_pinned(capsys, argv, golden):
    # the negative controls are the chain's only outputs with non-integral
    # coefficients; the files were written before the integer product
    assert cli.main(["factorize", *argv, "--negative-control"]) == 1
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_swapped_left_product_is_pinned():
    got = _swapped_left(3).terms
    keys = sorted(got, key=lambda k: (sort_key(k[0]), sort_key(k[1])))
    lines = [f"({word_str(u)}) (x) ({word_str(v)}): {got[(u, v)]}\n" for u, v in keys]
    assert "".join(lines) == (DATA / "factorized_w3_stuffle_left_shuffle.txt").read_text()



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


def test_series_keys_and_coeff_read_words_or_letter_tuples():
    # tuple keys and tuple arguments of coeff raised AttributeError, and so
    # did a letter 0
    s = GradedTensorSeries({((1,), (1,)): 1, (Word((2,)), (2,)): "1/2"}, 2, "stuffle")
    assert s.terms == {(Word((1,)), Word((1,))): 1, (Word((2,)), Word((2,))): Fraction(1, 2)}
    assert s.coeff((2,), Word((2,))) == Fraction(1, 2) and s.coeff((1,), (2,)) == 0
    assert diagonal(2, "stuffle").coeff((1,), (1,)) == 1
    with pytest.raises(ValueError):
        GradedTensorSeries({((0,), ()): 1}, 2, "stuffle")
    with pytest.raises(ValueError):
        s.coeff((1, 0), ())


def test_discrepancies_of_different_left_products_are_rejected():
    # they returned [] while == said the two series differ
    with pytest.raises(ValueError):
        diagonal(3, "stuffle").discrepancies(diagonal(3, "shuffle"))


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


@pytest.mark.parametrize("max_weight", range(5))
def test_closing_identity_matches_the_relabel_oracle(max_weight):
    results = character_checks(max_weight)
    assert results[2:] == oracle.closing_identity_rows(max_weight)
    assert all(ok for _, ok, _ in results)


def test_closing_identity_fails_on_a_perturbed_dual_as_the_relabel_oracle(monkeypatch):
    # one extra term in SigmaL at the Lyndon word 2 1 breaks the L pair only
    element = bases.basis_element

    def perturbed(family, w):
        got = element(family, w)
        if family == "SigmaL" and w == Word((2, 1)):
            return bases.BasisElement(w, family, got.value + NCPolynomial.word((1, 2)))
        return got

    monkeypatch.setattr(bases, "basis_element", perturbed)
    for max_weight in (3, 4):
        results = character_checks(max_weight)
        assert [name for name, ok, _ in results if not ok] == ["closing-identity-L"]
        assert results[2:] == oracle.closing_identity_rows(max_weight)


def test_character_property_spot_example():
    # the weight-2 case by hand: encode(y1 st y1) = 2 M_(1,1) + M_(2)
    from qshuffle.ncpoly import product
    from qshuffle.symqsym import QSymElement, encode_M, qsym_product

    y1 = NCPolynomial.word((1,))
    lhs = encode_M(product(y1, y1, "stuffle"))
    m1 = QSymElement.single((1,), "M")
    assert lhs == qsym_product(m1, m1)
    assert lhs == 2 * QSymElement.single((1, 1), "M") + QSymElement.single((2,), "M")
