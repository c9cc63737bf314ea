from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from pathlib import Path

import pytest

from qshuffle import bases
from qshuffle.bases import (
    FAMILIES,
    PAIRS,
    TSeries,
    basis_element,
    exp_ad,
    higher_series,
    l_elements,
    l_series,
    log_y_series,
    p_basis,
    pi1,
    pi_basis,
    pi_s_basis,
    r_elements,
    r_series,
    s_basis,
    sigma_basis,
    sigma_s_basis,
    x_elements,
    y_in_r_expansion,
    y_inverse_series,
    y_series,
)
from qshuffle.lyndon import lyndon_up_to
from qshuffle.ncpoly import (
    NCPolynomial,
    TensorPolynomial,
    coproduct,
    is_primitive,
    pairing,
    poly_str,
)
from qshuffle.words import Word, compositions_of, stats, word_str, words_of_weight, words_up_to

one = NCPolynomial.one()


def mono(*letters):
    return NCPolynomial.word(Word(letters))


# -- shuffle-side pair --------------------------------------------------------

def test_p_of_lyndon_21_is_a_bracket():
    assert p_basis(Word((2, 1))) == mono(2, 1) - mono(1, 2)


def test_s_examples():
    assert s_basis(Word((2, 1))) == mono(2, 1)
    assert s_basis(Word((1, 1))) == mono(1, 1)  # (y1 sh y1) / 2
    assert s_basis(Word((1,))) == mono(1)


@lru_cache(maxsize=None)
def _triangular_order(primal: str, n: int) -> tuple[tuple, ...]:
    # the words of weight n in (length, word) order, after checking that the
    # primal matrix is upper triangular with a nonzero diagonal in it:
    # primal_u is a nonzero multiple of u plus words that come later
    order = sorted((w.letters for w in words_of_weight(n)), key=lambda w: (len(w), Word(w)))
    pos = {w: i for i, w in enumerate(order)}
    for u in order:
        row = bases._value(primal, u)._nums
        assert row.get(u) and all(pos[x] > pos[u] for x in row if x != u), (primal, u)
    return tuple(order)


def _column_solve(primal: str, w: tuple) -> NCPolynomial:
    # The oracle for every dual family: column w of C = A^{-1}, A the primal
    # matrix of weight |w|.  A is upper triangular, so c_x = 0 after w and
    # back-substitution gives c_w = 1/A_ww, c_u = -(sum_{x > u} A_ux c_x)/A_uu;
    # kept in integers as c_x = n_x/den with rows A_ux = a_x/d.
    order = _triangular_order(primal, sum(w))
    nums: dict[tuple, int] = {}
    den = 1
    for u in reversed(order[: order.index(w) + 1]):
        row = bases._value(primal, u)
        t = row._den if u == w else -sum(a * nums[x] for x, a in row._nums.items() if x in nums)
        if t:
            diag = row._nums[u]
            g = gcd(t, diag) if diag > 0 else -gcd(t, diag)
            t, m = t // g, diag // g
            if m != 1:
                nums = {x: c * m for x, c in nums.items()}
                den *= m
            nums[u] = t
    return NCPolynomial._from(nums, den)


def test_s_recursion_matches_the_column_solve_to_weight_9():
    # s_l = y_a·s_u for l = a·u; the column solve reads every p row of |l|
    for l in lyndon_up_to(9):
        assert s_basis(l) == _column_solve("p", l.letters), l


@pytest.mark.parametrize("pair", ["stuffle", "L", "R"])
def test_closed_form_duals_store_the_column_solve_to_weight_8(pair):
    # Sigma^X_w = Psi_X(s_w) reads no primal row; the oracle reads them all
    dual, primal, _ = PAIRS[pair]
    for w in words_up_to(8, include_empty=False):
        got, expected = bases._value(dual, w.letters), _column_solve(primal, w.letters)
        assert (got._nums, got._den) == (expected._nums, expected._den), (dual, w)


def test_p_s_duality_weight_4():
    ws = words_up_to(4, include_empty=False)
    for u in ws:
        for v in ws:
            assert pairing(p_basis(u), s_basis(v)) == (1 if u == v else 0), (u, v)


def test_p_of_general_word_multiplies_lyndon_factors():
    # y1 y2 = (y1)(y2) with y1 > y2, so p is the concatenation of the letters
    assert p_basis(Word((1, 2))) == mono(1, 2)
    # (y1)^2: concatenation square
    assert p_basis(Word((1, 1))) == mono(1, 1)


# -- the primitive projection ----------------------------------------------------

def test_pi1_on_letters():
    assert pi1(Word((1,))) == mono(1)
    assert pi1(Word((2,))) == mono(2) - mono(1, 1) / 2
    expected = mono(3) - (mono(1, 2) + mono(2, 1)) / 2 + mono(1, 1, 1) / 3
    assert pi1(Word((3,))) == expected


@pytest.mark.parametrize("n", range(1, 10))
def test_pi1_of_a_letter_matches_the_iterated_stuffle_coproduct(n):
    # the closed form sum over I |= n of (-1)^(l(I)-1)/l(I) y_I against the
    # per-word sum over the iterated stuffle coproduct, the oracle
    got, iterated = pi1(Word((n,))), oracle.pi1((n,))
    assert (got._nums, got._den) == (iterated._nums, iterated._den)
    assert basis_element("Pi", Word((n,))).value is got


def test_pi1_table_matches_the_per_word_oracle():
    # every word of weight <= 7, term by term; a longer word reads the table
    # of its weight, and the table holds every word of that weight
    for n in range(8):
        table = bases._pi1_table(n)
        assert sorted(table) == sorted(w.letters for w in words_of_weight(n))
        for w in words_of_weight(n):
            got, want = pi1(w), oracle.pi1(w.letters)
            assert (got._nums, got._den) == (want._nums, want._den), w
            if len(w) > 1:
                assert got is table[w.letters]
    with pytest.raises(TypeError):
        table[(7,)] = NCPolynomial.zero()


def test_pi1_extends_linearly():
    p = 2 * mono(2) - mono(1)
    assert pi1(p) == 2 * pi1(Word((2,))) - pi1(Word((1,)))


def test_pi1_outputs_are_primitive():
    # the empty word included: pi1 sums over tuples of nonempty words, so
    # pi1(e) = 0 and a constant term adds nothing
    for w in words_up_to(5):
        assert is_primitive(pi1(w), "stuffle"), w
    assert pi1(one + mono(2)) == pi1(Word((2,)))


def _pi1_by_tuples(w: Word) -> NCPolynomial:
    # The paper's formula read literally: the sum over ordered tuples
    # (u_1..u_k) of nonempty words of ((-1)^(k-1)/k) <w | u_1 st ... st u_k>
    # u_1...u_k, walking every tuple of total weight |w|.
    out = NCPolynomial.zero()

    def rec(remaining: int, k: int, prod_poly: NCPolynomial, concat: tuple) -> None:
        nonlocal out
        if remaining == 0:
            c = prod_poly.coeff(w)
            if c:
                out = out + NCPolynomial.word(Word(concat), c * Fraction((-1) ** (k - 1), k))
            return
        for m in range(1, remaining + 1):
            for comp in compositions_of(m):
                rec(remaining - m, k + 1, prod_poly.stuffle(NCPolynomial.word(comp)), concat + comp)

    rec(w.weight, 0, NCPolynomial.one(), ())
    return out


def test_pi1_matches_the_ordered_tuple_formula():
    for w in words_up_to(5, include_empty=False):
        assert pi1(w) == _pi1_by_tuples(w), w


def test_pi1_inverse_expansion():
    # the per-word oracle of the pi1-inverse check, on the table's pi1
    assert oracle.pi1_inverse_check(Word((2,)))
    assert oracle.pi1_inverse_check(Word((1,)))
    assert oracle.pi1_inverse_check(Word((2, 1)))
    for w in words_up_to(5):
        assert oracle.pi1_inverse_check(w), w


# -- quasi-shuffle pair -----------------------------------------------------------

def test_pi_basis_values():
    assert pi_basis(Word((2,))) == mono(2) - mono(1, 1) / 2
    assert pi_basis(Word((1, 1))) == mono(1, 1)
    # [Pi_{y2}, Pi_{y1}] = [y2 - y1y1/2, y1] = y2y1 - y1y2
    assert pi_basis(Word((2, 1))) == mono(2, 1) - mono(1, 2)


def test_sigma_values_at_weight_2():
    assert sigma_basis(Word((2,))) == mono(2)
    assert sigma_basis(Word((1, 1))) == mono(1, 1) + mono(2) / 2
    assert sigma_basis(Word(())) == one


def test_pi_sigma_duality_weight_4():
    ws = words_up_to(4, include_empty=False)
    for u in ws:
        for v in ws:
            assert pairing(pi_basis(u), sigma_basis(v)) == (1 if u == v else 0), (u, v)


def _gauss_jordan_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    # dense exact Gauss-Jordan with row pivoting: an oracle for the dual
    # values that assumes neither triangularity nor the closed form
    m = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
           for i, row in enumerate(rows)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def test_dual_tables_match_the_dense_inverse_to_weight_6():
    for dual, primal, _ in PAIRS.values():
        for n in range(1, 7):
            ws = words_of_weight(n)
            c = _gauss_jordan_inverse([[basis_element(primal, u).value.coeff(x) for x in ws] for u in ws])
            for j, v in enumerate(ws):
                expected = NCPolynomial({u: c[i][j] for i, u in enumerate(ws)})
                assert basis_element(dual, v).value == expected, (dual, v)


def test_a_seed_without_its_letter_term_is_rejected(monkeypatch):
    # the triangular recursion for lambda_n = phi^{-1}(y_n) divides by the
    # y_n coefficient of seed(n)
    seed = bases._LETTER["Pi"]
    monkeypatch.setitem(bases._LETTER, "Pi", lambda n: seed(n) - mono(2) if n == 2 else seed(n))
    with pytest.raises(ArithmeticError, match="the Pi seed at y_2 has no y_2 term"):
        oracle.lambda_triangular("Pi", 2)


# -- the letter maps lambda^X_n = phi_X^{-1}(y_n) -----------------------------------

_CLOSED_FORM_DEN = {
    # Hoffman, Quasi-shuffle products, Thm 2.5: phi^{-1}(y_n) = sum_I y_I / l(I)!
    "Pi": lambda i: factorial(len(i)),
    # y_n = sum_I R^I / pi_u(I) (`y_in_r_expansion`), and L_n is R_n mirrored
    "PiL": lambda i: stats(stats(i).mirror).pi_u,
    "PiR": lambda i: stats(i).pi_u,
}


@pytest.mark.parametrize("primal", ["Pi", "PiL", "PiR"])
def test_pi_letter_map_is_hoffmans_exponential(primal):
    # the closed forms of lambda_n, and the triangular recursion on the seeds
    for n in range(1, 9):
        expected = NCPolynomial({i: Fraction(1, _CLOSED_FORM_DEN[primal](i)) for i in compositions_of(n)})
        assert bases._lambda(primal, n) == expected, n
        assert oracle.lambda_triangular(primal, n) == expected, n


def test_l_and_r_letter_maps_at_3():
    assert bases._lambda("PiL", 3) == mono(1, 1, 1) / 6 + mono(1, 2) / 6 + mono(2, 1) / 3 + mono(3) / 3
    # the mirror image: R_n is L_n with every word reversed
    assert bases._lambda("PiR", 3) == mono(1, 1, 1) / 6 + mono(2, 1) / 6 + mono(1, 2) / 3 + mono(3) / 3


@pytest.mark.parametrize("primal", ["Pi", "PiL", "PiR"])
def test_primal_is_the_letter_substitution_of_p(primal):
    # Pi^X_w = phi_X(p_w), phi_X substituting seed_X(n) for each letter y_n
    for w in words_up_to(6, include_empty=False):
        image = NCPolynomial.zero()
        for x, c in p_basis(w).terms.items():
            term = one * c
            for n in x.letters:
                term = term * basis_element(primal, Word((n,))).value
            image = image + term
        assert basis_element(primal, w).value == image, (primal, w)


def test_pi_triangularity_and_homogeneity():
    for w in words_up_to(5, include_empty=False):
        p = pi_basis(w)
        assert p.coeff(w) == 1
        assert all(x.weight == w.weight for x in p.terms)


def test_all_families_are_weight_homogeneous():
    for family in FAMILIES:
        for w in words_up_to(4, include_empty=False):
            value = basis_element(family, w).value
            assert all(x.weight == w.weight for x in value.terms), (family, w)


def test_pairs_table_orders_the_families():
    assert FAMILIES == ("p", "s", "Pi", "Sigma", "PiL", "SigmaL", "PiR", "SigmaR")
    assert tuple(PAIRS) == ("shuffle", "stuffle", "L", "R")


def test_all_families_match_the_golden_output_to_weight_4():
    golden = (Path(__file__).parent / "data" / "basis_weight4.txt").read_text()
    got = [
        f"{family} [{word_str(w)}] = {poly_str(basis_element(family, w).value)}"
        for family in FAMILIES
        for w in words_up_to(4, include_empty=False)
    ]
    assert got == golden.splitlines()


# -- inverse series and L/R elements ----------------------------------------------

def test_x_elements():
    xs = x_elements(2)
    assert xs[0] == -mono(1)
    assert xs[1] == mono(1, 1) - mono(2)


def test_l_and_r_elements():
    assert l_elements(2)[1] == 2 * mono(2) - mono(1, 1)
    assert r_elements(2)[1] == 2 * mono(2) - mono(1, 1)
    assert l_elements(3)[2] == 3 * mono(3) - mono(1, 2) - 2 * mono(2, 1) + mono(1, 1, 1)
    assert r_elements(3)[2] == 3 * mono(3) - 2 * mono(1, 2) - mono(2, 1) + mono(1, 1, 1)


def test_l_r_primitive_up_to_6():
    ls, rs = l_elements(6), r_elements(6)
    for n in range(1, 7):
        assert is_primitive(ls[n - 1], "stuffle")
        assert is_primitive(rs[n - 1], "stuffle")


def test_inverse_coefficient_relations_up_to_6():
    xs = [one] + x_elements(6)
    ys = [one] + [mono(n) for n in range(1, 7)]
    for n in range(1, 7):
        left = NCPolynomial.zero()
        right = NCPolynomial.zero()
        for i in range(n + 1):
            left = left + ys[i] * xs[n - i]
            right = right + xs[i] * ys[n - i]
        assert left.is_zero() and right.is_zero(), n


def test_n_yn_identities_up_to_6():
    ls, rs = l_elements(6), r_elements(6)
    ys = [one] + [mono(n) for n in range(1, 7)]
    for n in range(1, 7):
        s1 = NCPolynomial.zero()
        s2 = NCPolynomial.zero()
        for i in range(n):
            s1 = s1 + ls[i] * ys[n - 1 - i]
            s2 = s2 + ys[n - 1 - i] * rs[i]
        assert s1 == n * ys[n] and s2 == n * ys[n], n


def test_letters_expand_over_r_monomials():
    assert y_in_r_expansion(1)
    assert y_in_r_expansion(2)
    for n in range(3, 6):
        assert y_in_r_expansion(n), n


def test_plain_part_product_fails_at_2():
    assert not y_in_r_expansion(2, use_partial_sums=False)


# -- L/R-seeded pairs ---------------------------------------------------------------

def test_pi_r_examples():
    assert pi_s_basis(Word((2,)), "R") == 2 * mono(2) - mono(1, 1)
    r2, r1 = r_elements(2)[1], r_elements(2)[0]
    assert pi_s_basis(Word((2, 1)), "R") == r2 * r1 - r1 * r2


def test_pi_s_duality_weight_4():
    ws = words_up_to(4, include_empty=False)
    for side in ("L", "R"):
        for u in ws:
            for v in ws:
                got = pairing(pi_s_basis(u, side), sigma_s_basis(v, side))
                assert got == (1 if u == v else 0), (side, u, v)


def test_pi_s_rejects_bad_side():
    with pytest.raises(ValueError):
        pi_s_basis(Word((1,)), "Q")
    with pytest.raises(ValueError):
        sigma_s_basis(Word((1,)), "down")


def test_basis_families_are_primitive_on_lyndon_words():
    for l in lyndon_up_to(5):
        assert is_primitive(p_basis(l), "shuffle"), l
        assert is_primitive(pi_basis(l), "stuffle"), l
        assert is_primitive(pi_s_basis(l, "L"), "stuffle"), l
        assert is_primitive(pi_s_basis(l, "R"), "stuffle"), l


def test_basis_element_dispatch():
    be = basis_element("Pi", Word((2,)))
    assert be.family == "Pi" and be.index == Word((2,))
    assert be.value == mono(2) - mono(1, 1) / 2
    with pytest.raises(ValueError):
        basis_element("q", Word((1,)))


def _assert_read_only(value, key) -> None:
    before = dict(value.terms)
    with pytest.raises(TypeError):
        value.terms[key] = Fraction(5)
    with pytest.raises(TypeError):
        del value.terms[key]
    with pytest.raises(AttributeError):
        value.terms.clear()
    with pytest.raises(AttributeError):
        value.terms = {}
    assert dict(value.terms) == before


@pytest.mark.parametrize("family", FAMILIES)
def test_cached_basis_values_cannot_be_corrupted(family):
    # each value is cached, so an edit through .terms would change every
    # later answer
    for w in (Word((2,)), Word((2, 1, 1))):
        value = basis_element(family, w).value
        printed = poly_str(value)
        _assert_read_only(value, next(iter(value.terms)))
        assert basis_element(family, w).value is value
        assert poly_str(basis_element(family, w).value) == printed


def test_cached_pi1_values_cannot_be_corrupted():
    value = pi1(Word((3,)))
    _assert_read_only(value, Word((3,)))
    assert pi1(Word((3,))) is value
    assert pi1(Word((3,))) == mono(3) - mono(1, 2) / 2 - mono(2, 1) / 2 + mono(1, 1, 1) / 3


# -- truncated series ------------------------------------------------------------------

def test_y_is_grouplike_for_the_quasi_shuffle_coproduct():
    for n in range(1, 7):
        got = coproduct(mono(n), "stuffle")
        expected = TensorPolynomial(
            {
                (Word((s,)) if s else Word(), Word((n - s,)) if n - s else Word()): 1
                for s in range(n + 1)
            }
        )
        assert got == expected, n


def test_y_inverse_series():
    d = 5
    y, yi = y_series(d), y_inverse_series(d)
    assert (y * yi).same_up_to(TSeries.one(d))
    assert (yi * y).same_up_to(TSeries.one(d))


def test_log_series_coefficients_are_primitive_projections():
    logy = log_y_series(6)
    for n in range(1, 7):
        assert logy.coeff(n) == pi1(Word((n,))), n


def test_series_arithmetic_and_bounds():
    y = y_series(4)
    assert y.coeff(3) == mono(3)
    assert y.derivative().bound == 3
    assert y.derivative().coeff(2) == 3 * mono(3)
    assert (y - y).is_zero()
    assert (y * TSeries.one(2)).bound == 2
    with pytest.raises(ValueError):
        (y - TSeries.one(4)).log()


def test_derivative_of_a_series_of_bound_0_is_rejected():
    # it used to return bound -1, and same_up_to then raised from truncate
    for series in (y_series(0), TSeries.one(0), y_series(1).derivative()):
        with pytest.raises(ValueError, match="bound 0"):
            series.derivative()
    assert y_series(1).derivative().same_up_to(TSeries({0: mono(1)}, 0))


@pytest.mark.parametrize("degree", [1.5, 9.5, -1.5, "2", -1, Fraction(2), None])
def test_series_rejects_a_degree_that_is_not_a_natural_number(degree):
    # 1.5 used to be stored as a t^1.5 coefficient, a negative degree was
    # dropped silently, and every degree is read before truncating
    p = mono(1)
    with pytest.raises(ValueError):
        TSeries({degree: p}, 3)
    with pytest.raises(ValueError):
        TSeries({0: one, 3: p, degree: p}, 3)


def test_series_truncates_valid_degrees_at_the_bound():
    p = mono(1)
    assert TSeries({4: p, 9: p}, 3).is_zero()
    assert TSeries({0: one, 3: p, 4: p}, 3) == TSeries({0: one, 3: p}, 3)
    assert TSeries({True: p}, 3) == TSeries({1: p}, 3)
    assert [type(d) for d in TSeries({True: p}, 3).coeffs] == [int]


import fraction_oracle as oracle  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_small_polys = st.dictionaries(
    st.sampled_from([w.letters for w in words_up_to(3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    max_size=3,
).map(NCPolynomial)
_series_coeffs = st.dictionaries(st.integers(0, 4), _small_polys, max_size=4)


def _same_series(new, old):
    # the bucketed series holds the oracle's coefficients in canonical form
    assert new.bound == old.bound and dict(new.coeffs) == old.coeffs
    oracle.assert_graded_canonical(new)


@settings(max_examples=120, deadline=None)
@given(
    a=_series_coeffs,
    b=_series_coeffs,
    bounds=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    c=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    degree=st.integers(-1, 5),
)
def test_series_match_the_dict_of_polynomials_oracle(a, b, bounds, c, degree):
    x, y = TSeries(a, bounds[0]), TSeries(b, bounds[1])
    ox, oy = oracle.TSeries(a, bounds[0]), oracle.TSeries(b, bounds[1])
    if degree < 0:
        # the oracle keeps a negative degree; the series rejects it
        with pytest.raises(ValueError, match="expected an integer"):
            x.truncate(degree)
        with pytest.raises(ValueError, match="expected an integer"):
            x.same_up_to(y, degree)
        degree = 0
    pairs = [
        (x, ox), (y, oy), (x + y, ox + oy), (x - y, ox - oy), (x - x, ox - ox), (-x, -ox),
        (x * c, ox * c), (c * x, c * ox), (x * y, ox * oy), (y * x, oy * ox), (x * x, ox * ox),
        (x.truncate(degree), ox.truncate(degree)),
    ]
    if x.bound:
        pairs.append((x.derivative(), ox.derivative()))
    else:
        # the oracle returns bound -1; the series has no degree to lose
        with pytest.raises(ValueError, match="bound 0"):
            x.derivative()
    for new, old in pairs:
        _same_series(new, old)
    assert x.is_zero() == ox.is_zero() and (x - x).is_zero()
    assert x.same_up_to(y, degree) == ox.same_up_to(oy, degree)
    high = {d: p for d, p in b.items() if d > degree}
    assert (x + TSeries(high, bounds[1])).same_up_to(x, degree)
    unit = {**a, 0: one}
    _same_series(TSeries(unit, bounds[0]).log(), oracle.TSeries(unit, bounds[0]).log())
    if ox.coeff(0) != one:
        for series in (x, ox):
            with pytest.raises(ValueError):
                series.log()


_no_constant = st.dictionaries(st.integers(1, 4), _small_polys, max_size=3)


@settings(max_examples=80, deadline=None)
@example(  # ad_a^n(b) is nonzero up to n = 5, which random draws rarely reach
    a={1: NCPolynomial.word((1,)), 2: NCPolynomial.word((2,))},
    b={0: NCPolynomial.word((2,)), 1: NCPolynomial.word((1,))},
    bounds=(5, 6),
    c=Fraction(1, 2),
)
@given(
    a=_no_constant,
    b=_series_coeffs,
    bounds=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    c=st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_exp_ad_matches_the_loop_oracle(a, b, bounds, c):
    x, y, zero = TSeries(a, bounds[0]), TSeries(b, bounds[1]), TSeries({}, bounds[0])
    ox, oy, ozero = oracle.TSeries(a, bounds[0]), oracle.TSeries(b, bounds[1]), oracle.TSeries({}, bounds[0])
    # x·x + c·x commutes with x, so conjugating it changes nothing
    commuting, ocommuting = x * x + c * x, ox * ox + c * ox
    for new, old in [((x, y), (ox, oy)), ((zero, y), (ozero, oy)), ((x, commuting), (ox, ocommuting))]:
        _same_series(exp_ad(*new), oracle.exp_ad(*old))
    assert exp_ad(x, commuting) == commuting and exp_ad(zero, y) == y.truncate(bounds[0])


def test_exp_ad_rejects_a_constant_coefficient():
    # ad_a never raises the t-degree then, so the series does not terminate
    y1, y2 = NCPolynomial.word((1,)), NCPolynomial.word((2,))
    with pytest.raises(ValueError):
        exp_ad(TSeries({0: y1}, 3), TSeries({0: y2}, 3))
    with pytest.raises(ValueError):
        exp_ad(TSeries({0: y1, 1: y2}, 3), TSeries({}, 3))


@settings(max_examples=80, deadline=None)
@given(a=_no_constant, b=_series_coeffs, bound=st.integers(0, 5))
def test_series_exp_and_log_invert_each_other(a, b, bound):
    z, x = TSeries(a, bound), TSeries({**b, 0: one}, bound)
    assert z.exp().log() == z and x.log().exp() == x
    assert z.exp().bound == bound and z.exp().coeff(0) == one
    oracle.assert_graded_canonical(z.exp())


def test_series_exp_rejects_a_term_at_t0():
    y1 = NCPolynomial.word((1,))
    for coeffs in ({0: one}, {0: y1}, {0: one, 1: y1}):
        with pytest.raises(ValueError, match="grade of 1"):
            TSeries(coeffs, 3).exp()
    assert TSeries({}, 3).exp() == TSeries.one(3) and y_series(4).log().exp() == y_series(4)


@pytest.mark.parametrize("n", range(1, 9))
def test_letter_series_elements_match_the_per_bound_oracle(n):
    xs, ls, rs = oracle.x_list(n), oracle.lr_list(n, "L"), oracle.lr_list(n, "R")
    assert x_elements(n) == list(xs[1:])
    assert l_elements(n) == list(ls) and r_elements(n) == list(rs)
    assert bases._LETTER["PiL"](n) == ls[-1] and bases._LETTER["PiR"](n) == rs[-1]
    assert y_inverse_series(n) == TSeries(dict(enumerate(xs)), n)
    assert l_series(n) == TSeries(dict(enumerate(oracle.lr_list(n + 1, "L"))), n)
    assert r_series(n) == TSeries(dict(enumerate(oracle.lr_list(n + 1, "R"))), n)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_higher_series_match_the_padded_bound_oracle(k):
    # a product at bound - 1 computes exactly the t-degrees of the padded
    # product that the sum with the derivative keeps
    for bound in range(7):
        for new, old in zip(higher_series(k, bound), oracle.higher_series(k, bound)):
            assert (new._buckets, new._den, new.bound) == (old._buckets, old._den, old.bound)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_higher_chain_matches_the_oracle_at_every_order(k):
    # one chain padded for order k returns every lower order to the same bound
    for bound in range(8):
        chain = list(bases._higher_chain(k, bound))
        assert len(chain) == k
        for j, (cal_l, cal_r, off) in enumerate(chain, 1):
            assert off is None
            for new, old in zip((cal_l, cal_r), oracle.higher_series(j, bound), strict=True):
                assert (new._buckets, new._den, new.bound) == (old._buckets, old._den, old.bound)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TSeries({0: one}, 2.5),
        lambda: TSeries({0: one}, -1),
        lambda: TSeries.one("2"),
        lambda: y_series(-1),
        lambda: l_series(-1),
        lambda: higher_series(1, -1),
        lambda: y_series(4).truncate(2.5),
        lambda: y_series(4).truncate(-3),
        lambda: y_series(4).same_up_to(y_series(3) * 2, -1),
        lambda: y_series(2.5),
        lambda: y_inverse_series(2.5),
        lambda: l_series(2.5),
        lambda: r_series(2.5),
        lambda: log_y_series(2.5),
        lambda: higher_series(1, 2.5),
        lambda: higher_series(1.5, 3),
        lambda: x_elements(-1),
        lambda: l_elements(-1),
        lambda: r_elements(-1),
    ],
    ids=["float", "negative", "text", "y_series", "l_series", "higher_series",
         "truncate-float", "truncate-negative", "same_up_to-negative",
         "y_series-float", "y_inverse_series-float", "l_series-float", "r_series-float",
         "log_y_series-float", "higher_series-float", "higher_series-float-order",
         "x_elements", "l_elements", "r_elements"],
)
def test_series_bound_must_be_an_integer_at_least_zero(call):
    # TSeries kept the bounds 2.5 and -1, y_series(-1) returned a zero
    # series of bound -1, truncate kept the bounds 2.5 and -3, and
    # same_up_to(other, -1) returned True for any two series; the letter
    # series raised TypeError at 2.5 and x_elements(-1) returned []
    with pytest.raises(ValueError, match="expected an integer"):
        call()


def test_letter_series_elements_are_cached_per_index():
    # a larger bound builds only the new elements
    bases._x.cache_clear()
    bases._lr.cache_clear()
    l_elements(6)
    r_elements(6)
    misses = lambda: (bases._x.cache_info().misses, bases._lr.cache_info().misses)
    before = misses()
    l_elements(7)
    x_elements(5)
    r_elements(3)
    assert misses() == (before[0] + 1, before[1] + 1)


def test_higher_series_base_case():
    d = 4
    cal_l, cal_r = higher_series(1, d)
    assert cal_l.same_up_to(l_series(d))
    assert cal_r.same_up_to(r_series(d))


def test_higher_series_are_self_verified_up_to_k3():
    # higher_series re-checks cal_L_k Y = Y^(k) = Y cal_R_k before returning
    for k in (1, 2, 3):
        cal_l, cal_r = higher_series(k, 5)
        assert cal_l.bound == 5 and cal_r.bound == 5


def test_higher_series_postcondition_rejects_a_short_bound(monkeypatch):
    # letter series one degree short make a recursion whose result falls
    # short of the bound; comparing only up to the smaller bound passed it
    short = lambda series: lambda b: series(b - 1)
    monkeypatch.setattr(bases, "l_series", short(l_series))
    monkeypatch.setattr(bases, "r_series", short(r_series))
    with pytest.raises(AssertionError, match="postcondition failed at k=2, bound=4"):
        higher_series(2, 4)


def test_higher_chain_marks_a_short_order_one_degree_past_the_bound(monkeypatch):
    # with letter series one degree short, order 2 comes out at bound 2 < 4,
    # and its verdict is bound + 1
    short = lambda series: lambda b: series(b - 1)
    monkeypatch.setattr(bases, "l_series", short(l_series))
    monkeypatch.setattr(bases, "r_series", short(r_series))
    assert [(cal_l.bound, off) for cal_l, _, off in bases._higher_chain(2, 4)] == [(4, None), (2, 5)]


@pytest.mark.parametrize("at, order", [(6, 1), (5, 2)])
def test_higher_chain_names_the_lower_order_that_fails(monkeypatch, at, order):
    # the k=3, bound=4 chain reads the L series at bound 6 for order 1 and at
    # bound 5 for the product of order 2; a t^1 term added there breaks that
    # order, whose verdict names it; the orders below it pass
    real = l_series
    monkeypatch.setattr(bases, "l_series", lambda b: real(b) + TSeries({1: mono(1)}, b) if b == at else real(b))
    offs = [off for _, _, off in bases._higher_chain(3, 4)]
    assert offs[: order - 1] == [None] * (order - 1) and offs[order - 1] is not None
    with pytest.raises(AssertionError, match=f"postcondition failed at k={order}, bound=4"):
        higher_series(3, 4)


def test_higher_series_rejects_bad_order():
    with pytest.raises(ValueError):
        higher_series(0, 3)


def test_ad_exponential_conjugation():
    logy = log_y_series(3)
    cal_l, cal_r = higher_series(1, 3)
    assert exp_ad(logy, cal_r).same_up_to(cal_l, 3)
    for k in (1, 2, 3):
        d = 5
        logy = log_y_series(d)
        cal_l, cal_r = higher_series(k, d)
        assert exp_ad(logy, cal_r).same_up_to(cal_l, d)
        assert exp_ad(-1 * logy, cal_l).same_up_to(cal_r, d)
