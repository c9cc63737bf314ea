import itertools
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshuffle.ncpoly import (
    NCPolynomial,
    _pack,
    _packed_product,
    _unpack,
    _width,
    _word_coproduct,
    TensorPolynomial,
    add_into,
    bilinear,
    concat_pairs,
    concat_words,
    coproduct,
    gram,
    is_primitive,
    pairing,
    parse_poly,
    poly_from_json,
    poly_str,
    poly_to_json,
    product,
    shuffle_words,
    stuffle_words,
)
from qshuffle.bases import TSeries
from qshuffle.symqsym import QSymElement, SymElement
from qshuffle.words import Word, words_of_weight, words_up_to

one = NCPolynomial.one()


def mono(*letters):
    return NCPolynomial.word(Word(letters))


small_words = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple).filter(
    lambda t: sum(t) <= 5
)
word_pairs = st.tuples(small_words, small_words).filter(lambda p: sum(p[0]) + sum(p[1]) <= 6)


# -- independent enumeration oracles ----------------------------------------
# Shuffle: choose the positions occupied by the first word.  Quasi-shuffle:
# choose two position subsets covering every slot; slots hit twice carry the
# sum of the two letters.  Both are structurally unlike the library recursion.

def shuffle_oracle(u: tuple, v: tuple) -> dict:
    total = len(u) + len(v)
    out: dict[tuple, int] = {}
    for positions in itertools.combinations(range(total), len(u)):
        w = [0] * total
        ui = iter(u)
        vi = iter(v)
        pos = set(positions)
        for p in range(total):
            w[p] = next(ui) if p in pos else next(vi)
        key = tuple(w)
        out[key] = out.get(key, 0) + 1
    return out


def stuffle_oracle(u: tuple, v: tuple) -> dict:
    out: dict[tuple, int] = {}
    for length in range(max(len(u), len(v)), len(u) + len(v) + 1):
        for a_pos in itertools.combinations(range(length), len(u)):
            for b_pos in itertools.combinations(range(length), len(v)):
                if set(a_pos) | set(b_pos) != set(range(length)):
                    continue
                w = [0] * length
                for p, letter in zip(a_pos, u):
                    w[p] += letter
                for p, letter in zip(b_pos, v):
                    w[p] += letter
                key = tuple(w)
                out[key] = out.get(key, 0) + 1
    return out


@given(word_pairs)
@settings(max_examples=60)
def test_shuffle_matches_enumeration_oracle(pair):
    u, v = pair
    got = product(mono(*u), mono(*v), "shuffle")
    assert {w.letters: c for w, c in got.terms.items()} == {
        k: Fraction(c) for k, c in shuffle_oracle(u, v).items()
    }


@given(word_pairs)
@settings(max_examples=60)
def test_stuffle_matches_enumeration_oracle(pair):
    u, v = pair
    got = product(mono(*u), mono(*v), "stuffle")
    assert {w.letters: c for w, c in got.terms.items()} == {
        k: Fraction(c) for k, c in stuffle_oracle(u, v).items()
    }


# -- frozen product examples --------------------------------------------------

def test_shuffle_square_of_letter():
    assert mono(1).shuffle(mono(1)) == 2 * mono(1, 1)


def test_stuffle_of_two_letters():
    assert mono(1).stuffle(mono(2)) == mono(1, 2) + mono(2, 1) + mono(3)


def test_stuffle_y2_with_y2y1():
    expected = 2 * mono(2, 2, 1) + mono(2, 1, 2) + mono(4, 1) + mono(2, 3)
    assert mono(2).stuffle(mono(2, 1)) == expected


def test_empty_word_is_the_unit_for_all_products():
    w = mono(3, 1)
    for kind in ("concat", "shuffle", "stuffle"):
        assert product(w, one, kind) == w
        assert product(one, w, kind) == w


def test_unknown_product_kind():
    with pytest.raises(ValueError):
        product(one, one, "cup")


@given(word_pairs)
@settings(max_examples=40)
def test_shuffle_and_stuffle_commute(pair):
    u, v = pair
    for kind in ("shuffle", "stuffle"):
        assert product(mono(*u), mono(*v), kind) == product(mono(*v), mono(*u), kind)


@given(st.tuples(small_words, small_words, small_words).filter(lambda t: sum(map(sum, t)) <= 6))
@settings(max_examples=40)
def test_products_are_associative(triple):
    u, v, w = (mono(*t) for t in triple)
    for kind in ("concat", "shuffle", "stuffle"):
        assert product(product(u, v, kind), w, kind) == product(u, product(v, w, kind), kind)


@given(word_pairs)
@settings(max_examples=40)
def test_products_are_weight_homogeneous(pair):
    u, v = pair
    target = sum(u) + sum(v)
    for kind in ("concat", "shuffle", "stuffle"):
        got = product(mono(*u), mono(*v), kind)
        assert all(w.weight == target for w in got.terms)


# -- coproducts ---------------------------------------------------------------

def tensor(p, q):
    return TensorPolynomial.tensor(p, q)


def test_stuffle_coproduct_of_y2():
    got = coproduct(mono(2), "stuffle")
    assert got == tensor(mono(2), one) + tensor(one, mono(2)) + tensor(mono(1), mono(1))


def test_deconcatenation_of_y1y2():
    got = coproduct(mono(1, 2), "concat")
    assert got == tensor(one, mono(1, 2)) + tensor(mono(1), mono(2)) + tensor(mono(1, 2), one)


def test_plus_coproduct_of_y3():
    got = coproduct(mono(3), "plus")
    assert got == tensor(mono(1), mono(2)) + tensor(mono(2), mono(1))


def test_plus_coproduct_rejects_longer_words():
    size = _word_coproduct.cache_info().currsize
    with pytest.raises(ValueError, match="only defined on letters"):
        coproduct(mono(1, 1), "plus")
    assert _word_coproduct.cache_info().currsize == size  # the exception is not cached
    assert coproduct(mono(1), "plus").is_zero()  # no splittings of 1


def test_shuffle_coproduct_of_letters_is_primitive():
    for n in range(1, 5):
        assert is_primitive(mono(n), "shuffle")


@given(small_words)
@settings(max_examples=40)
def test_coproducts_are_coassociative(letters):
    for kind in ("concat", "shuffle", "stuffle"):
        t = coproduct(mono(*letters), kind)
        lhs: dict = {}
        rhs: dict = {}
        for (u, v), c in t.terms.items():
            for (a, b), d in coproduct(NCPolynomial.word(u), kind).terms.items():
                key = (a, b, v)
                lhs[key] = lhs.get(key, Fraction(0)) + c * d
            for (a, b), d in coproduct(NCPolynomial.word(v), kind).terms.items():
                key = (u, a, b)
                rhs[key] = rhs.get(key, Fraction(0)) + c * d
        assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


@given(small_words)
@settings(max_examples=40)
def test_counit_laws(letters):
    p = mono(*letters)
    for kind in ("concat", "shuffle", "stuffle"):
        t = coproduct(p, kind)
        left = NCPolynomial([(v, c) for (u, v), c in t.terms.items() if len(u) == 0])
        right = NCPolynomial([(u, c) for (u, v), c in t.terms.items() if len(v) == 0])
        assert left == p and right == p


@given(word_pairs)
@settings(max_examples=30)
def test_shuffle_and_stuffle_coproducts_are_concat_morphisms(pair):
    u, v = (mono(*t) for t in pair)
    for kind in ("shuffle", "stuffle"):
        assert coproduct(u * v, kind) == coproduct(u, kind) * coproduct(v, kind)


def test_adjunction_exhaustive_weight_5():
    ws = words_up_to(5)
    for kind in ("shuffle", "stuffle"):
        for w in ws:
            t = coproduct(NCPolynomial.word(w), kind)
            for u in ws:
                for v in ws:
                    if u.weight + v.weight != w.weight:
                        continue
                    lhs = t.coeff(u, v)
                    rhs = product(NCPolynomial.word(u), NCPolynomial.word(v), kind).coeff(w)
                    assert lhs == rhs, (kind, w, u, v)


# -- pairing ------------------------------------------------------------------

def test_pairing_examples():
    assert pairing(mono(1, 2), mono(1, 2)) == 1
    assert pairing(mono(1).shuffle(mono(2)), mono(2, 1)) == 1
    assert pairing(mono(3, 1), NCPolynomial.zero()) == 0


def test_pairing_is_bilinear():
    p = 2 * mono(1) - mono(2)
    q = mono(1) + 3 * mono(2)
    assert pairing(p, q) == 2 * 1 + (-1) * 3


# -- exp / log ----------------------------------------------------------------
# A polynomial truncated by weight is a TSeries whose t-degree is the word
# weight, so its exp and log are Graded.exp and Graded.log.

def graded(p, bound):
    """p as a TSeries of the given bound, the words of weight n at t^n."""
    return TSeries({n: NCPolynomial({w: c for w, c in p.terms.items() if w.weight == n}) for n in p.weights()}, bound)


def flat(x):
    """The word -> coefficient map of a weight-graded TSeries."""
    return {w: c for q in x.coeffs.values() for w, c in q.terms.items()}


def test_exp_of_letter():
    assert graded(mono(1), 2).exp() == graded(one + mono(1) + mono(1, 1) / 2, 2)


def test_log_of_one_plus_letter():
    expected = mono(1) - mono(1, 1) / 2 + mono(1, 1, 1) / 3
    assert graded(one + mono(1), 3).log() == graded(expected, 3)


def test_exp_log_round_trip():
    p = graded(mono(2) + mono(1), 4)
    assert p.exp().log() == p


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        graded(one + mono(1), 3).exp()
    with pytest.raises(ValueError):
        graded(mono(1), 3).log()


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(small_words.filter(lambda t: 0 < sum(t) <= 4), st.integers(-3, 3)),
        min_size=1,
        max_size=4,
    )
)
def test_exp_log_round_trip_random(term_list):
    p = graded(NCPolynomial([(Word(w), c) for w, c in term_list]), 4)
    assert p.exp().log() == p
    assert (TSeries.one(4) + p).log().exp() == TSeries.one(4) + p


def test_power_sum_stops_at_the_first_zero_power():
    zero = graded(NCPolynomial.zero(), 3)
    assert zero._power_sum(lambda k: pytest.fail("summed a zero power")) == zero
    # z = [1] t: z^2 = [1 1] t^2, and z^3 lies above the bound 2, so it is zero and not summed
    z, calls = graded(mono(1), 2), []
    got = z._power_sum(lambda k: calls.append(k) or Fraction(1, k))
    assert got == graded(mono(1) + mono(1, 1) / 2, 2) and calls == [1, 2]


# -- arithmetic and serialization ----------------------------------------------

def test_polynomial_arithmetic():
    p = mono(1) + mono(2)
    assert p - p == NCPolynomial.zero()
    assert -p + p == NCPolynomial.zero()
    assert (p * 0).is_zero()
    assert p / 2 + p / 2 == p
    assert p.counit() == 0
    assert (one + p).counit() == 1
    assert p.max_weight() == 2
    assert p.coeff((2,)) == 1


def test_canonical_text_form():
    p = one + 2 * mono(1, 1) + mono(2) / 2
    assert poly_str(p) == "1 + 2·[1 1] + 1/2·[2]"
    assert poly_str(NCPolynomial.zero()) == "0"
    assert poly_str(-mono(1) + mono(2)) == "-[1] + [2]"


def test_text_parse_examples():
    assert parse_poly("1 + 2·[1 1] + 1/2·[2]") == one + 2 * mono(1, 1) + mono(2) / 2
    assert parse_poly("-[1] + [2]") == -mono(1) + mono(2)
    assert parse_poly("0").is_zero()
    with pytest.raises(ValueError):
        parse_poly("1/0·[1]")
    with pytest.raises(ValueError):
        parse_poly("1e100000000·[1]")


@pytest.mark.parametrize("s", ["[1_0]", "2·[٣ +1]", "[٣]", "[+2]", "[1 +2]", "[1,,2]", "[-1]"])
def test_parse_poly_reads_letters_as_ascii_digit_runs(s):
    # int() would read "1_0" as 10, "٣" as 3 and "+2" as 2
    with pytest.raises(ValueError):
        parse_poly(s)


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(small_words, st.fractions(max_denominator=6)),
        max_size=5,
    )
)
def test_text_and_json_round_trips(term_list):
    p = NCPolynomial([(Word(w), c) for w, c in term_list])
    assert parse_poly(poly_str(p)) == p
    assert poly_from_json(poly_to_json(p)) == p


# Raw characters of the grammar, and runs of whole tokens, which parse far
# more often than raw characters do.
poly_text = st.one_of(
    st.text(alphabet="0123456789[] +-/·e,", max_size=20),
    st.lists(
        st.sampled_from(["[", "]", "1", "2", "0", " ", " + ", " - ", "-", "/", "·", "e", "[1 2]"]),
        max_size=8,
    ).map("".join),
)


@settings(max_examples=300)
@given(poly_text)
def test_parse_poly_raises_or_round_trips(s):
    try:
        p = parse_poly(s)
    except ValueError:
        return
    assert parse_poly(poly_str(p)) == p

def test_tensor_polynomial_basics():
    t = tensor(mono(1), mono(2)) + tensor(mono(2), mono(1))
    assert t.coeff((1,), (2,)) == 1
    assert (t - t).is_zero()
    u = tensor(one, one)
    assert t * u == t
    assert 2 * t == t + t


# -- the shared sparse core ------------------------------------------------------

SPARSE_CONTAINERS = {
    "concat": (NCPolynomial, lambda a, b: product(a, b, "concat")),
    "shuffle": (NCPolynomial, lambda a, b: product(a, b, "shuffle")),
    "stuffle": (NCPolynomial, lambda a, b: product(a, b, "stuffle")),
    "S": (lambda terms: SymElement(terms, "S"), lambda a, b: a * b),
    "M": (lambda terms: QSymElement(terms, "M"), lambda a, b: a * b),
}


@st.composite
def cancelling_terms(draw):
    """A sparse term list in which some terms recur with the opposite sign."""
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    keys = small_words.filter(lambda t: sum(t) <= 3)
    terms = draw(st.lists(st.tuples(keys, coeffs), max_size=4))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    return terms + [(key, -c) for key, c in cancelled]


@pytest.mark.parametrize("kind", sorted(SPARSE_CONTAINERS))
@settings(max_examples=30)
@given(a=cancelling_terms(), b=cancelling_terms(), c=cancelling_terms())
def test_sparse_core_drops_zeros_and_is_bilinear(kind, a, b, c):
    make, prod = SPARSE_CONTAINERS[kind]
    x, y, z = make(a), make(b), make(c)
    for v in (x, y, z, x + y, x - x, prod(x, z), prod(y, z), prod(x + y, z)):
        assert all(isinstance(coeff, Fraction) and coeff != 0 for coeff in v.terms.values())
    assert (x - x).terms == {}
    assert prod(x + y, z) == prod(x, z) + prod(y, z)


# -- the integer core against the Fraction oracle ---------------------------------

import fraction_oracle as oracle  # noqa: E402
from qshuffle import bases  # noqa: E402
from qshuffle.bases import pi1  # noqa: E402
from qshuffle.lyndon import lyndon_up_to  # noqa: E402


def _words_up_to(n, include_empty=True):
    return st.sampled_from([w.letters for w in words_up_to(n, include_empty)])


@st.composite
def rational_terms(draw, keys=_words_up_to(4)):
    """A term list with negative coefficients and mixed denominators, in
    which some terms recur with the opposite sign, so that sums cancel."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    terms = draw(st.lists(st.tuples(keys, coeffs), max_size=5))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    return terms + [(key, -c) for key, c in cancelled]


def _poly_and_oracle(terms):
    return (
        NCPolynomial([(Word(w), c) for w, c in terms]),
        oracle.accumulate((Word(w), Fraction(c)) for w, c in terms),
    )


def _assert_equality_follows_terms(*values):
    for x in values:
        oracle.assert_canonical(x)
        for y in values:
            assert (x == y) == (x.terms == y.terms)


@pytest.mark.parametrize("kind", ["concat", "shuffle", "stuffle"])
@settings(max_examples=40, deadline=None)
@given(a=rational_terms(), b=rational_terms())
def test_products_match_the_fraction_oracle(kind, a, b):
    (p, pd), (q, qd) = _poly_and_oracle(a), _poly_and_oracle(b)
    assert p.terms == pd and q.terms == qd
    got = product(p, q, kind)
    assert got.terms == oracle.product(pd, qd, kind)
    assert (p + q).terms == oracle.accumulate([*pd.items(), *qd.items()])
    assert (p - q).terms == oracle.accumulate([*pd.items(), *((w, -c) for w, c in qd.items())])
    _assert_equality_follows_terms(p, q, got, product(q, p, kind), p - p, p + q - q)


@pytest.mark.parametrize("kind", ["concat", "shuffle", "stuffle", "plus"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coproducts_match_the_fraction_oracle(kind, data):
    letters_only = st.tuples(st.integers(1, 5)) if kind == "plus" else _words_up_to(4)
    p, pd = _poly_and_oracle(data.draw(rational_terms(keys=letters_only)))
    got = coproduct(p, kind)
    assert got.terms == oracle.coproduct(pd, kind)
    _assert_equality_follows_terms(got, coproduct(p + p, kind), got - got)


@pytest.mark.parametrize("kind", ["concat", "shuffle", "stuffle"])
@pytest.mark.parametrize("c", [1, 3, Fraction(-1, 2)])
def test_one_term_coproducts_match_the_fraction_oracle(kind, c):
    # the one-term path wraps the cached word coproduct; every word of weight <= 6
    for w in words_up_to(6):
        got = coproduct(NCPolynomial.word(w, c), kind)
        assert got.terms == oracle.coproduct({w: Fraction(c)}, kind), w
        oracle.assert_canonical(got)


def test_word_coproducts_built_on_their_prefix_match_the_letter_fold_of_the_oracle():
    # same pairs, numerators and key order as the oracle's fold letter by letter
    for w in words_up_to(7):
        for kind in ("shuffle", "stuffle"):
            want = oracle._word_coproduct(w, kind)
            got = _word_coproduct(w.letters, kind)
            assert list(got.items()) == [((u.letters, v.letters), c) for (u, v), c in want.items()], (w, kind)


@settings(max_examples=30, deadline=None)
@given(a=rational_terms(keys=_words_up_to(3, include_empty=False)))
def test_exp_and_log_match_the_fraction_oracle(a):
    p, pd = _poly_and_oracle(a)
    e = graded(p, 4).exp()
    assert flat(e) == oracle.exp_trunc(pd, 4)
    l = graded(one + p, 4).log()
    assert flat(l) == oracle.log_trunc(oracle.accumulate([*pd.items(), (Word(), Fraction(1))]), 4)
    values = (e, l, graded(p, 4))
    for x in values:
        oracle.assert_graded_canonical(x)
        for y in values:
            assert (x == y) == (flat(x) == flat(y))


def _primitive_pool(kind):
    # elements primitive for the kind (none for the contraction coproduct,
    # whose letters split into pairs of letters)
    if kind in ("concat", "plus"):
        return [mono(n) for n in range(1, 5)]
    lyndon = lyndon_up_to(4)
    if kind == "shuffle":
        return [bases.p_basis(l) for l in lyndon]
    return [bases.pi_basis(l) for l in lyndon] + [pi1(Word((n,))) for n in range(1, 5)]


@pytest.mark.parametrize("kind", ["concat", "shuffle", "stuffle", "plus"])
@settings(max_examples=40, deadline=None)
@given(terms=rational_terms(), pick=st.integers(0, 11), c=st.fractions(min_value=-3, max_value=3, max_denominator=4))
@example(terms=[], pick=0, c=Fraction(0))  # the zero polynomial
@example(terms=[((), Fraction(1, 2))], pick=0, c=Fraction(1))  # a nonzero constant term
@example(terms=[((1, 2), Fraction(1))], pick=1, c=Fraction(2))  # a primitive plus a non-primitive word
def test_is_primitive_matches_the_tensor_sum_oracle(kind, terms, pick, c):
    if kind == "plus":  # the contraction coproduct takes letters only
        terms = [((sum(w),), a) for w, a in terms if w]
    pool = _primitive_pool(kind)
    prim, p = pool[pick % len(pool)], NCPolynomial([(Word(w), a) for w, a in terms])
    assert is_primitive(prim, kind) is (kind != "plus")
    for x in (p, prim * c, prim * c + p):
        assert is_primitive(x, kind) is oracle.is_primitive(x, kind)


def test_is_primitive_counts_a_constant_term_twice():
    # p (x) 1 + 1 (x) p holds 2c at e (x) e for a constant term c, the
    # coproduct c, so no nonzero constant is primitive
    for kind in ("concat", "shuffle", "stuffle"):
        for p in (one / 2, one * 3, pi1(Word((2,))) + one):
            assert not is_primitive(p, kind) and not oracle.is_primitive(p, kind)
        assert is_primitive(NCPolynomial.zero(), kind) and oracle.is_primitive(NCPolynomial.zero(), kind)
    for p in (one, mono(1, 1)):
        for test in (is_primitive, oracle.is_primitive):
            with pytest.raises(ValueError):
                test(p, "plus")


def test_pairing_is_one_integer_dot_returning_a_fraction():
    p = mono(1) / 3 - mono(2) / 4
    q = mono(1) * Fraction(3, 5) + mono(2) * 2
    got = pairing(p, q)
    assert type(got) is Fraction and got == Fraction(1, 5) - Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(rational_terms(), max_size=4),
    cols=st.lists(
        st.one_of(rational_terms(), rational_terms(keys=st.sampled_from(words_of_weight(5)))),
        max_size=4,
    ),
)
def test_gram_matches_the_per_pair_pairing(rows, cols):
    # mixed denominators, cancelling (zero) elements, the empty word, and
    # weight-5 columns whose support no row shares
    rows = [NCPolynomial([(Word(w), c) for w, c in t]) for t in rows] + [one, NCPolynomial.zero()]
    cols = [NCPolynomial([(Word(w), c) for w, c in t]) for t in cols] + [NCPolynomial.zero(), one]
    got = list(gram(rows, cols))
    assert len(got) == len(rows)
    for row, acc in zip(rows, got):
        assert all(type(n) is int for n in acc.values())
        assert set(acc) <= {j for j, col in enumerate(cols) if row._nums.keys() & col._nums.keys()}
        entries = [Fraction(acc.get(j, 0), row._den * col._den) for j, col in enumerate(cols)]
        assert entries == [pairing(row, col) for col in cols]


def test_gram_of_no_rows_or_no_columns():
    assert list(gram([], [one])) == []
    assert list(gram([one, mono(1)], [])) == [{}, {}]


def test_gram_matches_the_per_key_oracle_on_the_duality_blocks():
    # the four pairing matrices up to weight 8, both ways round, against
    # one dict update per (row term, column) pair; zero entries dropped
    for dual, primal, _ in bases.PAIRS.values():
        for n in range(1, 9):
            ws = words_of_weight(n)
            primals = [bases.basis_element(primal, u).value for u in ws]
            duals = [bases.basis_element(dual, v).value for v in ws]
            for rows, cols in ((primals, duals), (duals, primals)):
                expected = [{j: x for j, x in acc.items() if x} for acc in oracle.gram(rows, cols)]
                assert list(gram(rows, cols)) == expected, (primal, dual, n)


_slot_values = st.one_of(
    st.integers(-50, 50), st.integers(2**100, 2**130), st.integers(-(2**130), -(2**100))
)
_slot_vectors = st.dictionaries(st.integers(0, 12), _slot_values, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_slot_vectors, _slot_values), max_size=5),
    data=st.data(),
)
def test_packed_sums_of_scaled_rows_unpack_to_their_exact_totals(rows, data):
    # sum_i c_i·a_i with negative and huge entries; some rows recur with the
    # opposite scale, so totals cancel, and a zero total is left out
    if rows:
        rows = rows + [(a, -c) for a, c in data.draw(st.lists(st.sampled_from(rows), max_size=len(rows)))]
    totals: dict = {}
    for a, c in rows:
        for s, n in a.items():
            totals[s] = totals.get(s, 0) + c * n
    width = _width(sum(sum(map(abs, a.values())) * abs(c) for a, c in rows))
    got = _unpack(sum(_pack(a.items(), width) * c for a, c in rows), width)
    assert got == {s: t for s, t in totals.items() if t}


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 160),
    signs=st.lists(st.sampled_from((-1, 0, 1)), max_size=12),
    shift=_slot_values,
)
def test_totals_at_the_width_limit_unpack_exactly(width, signs, shift):
    # every total is 0 or +-(2^(width-1) - 1), the largest a slot of this
    # width holds, reached through terms that overflow it on their own
    top = (1 << width - 1) - 1
    assert _width(top) == width and _width(top + 1) == width + 1
    totals = {s: e * top for s, e in enumerate(signs)}
    x = _pack(((s, t + shift) for s, t in totals.items()), width) - _pack(((s, shift) for s in totals), width)
    assert _unpack(x, width) == {s: t for s, t in totals.items() if t}


def test_a_slot_width_below_2_raises_instead_of_looping():
    # width 1 holds no nonzero signed residue: _unpack(1, 1) read slot 0 as
    # -1 and shifted 1 back in forever, growing its result; the timer turns
    # such a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("_unpack did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    try:
        for x, width in ((1, 1), (-1, 1), (6, 1), (2**100 + 1, 1), (5, 0)):
            with pytest.raises(ValueError, match="width >= 2"):
                _unpack(x, width)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # bound 0: every total is 0, so the packed int is 0 at width 1
    assert _width(0) == 1 and _unpack(0, 1) == {} and _unpack(0, 0) == {}


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.dictionaries(st.integers(0, 5), _slot_values, max_size=5), max_size=5),
    slots=st.dictionaries(st.integers(0, 6), st.dictionaries(st.integers(0, 9), _slot_values, max_size=5)),
)
def test_packed_product_matches_the_dict_matmul(rows, slots):
    # negative and huge entries and row keys the matrix lacks; key 7 repeats
    # the list of key 0, so a row that adds n at key 0 and -n at key 7
    # cancels slot by slot, and a zero total is left out
    matrix = {k: list(items.items()) for k, items in slots.items()}
    matrix[7] = matrix.get(0, [])
    rows = rows + [{**row, 7: -row[0]} for row in rows if 0 in row] + [{0: 3, 7: -3}]
    expected = []
    for row in rows:
        acc: dict = {}
        for k, n in row.items():
            for s, m in matrix.get(k, ()):
                acc[s] = acc.get(s, 0) + n * m
        expected.append({s: t for s, t in acc.items() if t})
    assert expected[-1] == {}
    assert list(_packed_product([row.items() for row in rows], matrix)) == expected


# -- one coefficient coercion, read-only terms ------------------------------------

def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        NCPolynomial({Word((1,)): 0.1})
    with pytest.raises(TypeError):
        NCPolynomial.word((1,), 0.5)
    with pytest.raises(TypeError):
        TensorPolynomial({(Word((1,)), Word()): 0.5})
    with pytest.raises(TypeError):
        mono(1) * 0.5
    with pytest.raises(TypeError):
        mono(1) / 2.0
    with pytest.raises(TypeError):
        SymElement({(1,): 0.5}, "S")
    # exact text is read as a rational
    assert NCPolynomial({Word((1,)): "1/10"}) == mono(1) / 10


def test_terms_are_read_only_views():
    p = 2 * mono(1) - mono(2) / 3
    t = coproduct(p, "stuffle")
    for value, key in ((p, Word((1,))), (t, (Word((1,)), Word())), (pi1(Word((3,))), Word((3,)))):
        before = dict(value.terms)
        with pytest.raises(TypeError):
            value.terms[key] = Fraction(5)
        with pytest.raises(TypeError):
            del value.terms[key]
        with pytest.raises(AttributeError):
            value.terms.clear()
        with pytest.raises(AttributeError):
            value.terms = {}
        assert value.terms is value.terms and dict(value.terms) == before
    assert str(pi1(Word((3,)))) == "1/3·[1 1 1] - 1/2·[1 2] - 1/2·[2 1] + [3]"


@pytest.mark.parametrize(
    "call",
    [
        lambda: graded(mono(1), -1).exp(),
        lambda: graded(mono(1), 1.5).exp(),
        lambda: graded(one + mono(1), -3).log(),
        lambda: graded(one + mono(1), "2").log(),
    ],
    ids=["exp-negative", "exp-float", "log-negative", "log-text"],
)
def test_exp_and_log_take_a_weight_bound_that_is_an_integer_at_least_zero(call):
    # the weight-truncated exp of y1 at bound -1 once returned 1, and the log of 1 + y1 at -3 gave 0
    with pytest.raises(ValueError, match="expected an integer"):
        call()


# -- inline accumulation against one add_into call per pair -----------------------

_word_keys = _words_up_to(3)
_nonzero = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).filter(bool)

# every kernel the package passes to bilinear, keyed by the terms it takes
_KERNELS = {
    "concat_words": (concat_words, _word_keys),
    "shuffle_words": (shuffle_words, _word_keys),
    "stuffle_words": (stuffle_words, _word_keys),
    "concat_pairs": (concat_pairs, st.tuples(_word_keys, _word_keys)),
    # the kernel of TensorPolynomial.tensor
    "tensor": (lambda u, v: (((u, v), 1),), _word_keys),
    "empty": (lambda u, v: (), _word_keys),
}


@pytest.mark.parametrize("name", sorted(_KERNELS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bilinear_matches_one_add_into_per_pair(name, data):
    kernel, keys = _KERNELS[name]
    p = data.draw(st.dictionaries(keys, _nonzero, max_size=4))
    q = data.draw(st.dictionaries(keys, _nonzero, max_size=4))
    full = oracle.bilinear(p, q, kernel)
    hit = sorted(full)
    # out preloaded as Graded._times leaves it: some keys the product cancels
    # to 0, some it changes, and one it never reaches
    cancel = data.draw(st.lists(st.sampled_from(hit), unique=True)) if hit else []
    shift = data.draw(st.dictionaries(st.sampled_from(hit), _nonzero)) if hit else {}
    partial = {**{k: -full[k] for k in cancel}, **shift, ("untouched",): 7}
    for out in (None, {}, partial, {k: -c for k, c in full.items()}):
        new = bilinear(p, q, kernel, None if out is None else dict(out))
        assert new == oracle.bilinear(p, q, kernel, None if out is None else dict(out))
        assert 0 not in new.values()
    assert bilinear(p, q, kernel, {k: -c for k, c in full.items()}) == {}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_concat_branch_of_bilinear_matches_the_generic_loop(data):
    # only concat_words itself takes the inline branch; a wrapper of it runs
    # the generic loop, one kernel call per pair of terms
    generic = lambda a, b: concat_words(a, b)
    p = data.draw(st.dictionaries(_word_keys, _nonzero, max_size=5))
    q = data.draw(st.dictionaries(_word_keys, _nonzero, max_size=5))
    full = bilinear(p, q, generic)
    hit = sorted(full)
    cancel = data.draw(st.lists(st.sampled_from(hit), unique=True)) if hit else []
    shift = data.draw(st.dictionaries(st.sampled_from(hit), _nonzero)) if hit else {}
    partial = {**{k: -full[k] for k in cancel}, **shift, (9,): 7}
    for out in (None, {}, partial, {k: -c for k, c in full.items()}):
        new = bilinear(p, q, concat_words, None if out is None else dict(out))
        assert new == bilinear(p, q, generic, None if out is None else dict(out))
        assert 0 not in new.values()


def test_the_concat_branch_of_bilinear_deletes_a_key_that_cancels():
    # [1]·[1 1] and [1 1]·(-[1]) meet at [1 1 1] and cancel inside the product;
    # [1]·(-[1]) cancels the preloaded [1 1]
    p, q = {(1,): 1, (1, 1): 1}, {(1, 1): 1, (1,): -1}
    assert bilinear(p, q, concat_words) == {(1, 1): -1, (1, 1, 1, 1): 1}
    assert bilinear(p, q, concat_words, {(1, 1): 1, (2,): 3}) == {(1, 1, 1, 1): 1, (2,): 3}


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    preload=st.dictionaries(_word_keys, _nonzero, max_size=4),
    items=st.lists(st.tuples(_word_keys, st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3))),
    scale=st.sampled_from([1, Fraction(1), 0, -1, 3, Fraction(-2, 3)]),
)
def test_add_into_matches_the_per_item_scale_test(data, preload, items, scale):
    # zero items, repeated keys, and items that cancel preloaded keys to 0
    if preload:
        undo = data.draw(st.lists(st.sampled_from(sorted(preload)), unique=True))
        items = items + [(k, -Fraction(preload[k]) / scale if scale else 1) for k in undo]
    new = add_into(dict(preload), items, scale)
    assert new == oracle.add_into(dict(preload), items, scale)
    assert 0 not in new.values()
    if scale == 1:
        assert add_into(dict(preload), items) == oracle.add_into(dict(preload), items) == new
