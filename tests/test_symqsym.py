import itertools
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle.bases import pi1, r_elements
from qshuffle.ncpoly import NCPolynomial, _word_coproduct, coproduct, product
from qshuffle.symqsym import (
    QSYM_BASES,
    SYM_BASES,
    QSeries,
    QSymElement,
    SymElement,
    cauchy_check,
    convert,
    decode_M,
    decode_S,
    element_str,
    element_to_json,
    encode_M,
    encode_S,
    hall_littlewood_check,
    hl_product,
    lambda_in_phi_oracle,
    lambda_in_psi_oracle,
    parse_element,
    pairing_ext,
    phi_in_lambda_oracle,
    psi_in_lambda_oracle,
    qsym_coproduct,
    qsym_product,
    specialize_Mq,
    sym_coproduct,
    _row,
)
from qshuffle.words import Word, compositions_up_to, refinements, relative_stats, stats

S = lambda *parts: SymElement.single(tuple(parts), "S")
M = lambda *parts: QSymElement.single(tuple(parts), "M")

compositions = st.lists(st.integers(1, 3), min_size=0, max_size=4).map(tuple).filter(
    lambda c: sum(c) <= 6
)


# -- basis changes ------------------------------------------------------------

def test_psi_2_in_complete_basis():
    got = convert(SymElement.single((2,), "Psi"), "S")
    assert got == 2 * S(2) - S(1, 1)


def test_lambda_2_in_complete_basis():
    got = convert(SymElement.single((2,), "Lambda"), "S")
    assert got == S(1, 1) - S(2)


def test_phi_2_both_directions():
    assert convert(SymElement.single((2,), "Phi"), "S") == 2 * S(2) - S(1, 1)
    got = convert(S(2), "Phi")
    phi = lambda *p: SymElement.single(tuple(p), "Phi")
    assert got == phi(2) / 2 + phi(1, 1) / 2


def test_s11_in_ribbons():
    got = convert(S(1, 1), "Rib")
    rib = lambda *p: SymElement.single(tuple(p), "Rib")
    assert got == rib(1, 1) + rib(2)


def test_lambda_3_in_complete_basis():
    got = convert(SymElement.single((3,), "Lambda"), "S")
    assert got == S(1, 1, 1) - S(1, 2) - S(2, 1) + S(3)


def test_round_trips_weight_5():
    for basis in ("Lambda", "Psi", "Phi", "Rib"):
        for comp in compositions_up_to(5):
            e = SymElement.single(comp, "S")
            assert convert(convert(e, basis), "S") == e, (basis, comp)
            b = SymElement.single(comp, basis)
            assert convert(convert(b, "S"), basis) == b, (basis, comp)
    for comp in compositions_up_to(5):
        e = QSymElement.single(comp, "M")
        assert convert(convert(e, "F"), "M") == e, comp


@settings(max_examples=25)
@given(
    st.lists(st.tuples(compositions, st.fractions(max_denominator=4)), max_size=4),
    st.sampled_from(("Lambda", "Psi", "Phi", "Rib")),
)
def test_round_trips_random_elements(term_list, basis):
    e = SymElement(term_list, "S")
    assert convert(convert(e, basis), "S") == e


def test_degree_one_generators_coincide():
    expected = S(1)
    for basis in ("Lambda", "Psi", "Phi", "Rib"):
        assert convert(SymElement.single((1,), basis), "S") == expected


def test_convert_validates_targets():
    with pytest.raises(ValueError):
        convert(S(1), "M")
    with pytest.raises(ValueError):
        convert(M(1), "S")
    with pytest.raises(ValueError):
        SymElement.single((1,), "Q")


def test_conversions_are_weight_homogeneous():
    for basis in ("Lambda", "Psi", "Phi", "Rib"):
        for comp in compositions_up_to(5, include_empty=False):
            e = convert(SymElement.single(comp, basis), "S")
            assert all(sum(c) == sum(comp) for c in e.terms)


def test_mirror_equivariance_where_it_holds():
    # Lambda, Phi and Rib expansions commute with the mirror map; the first
    # power sums do not (their S-expansion weights the *last* part of each
    # block), so Psi is checked separately below.
    for basis in ("Lambda", "Phi", "Rib"):
        for comp in compositions_up_to(4, include_empty=False):
            e = convert(SymElement.single(comp, basis), "S")
            mirrored = convert(SymElement.single(stats(comp).mirror, basis), "S")
            assert {stats(c).mirror: v for c, v in e.terms.items()} == mirrored.terms, (
                basis,
                comp,
            )


def test_mirror_exchanges_first_power_sums_with_left_seeds():
    from qshuffle.bases import l_elements

    psi3 = convert(SymElement.single((3,), "Psi"), "S")
    mirrored = SymElement({stats(c).mirror: v for c, v in psi3.terms.items()}, "S")
    assert mirrored != psi3  # Psi is *not* mirror-equivariant
    # mirror reversal sends the R-seeded primitives to the L-seeded ones
    for comp in compositions_up_to(4, include_empty=False):
        ls = l_elements(max(comp))
        psi = convert(SymElement.single(comp, "Psi"), "S")
        reversed_l = NCPolynomial.one()
        for part in stats(comp).mirror:
            reversed_l = reversed_l * ls[part - 1]
        got = SymElement({stats(c).mirror: v for c, v in psi.terms.items()}, "S")
        assert got == encode_S(reversed_l), comp


# -- displayed-pair oracles (mirror statistics) --------------------------------

def test_mirror_oracles_match_s_routed_conversions():
    for comp in compositions_up_to(4):
        lam = SymElement.single(comp, "Lambda")
        psi = SymElement.single(comp, "Psi")
        phi = SymElement.single(comp, "Phi")
        assert lambda_in_psi_oracle(comp) == convert(lam, "Psi"), comp
        assert psi_in_lambda_oracle(comp) == convert(psi, "Lambda"), comp
        assert lambda_in_phi_oracle(comp) == convert(lam, "Phi"), comp
        assert phi_in_lambda_oracle(comp) == convert(phi, "Lambda"), comp


@pytest.mark.parametrize(
    "mirror_oracle", [lambda_in_psi_oracle, psi_in_lambda_oracle, lambda_in_phi_oracle, phi_in_lambda_oracle]
)
def test_mirror_oracles_reject_a_part_below_one(mirror_oracle):
    # lambda_in_psi_oracle((0,)) raised TypeError from inside
    with pytest.raises(ValueError):
        mirror_oracle((0,))


def test_literal_printed_sign_fails_at_weight_2():
    lam2 = SymElement.single((2,), "Lambda")
    assert lambda_in_psi_oracle((2,), literal_sign=True) != convert(lam2, "Psi")
    # the Phi variant with the printed exponent w(J) - l(I)
    comp = (2,)
    literal = SymElement(
        [(j, Fraction((-1) ** (sum(j) - len(comp)), relative_stats(j, comp).sp)) for j, _ in refinements(comp)],
        "Phi",
    )
    assert literal != lambda_in_phi_oracle(comp) == convert(lam2, "Phi")


# -- products -------------------------------------------------------------------

def test_m_star_examples():
    assert qsym_product(M(1), M(1)) == 2 * M(1, 1) + M(2)
    assert qsym_product(M(1), M(2)) == M(1, 2) + M(2, 1) + M(3)
    assert qsym_product(M(1, 2), QSymElement.unit("M")) == M(1, 2)


@settings(max_examples=30)
@given(compositions, compositions)
def test_m_star_is_commutative_and_matches_word_stuffle(a, b):
    lhs = qsym_product(M(*a), M(*b))
    assert lhs == qsym_product(M(*b), M(*a))
    word_side = encode_M(product(NCPolynomial.word(a), NCPolynomial.word(b), "stuffle"))
    assert lhs == word_side


def test_sym_product_is_concatenation_in_multiplicative_bases():
    assert S(2) * S(1, 1) == S(2, 1, 1)
    psi = lambda *p: SymElement.single(tuple(p), "Psi")
    assert psi(2) * psi(1) == psi(2, 1)


def test_ribbon_product_routes_through_s():
    rib = lambda *p: SymElement.single(tuple(p), "Rib")
    # classical multiplication of ribbons: R_1 R_1 = R_11 + R_2
    assert rib(1) * rib(1) == rib(1, 1) + rib(2)


def test_mixed_basis_addition_rejected():
    with pytest.raises(ValueError):
        S(1) + SymElement.single((1,), "Psi")


# -- coproducts -------------------------------------------------------------------

def test_sym_coproduct_of_s2():
    got = sym_coproduct(S(2))
    assert got == {
        ((), (2,)): Fraction(1),
        ((1,), (1,)): Fraction(1),
        ((2,), ()): Fraction(1),
    }


def test_power_sums_are_primitive():
    for basis in ("Psi", "Phi"):
        for n in range(1, 7):
            x = SymElement.single((n,), basis)
            got = sym_coproduct(x)
            xs = convert(x, "S").terms
            expected: dict = {}
            for comp, c in xs.items():
                for key in ((comp, ()), ((), comp)):
                    expected[key] = expected.get(key, Fraction(0)) + c
            assert got == {k: v for k, v in expected.items() if v}, (basis, n)


def test_qsym_coproduct_deconcatenates():
    got = qsym_coproduct(M(1, 2))
    assert got == {
        ((), (1, 2)): Fraction(1),
        ((1,), (2,)): Fraction(1),
        ((1, 2), ()): Fraction(1),
    }


# -- pairing ----------------------------------------------------------------------

def test_pairing_is_kronecker_on_s_and_m():
    assert pairing_ext(S(1, 2), M(1, 2)) == 1
    assert pairing_ext(S(1, 2), M(2, 1)) == 0
    assert pairing_ext(S(), M()) == 1


def test_ribbon_fundamental_duality_weight_5():
    comps = compositions_up_to(5)
    for i in comps:
        rib = SymElement.single(i, "Rib")
        for j in comps:
            f = QSymElement.single(j, "F")
            assert pairing_ext(rib, f) == (1 if i == j else 0), (i, j)


def test_coproduct_product_adjunction_weight_4():
    comps = compositions_up_to(4)
    for k in comps:
        t = sym_coproduct(SymElement.single(k, "S"))
        for i in comps:
            for j in comps:
                if sum(i) + sum(j) != sum(k):
                    continue
                star = qsym_product(M(*i), M(*j))
                assert t.get((i, j), Fraction(0)) == star.coeff(k), (k, i, j)


def test_qsym_coproduct_concat_adjunction_weight_4():
    comps = compositions_up_to(4)
    for k in comps:
        t = qsym_coproduct(QSymElement.single(k, "M"))
        for i in comps:
            for j in comps:
                if sum(i) + sum(j) != sum(k):
                    continue
                lhs = t.get((i, j), Fraction(0))
                rhs = Fraction(1 if i + j == k else 0)
                assert lhs == rhs, (k, i, j)


# -- word encodings -----------------------------------------------------------------

def test_encode_words():
    assert encode_S(Word((2, 1))) == S(2, 1)
    assert encode_M(Word((2, 1))) == M(2, 1)
    assert decode_S(S(2, 1)) == NCPolynomial.word((2, 1))
    assert decode_M(M(2, 1)) == NCPolynomial.word((2, 1))


def test_encode_r2_is_the_first_power_sum():
    r2 = r_elements(2)[1]
    assert encode_S(r2) == convert(SymElement.single((2,), "Psi"), "S")


def test_encode_pi1_y2_is_half_the_second_power_sum():
    got = encode_S(pi1(Word((2,))))
    assert got == convert(SymElement.single((2,), "Phi"), "S") / 2


def test_power_sum_images_weight_5():
    rs = r_elements(5)
    for comp in compositions_up_to(5, include_empty=False):
        r_monomial = NCPolynomial.one()
        pi_monomial = NCPolynomial.one()
        for part in comp:
            r_monomial = r_monomial * rs[part - 1]
            pi_monomial = pi_monomial * pi1(Word((part,)))
        assert encode_S(r_monomial) == convert(SymElement.single(comp, "Psi"), "S"), comp
        expected = convert(SymElement.single(comp, "Phi"), "S") / stats(comp).pi
        assert encode_S(pi_monomial) == expected, comp


def test_encodings_are_hopf_morphisms_weight_4():
    from qshuffle.words import words_up_to

    ws = words_up_to(4)
    for u in ws:
        for v in ws:
            if u.weight + v.weight > 4:
                continue
            pu, pv = NCPolynomial.word(u), NCPolynomial.word(v)
            assert encode_S(pu * pv) == encode_S(pu) * encode_S(pv)
            assert encode_M(product(pu, pv, "stuffle")) == encode_M(pu) * encode_M(pv)
    for u in ws:
        got = sym_coproduct(encode_S(NCPolynomial.word(u)))
        expected: dict = {}
        for (a, b), c in coproduct(NCPolynomial.word(u), "stuffle").terms.items():
            key = (a.letters, b.letters)
            expected[key] = expected.get(key, Fraction(0)) + c
        assert got == {k: v for k, v in expected.items() if v}, u


# -- q-specialization ------------------------------------------------------------------

def specialize_oracle(comp, bound):
    # brute force over decreasing exponent tuples via combinations
    acc = {}
    r = len(comp)
    for exps in itertools.combinations(range(bound), r):
        decreasing = tuple(reversed(exps))
        e = sum(n * i for n, i in zip(decreasing, comp))
        if e < bound:
            acc[e] = acc.get(e, Fraction(0)) + 1
    return acc


def test_specialize_examples():
    got = specialize_Mq((1,), 4)
    assert got.coeffs == {0: 1, 1: 1, 2: 1, 3: 1}
    got = specialize_Mq((1, 1), 4)
    assert got.coeffs == {1: 1, 2: 1, 3: 2}
    assert specialize_Mq((), 4).coeffs == {0: 1}


@settings(max_examples=40)
@given(compositions.filter(lambda c: len(c) <= 3), st.integers(1, 9))
def test_specialize_matches_enumeration_oracle(comp, bound):
    assert specialize_Mq(comp, bound).coeffs == specialize_oracle(comp, bound)


def test_hall_littlewood_checks():
    assert hall_littlewood_check(2, 5)
    assert hall_littlewood_check(3, 8)


def test_hl_product_unit_coefficient():
    table = hl_product(2, 4)
    assert table[()] == QSeries.one(4)


@pytest.mark.parametrize("comp", [(0,), (-1,), (1.5,), (2, 0), ("2",)])
def test_specialize_rejects_a_part_that_is_not_an_integer_of_at_least_1(comp):
    # (0,) divided by zero, (-1,) returned 0 and (1.5,) raised TypeError
    with pytest.raises(ValueError):
        specialize_Mq(comp, 5)


@pytest.mark.parametrize(
    "call",
    [lambda q: specialize_Mq((1,), q), lambda q: hl_product(2, q), lambda q: hall_littlewood_check(2, q)],
    ids=["specialize_Mq", "hl_product", "hall_littlewood_check"],
)
def test_q_specialization_rejects_a_q_bound_below_1(call):
    # below 1 every series was truncated to 0: hall_littlewood_check(2, -3)
    # and (2, 0) passed vacuously, specialize_Mq((1,), -2) returned 0
    for q_bound in (0, -2, -3, 1.5):
        with pytest.raises(ValueError):
            call(q_bound)
    assert call(1)


def test_hl_product_rejects_a_negative_weight():
    # hall_littlewood_check(-1, 3) compared an empty table with the empty
    # composition and answered False, a silent "identity fails"
    with pytest.raises(ValueError):
        hl_product(-1, 3)
    with pytest.raises(ValueError):
        hall_littlewood_check(-1, 3)
    assert hall_littlewood_check(0, 3)


def test_qseries_arithmetic_and_text():
    a = QSeries({0: 1, 2: Fraction(1, 2)}, 5)
    b = QSeries({1: 1}, 5)
    assert (a * b).coeffs == {1: 1, 3: Fraction(1, 2)}
    assert (a + b).coeffs == {0: 1, 1: 1, 2: Fraction(1, 2)}
    assert str(a) == "1 + 1/2·q^2"
    assert str(QSeries({}, 3)) == "0"


# -- Cauchy identity ---------------------------------------------------------------------

def test_cauchy_identity_weight_5():
    assert cauchy_check(5)


# -- text and JSON forms -------------------------------------------------------------------

def test_element_text_form():
    e = convert(SymElement.single((2,), "Lambda"), "S")
    assert element_str(e) == "S:(1,1) - S:(2)"
    assert element_str(SymElement.zero("S")) == "0"
    assert element_str(SymElement.unit("S") / 2) == "1/2"


def test_parse_element_forms():
    e = parse_element("S:(1,1) - S:(2)")
    assert e == convert(SymElement.single((2,), "Lambda"), "S")
    assert parse_element("(2)", default_basis="Psi") == SymElement.single((2,), "Psi")
    assert parse_element("2·M:(1) - 1/2·M:(2)") == 2 * M(1) - M(2) / 2
    with pytest.raises(ValueError):
        parse_element("S:(1) + M:(1)")
    with pytest.raises(ValueError):
        parse_element("(1,2)")  # no basis tag and no default


@settings(max_examples=30)
@given(
    st.lists(st.tuples(compositions, st.fractions(max_denominator=5)), max_size=4),
    st.sampled_from(("S", "Lambda", "Psi", "Phi", "Rib", "M", "F")),
)
def test_element_text_round_trip(term_list, basis):
    cls = SymElement if basis in ("S", "Lambda", "Psi", "Phi", "Rib") else QSymElement
    e = cls(term_list, basis)
    assert parse_element(element_str(e), default_basis=basis) == e


# Raw characters of the grammar, and runs of whole tokens, which parse far
# more often than raw characters do.
element_text = st.one_of(
    st.text(alphabet="SMFRibL:()0123456789,·/ +-e", max_size=20),
    st.lists(
        st.sampled_from(
            ["S:", "M:", "Rib:", "X:", ":", "(", ")", "(1,2)", "1", "2", "0", ",", " + ", " - ", "-", "/", "·", " "]
        ),
        max_size=8,
    ).map("".join),
)


@settings(max_examples=300)
@given(element_text, st.sampled_from((None, "S", "Psi", "M", "F")))
def test_parse_element_raises_or_round_trips(s, default_basis):
    try:
        e = parse_element(s, default_basis=default_basis)
    except ValueError:
        return
    # An element whose only term is the empty composition prints as a bare
    # coefficient with no basis tag (see element_str), so the basis is
    # passed back in when re-parsing.
    assert parse_element(element_str(e), default_basis=e.basis) == e

def test_element_json_form():
    e = convert(SymElement.single((2,), "Lambda"), "S")
    obj = element_to_json(e)
    assert obj["basis"] == "S"
    assert obj["terms"] == [
        {"composition": [1, 1], "coeff": "1"},
        {"composition": [2], "coeff": "-1"},
    ]


# -- the integer core against the Fraction oracle ---------------------------------

import fraction_oracle as oracle  # noqa: E402

rational_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
element_terms = st.lists(st.tuples(compositions, rational_coeffs), max_size=4)


def _element_and_oracle(cls, basis, terms):
    return cls(terms, basis), oracle.accumulate((comp, Fraction(c)) for comp, c in terms)


def _assert_coproduct_matches_the_oracle(x):
    if isinstance(x, SymElement):
        got, expected = sym_coproduct(x), oracle.sym_coproduct(convert(x, "S").terms)
    else:
        got, expected = qsym_coproduct(x), oracle.qsym_coproduct(convert(x, "M").terms)
    assert isinstance(got, MappingProxyType)
    assert all(type(c) is Fraction for c in got.values())
    assert dict(got) == expected, x


@pytest.mark.parametrize("cls,basis", [(SymElement, "S"), (QSymElement, "M")])
def test_hub_coproducts_match_the_composition_oracles(cls, basis):
    # every composition of weight <= 6 in the hub basis
    for comp in compositions_up_to(6):
        _assert_coproduct_matches_the_oracle(cls.single(comp, basis))


@pytest.mark.parametrize(
    "cls,basis", [(SymElement, b) for b in ("Psi", "Phi", "Lambda", "Rib")] + [(QSymElement, "F")]
)
def test_one_part_coproducts_match_the_composition_oracles(cls, basis):
    for n in range(1, 7):
        _assert_coproduct_matches_the_oracle(cls.single((n,), basis))


@settings(max_examples=40, deadline=None)
@given(terms=element_terms, basis=st.sampled_from(SYM_BASES + QSYM_BASES))
def test_coproducts_of_random_elements_match_the_composition_oracles(terms, basis):
    _assert_coproduct_matches_the_oracle((SymElement if basis in SYM_BASES else QSymElement)(terms, basis))


@settings(max_examples=40, deadline=None)
@given(
    terms=element_terms,
    cancelled=st.lists(st.integers(0, 3), max_size=2),
    source=st.sampled_from(("S", "Lambda", "Psi", "Phi", "Rib", "M", "F")),
)
def test_convert_matches_the_fraction_oracle(terms, cancelled, source):
    # some terms recur with the opposite sign, so that sums cancel
    terms = terms + [(terms[i][0], -terms[i][1]) for i in cancelled if i < len(terms)]
    cls, targets = (QSymElement, ("M", "F")) if source in ("M", "F") else (SymElement, ("S", "Lambda", "Psi", "Phi", "Rib"))
    x, xd = _element_and_oracle(cls, source, terms)
    assert x.terms == xd
    oracle.assert_canonical(x)
    for target in targets:
        got = convert(x, target)
        assert got.terms == oracle.convert(xd, source, target), target
        oracle.assert_canonical(got)
        assert (got == x) == (got.basis == x.basis and got.terms == x.terms)


@settings(max_examples=40, deadline=None)
@given(
    x_terms=element_terms,
    y_terms=element_terms,
    x_basis=st.sampled_from(("S", "Lambda", "Psi", "Phi", "Rib")),
    y_basis=st.sampled_from(("M", "F")),
)
def test_pairing_ext_matches_the_fraction_oracle(x_terms, y_terms, x_basis, y_basis):
    (x, xd), (y, yd) = _element_and_oracle(SymElement, x_basis, x_terms), _element_and_oracle(QSymElement, y_basis, y_terms)
    got = pairing_ext(x, y)
    assert type(got) is Fraction
    assert got == oracle.pairing_ext(xd, x_basis, yd, y_basis)


_ORDERED_PAIRS = [(cls, a, b) for cls, names in ((SymElement, SYM_BASES), (QSymElement, QSYM_BASES))
                  for a, b in itertools.permutations(names, 2)]
_COEFFS = (1, 3, Fraction(-1, 2))


@pytest.mark.parametrize("cls, source, target", _ORDERED_PAIRS)
def test_one_term_conversions_match_the_fraction_oracle(cls, source, target):
    # the one-term path wraps the cached row; every composition of weight <= 6
    for comp, c in itertools.product(compositions_up_to(6), _COEFFS):
        got = convert(cls.single(comp, source, c), target)
        assert got.terms == oracle.convert({comp: Fraction(c)}, source, target), (comp, c)
        oracle.assert_canonical(got)


_DIRECT_PAIRS = list(itertools.permutations(SYM_BASES[1:], 2))


@pytest.mark.parametrize("cls, source, target", _ORDERED_PAIRS)
def test_rows_match_the_oracle_rows(cls, source, target):
    # every cached row at every composition of weight <= 7, a reduced element of the target
    # basis: against the per-refinement and coarsening formulas when the hub S or M is one end,
    # against the two-step sum otherwise
    hub, to_hub, from_hub = (
        ("S", oracle._to_s_row, oracle._from_s_row) if cls is SymElement else ("M", oracle._to_m_row, oracle._from_m_row)
    )
    for comp in compositions_up_to(7):
        row = _row(source, target, comp)
        assert type(row) is cls and row.basis == target, comp
        oracle.assert_canonical(row)
        if hub in (source, target):
            expected = dict(to_hub(source, comp) if target == hub else from_hub(target, comp))
        else:
            expected = oracle.convert({comp: Fraction(1)}, source, target)
        assert {j: Fraction(n, row._den) for j, n in row._nums.items()} == expected, comp
        for c in _COEFFS:
            got = convert(cls.single(comp, source, c), target)
            assert got.terms == {j: c * e for j, e in expected.items()}, (comp, c)
            oracle.assert_canonical(got)


_MANY_TERMS = [
    # mixed weights, the empty composition among them
    {(): 2, (1,): -1, (2, 1): Fraction(3, 2), (1, 1, 2): 1, (3, 2, 1): Fraction(-2, 5), (1, 2, 1, 2): 7},
    # coefficients that sum to zero, within one weight and across weights
    {(1, 2): 1, (2, 1): -1, (3,): 1, (1, 1, 1): -1},
    {(4,): Fraction(1, 3), (1, 3): Fraction(-1, 3), (2,): 5, (1, 1): -5},
    {},
]


@pytest.mark.parametrize("cls, source, target", _ORDERED_PAIRS)
def test_many_term_conversions_match_the_fraction_oracle(cls, source, target):
    for terms in _MANY_TERMS:
        x = cls(terms, source)
        got = convert(x, target)
        assert type(got) is cls and got.basis == target, terms
        assert got.terms == oracle.convert(dict(x.terms), source, target), terms
        oracle.assert_canonical(got)


@pytest.mark.parametrize("cls, source, target", _ORDERED_PAIRS)
def test_rebinding_the_basis_of_an_answer_leaves_the_next_answer_unchanged(cls, source, target):
    # every answer is a new element, so no caller reaches the basis slot of a cached row
    for x in (cls.single((2, 1, 3), source), cls.single((2, 1, 3), source, 3), cls(_MANY_TERMS[0], source)):
        expected = oracle.convert(dict(x.terms), source, target)
        convert(x, target).basis = source
        got = convert(x, target)
        assert got.basis == target and got.terms == expected, x


@settings(max_examples=60, deadline=None)
@given(terms=element_terms, pair=st.sampled_from(_ORDERED_PAIRS))
def test_conversions_invert_each_other(terms, pair):
    cls, source, target = pair
    x = cls(terms, source)
    assert convert(convert(x, target), source) == x


@pytest.mark.parametrize("x_basis", SYM_BASES)
def test_one_term_pairings_match_the_fraction_oracle(x_basis):
    for y_basis, (i, j), (c, d) in itertools.product(
        QSYM_BASES, itertools.product(compositions_up_to(4), repeat=2), zip(_COEFFS, _COEFFS[::-1])
    ):
        got = pairing_ext(SymElement.single(i, x_basis, c), QSymElement.single(j, y_basis, d))
        assert got == oracle.pairing_ext({i: Fraction(c)}, x_basis, {j: Fraction(d)}, y_basis), (i, j, y_basis)


def test_shared_rows_and_word_coproducts_stay_unchanged():
    # one-term conversions and coproducts share their cached dicts: no
    # operation on the values they return may change the cache
    hub_rows = [key for b, hub, comp in (("Psi", "S", (2, 1, 3)), ("Rib", "S", (1, 2, 1)), ("Phi", "S", (3,)),
                                         ("F", "M", (1, 3)))
                for key in ((b, hub, comp), (hub, b, comp))]
    direct = [(a, b, comp) for (a, b), comp in itertools.product(_DIRECT_PAIRS, ((2, 1, 3), (3,), (1, 2, 1)))]
    words = [((1, 2, 1), "stuffle"), ((2, 2), "shuffle"), ((3,), "stuffle"), ((1, 2, 1), "concat"), ((3,), "plus")]
    snapshot = lambda: ([(type(r), r.basis, dict(r._nums), r._den) for r in (_row(*key) for key in hub_rows + direct)],
                        [dict(_word_coproduct(*key)) for key in words])
    before = snapshot()
    for source, target, comp in direct:
        x = convert(SymElement.single(comp, source), target)
        for y in (x + x, x - x, -x, 3 * x, x / 2, x * x, convert(x, source), convert(x, "S"), x):
            assert y.terms is not None
        pairing_ext(x, QSymElement.single(comp, "F"))
    for source, target, comp in hub_rows:
        cls = SymElement if source in SYM_BASES else QSymElement
        x = convert(cls.single(comp, source), target)
        for y in (x + x, x - x, -x, 3 * x, x / 2, convert(x, source), x):
            assert y.terms is not None
        sym, qsym = (x, QSymElement.single(comp, "M")) if cls is SymElement else (SymElement.single(comp, "S"), x)
        pairing_ext(sym, qsym)
        sym_coproduct(sym)
    for w, kind in words:
        t = coproduct(NCPolynomial.word(w), kind)
        for u in (t + t, t - t, -t, 3 * t, t / 2, t * t, t):
            assert u.terms is not None
        sym_coproduct(SymElement.single(w, "S"))
    assert snapshot() == before


def test_one_term_queries_wrap_the_cached_dict():
    comp, w = (2, 1, 3), (1, 2, 1)
    assert _row("Psi", "S", comp)._den == _row("F", "M", comp)._den == 1
    for cls, source, target in _ORDERED_PAIRS:
        row, got = _row(source, target, comp), convert(cls.single(comp, source), target)
        assert got is not row and got._nums is row._nums, (source, target)
    assert _row("Psi", "Phi", comp)._den > 1 and _row("Rib", "Phi", comp)._den > 1
    for kind, key in (("stuffle", w), ("shuffle", w), ("concat", w), ("concat", ()), ("plus", (3,)), ("plus", (1,))):
        assert coproduct(NCPolynomial.word(key), kind)._nums is _word_coproduct(key, kind), (kind, key)
    # a one-term qsym_coproduct reads its composition's cached deconcatenation and adds no entry
    row, before = _word_coproduct(comp, "concat"), _word_coproduct.cache_info()
    assert qsym_coproduct(QSymElement.single(comp, "M")) == {k: Fraction(n) for k, n in row.items()}
    after = _word_coproduct.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_a_one_part_ribbon_of_large_weight_converts_at_once():
    # its row has one term in either direction; a table over all 2^39 codes of weight 40
    # would not end
    for source, target in (("Rib", "S"), ("S", "Rib")):
        got = convert(SymElement.single((40,), source), target)
        assert str(got) == f"{target}:(40)"
        assert got == SymElement.single((40,), target)


def test_non_integral_keys_are_rejected():
    # each was silently truncated or parsed: [1], the composition (2,), the
    # word 2 and the series q
    with pytest.raises(ValueError):
        NCPolynomial({(1.5,): 1})
    with pytest.raises(ValueError):
        convert(SymElement({(2.7,): 1}, "Psi"), "S")
    with pytest.raises(ValueError):
        Word(("2",))
    with pytest.raises(ValueError):
        QSeries({1.5: 1}, 5)


def test_convert_rejects_a_negative_part():
    # used to return 0
    with pytest.raises(ValueError):
        convert(SymElement.single((-1,), "Psi"), "S")


def test_convert_rejects_a_zero_part():
    # used to raise a TypeError from inside the conversion
    with pytest.raises(ValueError):
        convert(SymElement.single((0, 2), "Lambda"), "S")


def test_qsym_product_rejects_a_zero_part():
    # used to return a product
    with pytest.raises(ValueError):
        QSymElement.single((2, 0), "F") * QSymElement.single((1,), "M")


def test_converted_values_are_read_only():
    got = convert(SymElement.single((2, 1), "Psi"), "S")
    printed = element_str(got)
    with pytest.raises(TypeError):
        got.terms[(2, 1)] = Fraction(5)
    with pytest.raises(AttributeError):
        got.terms.clear()
    assert element_str(convert(SymElement.single((2, 1), "Psi"), "S")) == printed == element_str(got)


# -- single-term constructors against the general constructor ----------------------

_ALL_BASES = [(SymElement, b) for b in SYM_BASES] + [(QSymElement, b) for b in QSYM_BASES]


def _built(make):
    try:
        x = make()
    except (TypeError, ValueError) as e:
        return type(e), str(e)
    return type(x), x.basis, x._nums, x._den


@pytest.mark.parametrize("cls, basis", _ALL_BASES)
def test_single_equals_the_general_constructor(cls, basis):
    for comp, coeff in itertools.product(
        [(), (1,), (2, 1, 3), [1, 2], Word((3, 1))],
        [1, -3, 0, Fraction(2, 4), Fraction(0), "3/6", "-2", "0"],
    ):
        got, general = cls.single(comp, basis, coeff), cls({tuple(comp): coeff}, basis)
        assert got == general and _built(lambda: got) == _built(lambda: general), (comp, coeff)


@pytest.mark.parametrize("cls, basis", _ALL_BASES + [(SymElement, "M"), (QSymElement, "S"), (SymElement, "X")])
def test_single_raises_as_the_general_constructor(cls, basis):
    # an unknown basis is reported first, then a bad part, then the coefficient
    for comp, coeff in [
        ((0,), 1), ((2, 0), 1), ((-1,), 1), ((1.5,), 1), ((2, 1.0), 2), (("2",), 1), ((1,), 0.5), ((0,), 0.5),
    ]:
        got = _built(lambda: cls.single(comp, basis, coeff))
        assert got[0] in (TypeError, ValueError), (comp, coeff)
        assert got == _built(lambda: cls({tuple(comp): coeff}, basis)), (comp, coeff)


# -- q-series exponents ----------------------------------------------------------------

@pytest.mark.parametrize("exponent", [-1.5, 9.5, 1.5, "2", -1, -7, Fraction(2), None])
def test_qseries_rejects_an_exponent_that_is_not_a_natural_number(exponent):
    # a non-integral exponent above the bound or below 0 used to be dropped,
    # text raised a bare TypeError, and a negative one was dropped silently
    with pytest.raises(ValueError):
        QSeries({exponent: 1}, 5)
    with pytest.raises(ValueError):
        QSeries({3: 1, exponent: 1}, 5)


def test_qseries_truncates_valid_exponents_at_the_bound():
    assert QSeries({9: 1, 5: 2}, 5).is_zero()
    assert QSeries({4: 1, 5: 2, 0: 3}, 5) == QSeries({4: 1, 0: 3}, 5)
    assert QSeries({True: 2}, 5) == QSeries({1: 2}, 5)
    assert QSeries({0: 1}, 0).is_zero()
