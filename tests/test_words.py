from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle.lyndon import lyndon_up_to
from qshuffle.words import (
    Word,
    as_int,
    blocks_of,
    comp_str,
    compositions_of,
    compositions_up_to,
    mirror,
    pairs_of_weight,
    parse_comp,
    parse_word,
    refinement_count,
    refinements,
    relative_stats,
    stats,
    word_str,
    words_of_weight,
    words_up_to,
)

from fraction_oracle import coarsenings

compositions = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple)


def test_stats_122():
    s = stats((1, 2, 2))
    assert s.l == 3
    assert s.w == 5
    assert s.lp == 2
    assert s.pi == 4
    assert s.pi_u == 1 * 3 * 5
    assert s.sp == 4 * 6
    assert s.mirror == (2, 2, 1)


def test_stats_empty():
    s = stats(())
    assert (s.l, s.w, s.pi, s.pi_u, s.sp) == (0, 0, 1, 1, 1)
    assert s.lp is None
    assert s.mirror == ()


def test_stats_single():
    s = stats((3,))
    assert (s.l, s.w, s.lp, s.pi, s.pi_u, s.sp) == (1, 3, 3, 3, 3, 3)


def test_stats_are_cached_per_validated_composition():
    # a word and its letter tuple share one frozen value; the parts are
    # checked before the cache is read, so bad parts still raise
    assert stats(Word((1, 2))) is stats((1, 2)) is stats([1, 2])
    with pytest.raises(AttributeError):
        stats((1, 2)).pi = 0
    for bad in ((0,), (1, -2), (1.5,), ("2",)):
        with pytest.raises(ValueError):
            stats(bad)


def test_refinements_of_2():
    assert refinements((2,)) == [((2,), [(2,)]), ((1, 1), [(1, 1)])]


def test_refinements_of_1_2():
    assert refinements((1, 2)) == [
        ((1, 2), [(1,), (2,)]),
        ((1, 1, 1), [(1,), (1, 1)]),
    ]


def test_refinements_of_empty():
    assert refinements(()) == [((), [])]


def test_relative_stats_11_over_2():
    r = relative_stats((1, 1), (2,))
    assert (r.l, r.lp, r.pi_u, r.sp) == (2, 1, 2, 2)


def test_relative_stats_reflexive():
    r = relative_stats((3, 1), (3, 1))
    assert (r.l, r.lp, r.pi_u, r.sp) == (1, 3, 3, 3)


def test_relative_stats_111_over_12():
    r = relative_stats((1, 1, 1), (1, 2))
    assert (r.l, r.lp, r.pi_u, r.sp) == (2, 1, 2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: stats((1.5,)),
        lambda: stats((0, -1)),
        lambda: refinements((0,)),
        lambda: refinement_count((0,)),
        lambda: blocks_of((0, 1), (1,)),
        lambda: blocks_of((1,), (1, 0)),
        lambda: relative_stats((0, 1), (1,)),
    ],
    ids=["stats-float", "stats-negative", "refinements", "refinement_count", "blocks-finer",
         "blocks-coarser", "relative_stats"],
)
def test_composition_parts_must_be_integers_at_least_one(call):
    # refinement_count((0,)) returned 0.5, refinements((0,)) [((), [()])],
    # stats float and negative statistics, and blocks_of took a zero part
    with pytest.raises(ValueError):
        call()
    assert stats(()).l == 0 and refinement_count(()) == 1


def test_relative_stats_requires_refinement():
    with pytest.raises(ValueError):
        relative_stats((3,), (2, 1))
    with pytest.raises(ValueError):
        blocks_of((2, 2), (3, 1))


@given(compositions)
def test_mirror_is_an_involution(comp):
    assert mirror(mirror(comp)) == comp


@given(compositions.filter(lambda c: sum(c) <= 6))
def test_refinement_count_and_weights(comp):
    refs = refinements(comp)
    assert len(refs) == refinement_count(comp)
    seen = set()
    for j, blocks in refs:
        assert sum(j) == sum(comp)
        assert tuple(x for b in blocks for x in b) == j
        assert [sum(b) for b in blocks] == list(comp)
        seen.add(j)
    assert len(seen) == len(refs)
    assert comp in seen


@given(compositions.filter(lambda c: sum(c) <= 6))
def test_coarsenings_invert_refinements(comp):
    # the coarsening oracle that the ribbon rows are checked against
    for j in coarsenings(comp):
        assert [sum(b) for b in blocks_of(comp, j)] == list(j)
    assert all(comp in {r for r, _ in refinements(j)} for j in coarsenings(comp))


def test_compositions_of_counts():
    for n in range(1, 8):
        assert len(compositions_of(n)) == 2 ** (n - 1)
    assert compositions_of(0) == [()]


def test_compositions_up_to_ordering():
    comps = compositions_up_to(3)
    assert comps[0] == ()
    assert [sum(c) for c in comps] == sorted(sum(c) for c in comps)


@pytest.mark.parametrize(
    "call",
    [
        lambda: compositions_of(-1),
        lambda: compositions_of(2.0),
        lambda: compositions_up_to(-2),
        lambda: words_of_weight(-1),
        lambda: words_of_weight(Fraction(2)),
        lambda: words_up_to(-1),
        lambda: words_up_to("3"),
        lambda: lyndon_up_to(-1),
        lambda: lyndon_up_to(2.0),
    ],
    ids=[
        "compositions-negative", "compositions-float", "compositions-up-to", "words-negative",
        "words-fraction", "words-up-to", "words-up-to-text", "lyndon-negative", "lyndon-float",
    ],
)
def test_enumeration_bounds_must_be_integers_at_least_zero(call):
    # words_up_to(-1) used to list the empty word and compositions_up_to(-2)
    # the empty composition; the bound is read before the caches, so 2.0
    # raises even with the entry for 2 cached
    compositions_of(2), lyndon_up_to(2)
    with pytest.raises(ValueError, match="expected an integer"):
        call()


def test_callers_cannot_corrupt_the_enumeration_caches():
    expected = {
        compositions_of: [(3,), (1, 2), (2, 1), (1, 1, 1)],
        words_of_weight: [Word((3,)), Word((1, 2)), Word((2, 1)), Word((1, 1, 1))],
        lyndon_up_to: [Word((1,)), Word((2,)), Word((2, 1)), Word((3,))],
    }
    for enumerate_, value in expected.items():
        got = enumerate_(3)
        assert got == value
        got.reverse()
        got.append(got[0])
        del got[0]
        assert enumerate_(3) == value
        enumerate_(3).clear()
        assert enumerate_(3) == value


# -- the word order ---------------------------------------------------------

def test_letter_order_is_reversed_on_indices():
    y1, y2, y3 = Word((1,)), Word((2,)), Word((3,))
    assert y1 > y2 > y3
    assert y2 < y1


def test_prefixes_precede_extensions():
    assert Word((2,)) < Word((2, 1))
    assert Word((1,)) < Word((1, 5))


def test_word_comparison_mixed():
    assert Word((2, 1)) < Word((1,))
    assert Word((1, 2)) > Word((2,))
    assert Word((2, 1)) > Word((2, 2))  # second letter decides, y_1 > y_2


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0, 1))
    with pytest.raises(ValueError):
        Word((-2,))


def _old_word_letters(letters):
    # Word.__init__ before its all-int fast path
    ls = tuple(map(as_int, letters))
    if any(a < 1 for a in ls):
        raise ValueError(f"letter indices must be >= 1: {ls!r}")
    return ls


def _outcome(f, make):
    try:
        got = f(make())
    except (TypeError, ValueError) as e:
        return type(e), str(e)
    return got, [type(a) for a in got]


def test_word_accepts_and_rejects_as_before():
    # the all-int fast path gives the letters, or the exception and message,
    # of the general as_int path
    for make in [
        lambda: (),
        lambda: [],
        lambda: (1, 2, 3),
        lambda: [3, 1],
        lambda: range(1, 4),
        lambda: iter([2, 1]),
        lambda: (True,),
        lambda: (2, False),
        lambda: (1.0,),
        lambda: (2, 1.5),
        lambda: (Fraction(2),),
        lambda: ("2",),
        lambda: "12",
        lambda: (0,),
        lambda: (-1,),
        lambda: (2, 0, "x"),
        lambda: 5,
    ]:
        assert _outcome(lambda ls: Word(ls).letters, make) == _outcome(_old_word_letters, make), make()


def test_word_concat_and_slices():
    w = Word((2, 1, 3))
    assert w[:1] * w[1:] == w
    assert w[0] == 2
    assert len(w) == 3
    assert w.weight == 6


def test_words_of_weight():
    assert [w.letters for w in words_of_weight(3)] == [(3,), (1, 2), (2, 1), (1, 1, 1)]


# -- text encodings ---------------------------------------------------------

def test_word_text_forms():
    assert word_str(Word((1, 2, 2))) == "1 2 2"
    assert word_str(Word()) == "e"
    assert parse_word("1 2 2") == Word((1, 2, 2))
    assert parse_word("e") == Word()
    assert parse_word("") == Word()
    assert parse_word(" 1 , 2 2") == Word((1, 2, 2))
    for text in ("1,,2", ",", "1,2,", ",1"):
        with pytest.raises(ValueError, match="empty part"):
            parse_word(text)
    # int() alone reads each of these tokens as an integer
    for text, bad in (("1_0", "1_0"), ("٣", "٣"), ("+2", "+2"), ("1 2_0", "2_0"), ("1,1_2", "1_2")):
        with pytest.raises(ValueError) as err:
            parse_word(text)
        assert str(err.value) == f"invalid literal for int() with base 10: {bad!r}"


def test_comp_text_forms():
    assert comp_str((1, 2)) == "(1,2)"
    assert comp_str(()) == "()"
    assert parse_comp("(1,2)") == (1, 2)
    assert parse_comp("()") == ()
    assert parse_comp("e") == ()
    assert parse_comp("1 2") == (1, 2)
    assert parse_comp("(1, 2)") == (1, 2)
    for text in ("1,,2", ",", "(,1)", "1,2,", "(1,2,)"):
        with pytest.raises(ValueError, match="empty part"):
            parse_comp(text)
    for text, bad in (("(+2, 1_1)", "+2"), ("(2, 1_1)", "1_1"), ("(٣)", "٣"), ("1 ²", "²")):
        with pytest.raises(ValueError) as err:
            parse_comp(text)
        assert str(err.value) == f"invalid literal for int() with base 10: {bad!r}"
    # "-1" and "0" still reach the part check, as before
    for text in ("(-1,2)", "0"):
        with pytest.raises(ValueError, match="parts must be >= 1"):
            parse_comp(text)


def test_pairs_of_weight():
    pairs = pairs_of_weight(3)
    assert len(pairs) == len(set(pairs)) == sum(
        len(compositions_of(i)) * len(compositions_of(3 - i)) for i in range(4)
    )
    assert all(sum(i) + sum(j) == 3 for i, j in pairs)
    assert pairs_of_weight(0) == [((), ())]
    assert pairs_of_weight(2, words_of_weight)[:2] == [(Word(), Word((2,))), (Word(), Word((1, 1)))]


@given(compositions)
def test_text_round_trips(comp):
    w = Word(comp)
    assert parse_word(word_str(w)) == w
    assert parse_comp(comp_str(comp)) == comp


# -- parser fuzzing: every string raises ValueError or round-trips ----------
# Each text strategy mixes raw characters of the grammar with runs of whole
# tokens, which parse far more often than raw characters do.

word_text = st.one_of(
    st.text(alphabet="0123456789 ,e-+x", max_size=16),
    st.lists(st.sampled_from(["1", "2", "12", "0", " ", ",", "e", "-", "x"]), max_size=8).map("".join),
)
comp_text = st.one_of(
    st.text(alphabet="()0123456789 ,e-+", max_size=16),
    st.lists(st.sampled_from(["(", ")", "1", "2", "12", "0", " ", ",", "e", "-"]), max_size=8).map("".join),
)


@settings(max_examples=300)
@given(word_text)
def test_parse_word_raises_or_round_trips(s):
    try:
        w = parse_word(s)
    except ValueError:
        return
    assert parse_word(word_str(w)) == w


@settings(max_examples=300)
@given(comp_text)
def test_parse_comp_raises_or_round_trips(s):
    try:
        comp = parse_comp(s)
    except ValueError:
        return
    assert parse_comp(comp_str(comp)) == comp
