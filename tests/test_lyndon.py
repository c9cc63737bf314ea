import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle.lyndon import (
    is_lyndon,
    lyndon_count,
    lyndon_factorization,
    lyndon_up_to,
    mobius,
    standard_factorization,
)
from qshuffle.words import Word, words_up_to

nonempty_words = st.lists(st.integers(1, 4), min_size=1, max_size=6).map(
    lambda ls: Word(ls)
)


def test_is_lyndon_examples():
    assert is_lyndon(Word((2, 1)))  # y_2 < y_1 in this order
    assert not is_lyndon(Word((1, 2)))
    assert is_lyndon(Word((1,)))
    assert not is_lyndon(Word(()))


def rotations(w: Word):
    ls = w.letters
    return [Word(ls[i:] + ls[:i]) for i in range(len(ls))]


def is_primitive_word(w: Word) -> bool:
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w.letters[:d] * (n // d) == w.letters:
            return False
    return True


@given(nonempty_words)
@settings(max_examples=120)
def test_lyndon_iff_primitive_and_minimal_rotation(w):
    # independent classical characterization used as a cross-check
    expected = is_primitive_word(w) and all(w <= r for r in rotations(w)) and (
        len(w) == 1 or all(w < r for r in rotations(w)[1:])
    )
    assert is_lyndon(w) == expected


def test_enumeration_small_weights():
    got = {w.letters for w in lyndon_up_to(3)}
    assert got == {(1,), (2,), (3,), (2, 1)}
    weight4 = {w.letters for w in lyndon_up_to(4) if w.weight == 4}
    assert weight4 == {(4,), (3, 1), (2, 1, 1)}


def test_counts_match_frozen_table_and_formula():
    expected = [1, 1, 2, 3, 6, 9, 18]
    ws = lyndon_up_to(7)
    got = [sum(1 for w in ws if w.weight == n) for n in range(1, 8)]
    assert got == expected
    assert [lyndon_count(n) for n in range(1, 8)] == expected


def test_counts_formula_agrees_with_enumeration_to_8():
    ws = lyndon_up_to(8)
    for n in range(1, 9):
        assert sum(1 for w in ws if w.weight == n) == lyndon_count(n)


@pytest.mark.parametrize("n", [0, -2])
def test_lyndon_count_rejects_weights_below_1(n):
    with pytest.raises(ValueError):
        lyndon_count(n)


def test_duval_enumeration_matches_the_definition_to_weight_9():
    words = [w for w in words_up_to(9, include_empty=False) if is_lyndon(w)]
    assert lyndon_up_to(9) == sorted(words, key=lambda w: (w.weight, w.letters))


def test_standard_factorization_is_the_longest_lyndon_suffix_to_weight_10():
    # the definitional search the Duval-based factorization replaced
    for l in lyndon_up_to(10):
        if len(l) >= 2:
            i = next(i for i in range(1, len(l)) if is_lyndon(l[i:]))
            assert standard_factorization(l) == (l[:i], l[i:]), l


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        mobius(0)


def test_standard_factorization_examples():
    assert standard_factorization(Word((2, 1))) == (Word((2,)), Word((1,)))
    assert standard_factorization(Word((2, 1, 1))) == (Word((2, 1)), Word((1,)))
    assert standard_factorization(Word((3, 2, 1))) == (Word((3,)), Word((2, 1)))


def test_standard_factorization_errors():
    with pytest.raises(ValueError):
        standard_factorization(Word((1, 2)))  # not Lyndon
    with pytest.raises(ValueError):
        standard_factorization(Word((3,)))  # single letter


def test_standard_factorization_properties():
    for l in lyndon_up_to(6):
        if len(l) < 2:
            continue
        s, r = standard_factorization(l)
        assert s * r == l
        assert is_lyndon(s) and is_lyndon(r)
        assert s < l < r
        # r is the longest proper Lyndon suffix
        longer = [l[i:] for i in range(1, len(l) - len(r))]
        assert all(not is_lyndon(suffix) for suffix in longer)


def test_lyndon_factorization_examples():
    f = lyndon_factorization(Word((1, 2)))
    assert f.factors == ((Word((1,)), 1), (Word((2,)), 1))
    f = lyndon_factorization(Word((2, 1)))
    assert f.factors == ((Word((2, 1)), 1),)
    f = lyndon_factorization(Word((1, 1, 2)))
    assert f.factors == ((Word((1,)), 2), (Word((2,)), 1))


def test_lyndon_factorization_rejects_empty():
    with pytest.raises(ValueError):
        lyndon_factorization(Word(()))


def test_reconstruction_exhaustive_weight_6():
    for w in words_up_to(6, include_empty=False):
        f = lyndon_factorization(w)
        assert f.word() == w
        factors = [l for l, _ in f.factors]
        assert all(is_lyndon(l) for l in factors)
        assert all(a > b for a, b in zip(factors, factors[1:]))
        assert all(mult >= 1 for _, mult in f.factors)


@given(nonempty_words)
@settings(max_examples=80)
def test_reconstruction_random(w):
    f = lyndon_factorization(w)
    assert f.word() == w
    factors = [l for l, _ in f.factors]
    assert all(a > b for a, b in zip(factors, factors[1:]))
