"""Lyndon words for the order y_1 > y_2 > ...: recognition, enumeration by
weight, standard factorization, and the decreasing (Chen-Fox-Lyndon)
factorization of arbitrary words."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import Word, as_natural, words_of_weight


def is_lyndon(w: Word) -> bool:
    """Nonempty and strictly smaller than each of its proper suffixes."""
    if len(w) == 0:
        return False
    return all(w < w[i:] for i in range(1, len(w)))


def lyndon_up_to(max_weight: int) -> list[Word]:
    """All Lyndon words of weight <= max_weight, sorted by (weight, parts):
    the compositions that Duval's algorithm leaves as one factor.
    ValueError unless max_weight is an integer >= 0."""
    return list(_lyndon_up_to(as_natural(max_weight)))


@lru_cache(maxsize=None)
def _lyndon_up_to(max_weight: int) -> tuple[Word, ...]:
    out: list[Word] = []
    for n in range(1, max_weight + 1):
        out.extend(w for w in words_of_weight(n) if lyndon_factorization(w).factors == ((w, 1),))
    out.sort(key=lambda w: (w.weight, w.letters))
    return tuple(out)


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined for n >= 1")
    result, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def lyndon_count(n: int) -> int:
    """Necklace-style count of Lyndon words of weight n:
    (1/n) sum_{d | n} mobius(n/d) (2^d - 1).

    There are 2^(n-1) words of weight n in total, and this formula is the
    independent oracle for the enumeration above."""
    if n < 1:
        raise ValueError("lyndon_count is defined for n >= 1")
    total = sum(mobius(n // d) * (2**d - 1) for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise ArithmeticError(f"count formula did not divide evenly at n={n}")
    return total // n


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """l = s r with r the longest proper suffix of l that is Lyndon, which is
    the last factor of l without its first letter; both factors are then
    Lyndon.  Defined for Lyndon words of length >= 2."""
    if lyndon_factorization(w).factors != ((w, 1),):
        raise ValueError(f"{w!s} is not a Lyndon word")
    if len(w) < 2:
        raise ValueError("a single letter has no standard factorization")
    r = lyndon_factorization(w[1:]).factors[-1][0]
    return w[: len(w) - len(r)], r


@dataclass(frozen=True)
class LyndonFactorization:
    """Decreasing factorization w = l_1^(i_1) ... l_k^(i_k), l_1 > ... > l_k."""

    factors: tuple[tuple[Word, int], ...]

    def word(self) -> Word:
        out = Word()
        for l, mult in self.factors:
            for _ in range(mult):
                out = out * l
        return out


def lyndon_factorization(w: Word) -> LyndonFactorization:
    """Duval's algorithm (J. Algorithms 4, 1983), in linear time.  On letters
    a < b in the word order iff a > b as integers."""
    if len(w) == 0:
        raise ValueError("the empty word has no Lyndon factorization")
    s, n, i = w.letters, len(w), 0
    factors: list[tuple[Word, int]] = []
    while i < n:
        # s[i:j] is a power of the Lyndon word s[i:i + j - k], then a prefix
        # of it; it stops at the first letter that makes it smaller
        j, k = i + 1, i
        while j < n and s[k] >= s[j]:
            k = i if s[k] > s[j] else k + 1
            j += 1
        period = j - k
        mult = (k - i) // period + 1
        factors.append((Word._raw(s[i : i + period]), mult))
        i += mult * period
    return LyndonFactorization(tuple(factors))
