"""Words over the indexed alphabet {y_1, y_2, ...} and integer compositions.

A word y_{i_1}...y_{i_k} is stored as its tuple of letter indices
(i_1, ..., i_k), which is also how the matching composition is written; the
two notions are identified throughout.  The alphabet carries the total order
y_1 > y_2 > y_3 > ..., i.e. the letter with the *smaller* index is the
*greater* letter.  Every word comparison in this package is the lexicographic
extension of that order, with a proper prefix preceding its extensions.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Iterator

Composition = tuple[int, ...]


class Word:
    """Immutable word over {y_n : n >= 1}."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        ls = tuple(letters)
        if not {int}.issuperset(map(type, ls)):
            # bool, int subclasses and index types read as ints; anything
            # else raises as_int's ValueError at its first bad letter
            ls = tuple(map(as_int, ls))
        if ls and min(ls) < 1:
            raise ValueError(f"letter indices must be >= 1: {ls!r}")
        self.letters = ls

    @classmethod
    def _raw(cls, letters: tuple) -> "Word":
        # letters must already be a tuple of ints >= 1, e.g. a kernel output
        w = cls.__new__(cls)
        w.letters = letters
        return w

    @property
    def weight(self) -> int:
        return sum(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word._raw(self.letters[i])
        return self.letters[i]

    def __mul__(self, other: "Word") -> "Word":
        return Word._raw(self.letters + other.letters)

    def __hash__(self) -> int:
        return hash(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    # Order y_1 > y_2 > ... : on letters, a < b iff the index of a is larger.
    def __lt__(self, other: "Word") -> bool:
        for a, b in zip(self.letters, other.letters):
            if a != b:
                return a > b
        return len(self.letters) < len(other.letters)

    def __le__(self, other: "Word") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Word") -> bool:
        return other < self

    def __ge__(self, other: "Word") -> bool:
        return other <= self

    def __repr__(self) -> str:
        return f"Word({word_str(self)!r})"

    def __str__(self) -> str:
        return word_str(self)


def _letters(w) -> Composition:
    # a word or a composition as its validated tuple of parts >= 1
    return w.letters if type(w) is Word else Word(w).letters


def as_int(a) -> int:
    """a itself if it is an integer; ValueError for a float, Fraction or text."""
    try:
        return operator.index(a)
    except TypeError:
        raise ValueError(f"expected an integer, got {a!r}") from None


def as_natural(a) -> int:
    """as_int(a), with a ValueError for a negative integer as well."""
    n = as_int(a)
    if n < 0:
        raise ValueError(f"expected an integer >= 0, got {n!r}")
    return n


def sort_key(w: Word) -> tuple[int, Composition]:
    """Canonical display/serialization order: weight, then parts."""
    return (w.weight, w.letters)


# ---------------------------------------------------------------------------
# text encodings
# ---------------------------------------------------------------------------

def word_str(w: Word | Composition) -> str:
    """Space-separated letter indices; the empty word is written "e"."""
    parts = w.letters if isinstance(w, Word) else tuple(w)
    return " ".join(str(a) for a in parts) if parts else "e"


_INT = re.compile(r"-?[0-9]+")


def _int(tok: str) -> int:
    if not _INT.fullmatch(tok):
        raise ValueError(f"invalid literal for int() with base 10: {tok!r}")
    return int(tok)


def _parts(s: str) -> list[int]:
    """The integers of "1 2", "1,2" or "1, 2"; ValueError on an empty part,
    as in "1,,2", "1,2," or ",", and on a token that is not an ASCII digit
    run with an optional minus, as in "1_0", "+2" or "٣"."""
    chunks = s.split(",")
    if any(not chunk.strip() for chunk in chunks):
        raise ValueError(f"empty part in {s!r}")
    return [_int(tok) for chunk in chunks for tok in chunk.split()]


def parse_word(s: str) -> Word:
    s = s.strip()
    if s in ("", "e"):
        return Word()
    return Word(_parts(s))


def comp_str(parts: Composition) -> str:
    """Parenthesized composition, e.g. (1,2); the empty composition is ()."""
    return "(" + ",".join(str(p) for p in parts) + ")"


def parse_comp(s: str) -> Composition:
    """Accepts "(1,2)", "1 2", "e", "()" and "" (the last three are empty).

    Raises ValueError on unbalanced parentheses, on an empty part and on
    parts below 1."""
    s = s.strip()
    if s.startswith("(") or s.endswith(")"):
        if len(s) < 2 or not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"unbalanced parentheses in composition {s!r}")
        s = s[1:-1].strip()
    if s in ("", "e"):
        return ()
    parts = tuple(_parts(s))
    if any(p < 1 for p in parts):
        raise ValueError(f"composition parts must be >= 1: {parts!r}")
    return parts


def parse_coeff(s: str) -> Fraction:
    """Exact rational coefficient such as "3", "-1/2"; ValueError on a zero
    denominator, on exponent notation (whose size is unbounded) and on any
    other malformed text."""
    if "e" in s.lower():
        raise ValueError(f"exponent notation is not accepted in coefficient {s.strip()!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {s.strip()!r}") from None


def signed_str(items) -> str:
    """"a + b - c" from (coefficient, label) pairs: a coefficient of
    magnitude 1 prints its label alone, an empty label the bare
    coefficient; "0" when there are no pairs."""
    pieces = []
    for c, label in items:
        mag = -c if c < 0 else c
        body = label if mag == 1 and label else f"{mag}·{label}" if label else str(mag)
        pieces.append(((" - " if c < 0 else " + ") if pieces else ("-" if c < 0 else "")) + body)
    return "".join(pieces) or "0"


def signed_terms(s: str) -> list[tuple[int, str | None, str]]:
    """Splits the text of a sum such as "2·[1] - [2]" into one (sign,
    coefficient text or None, rest) triple per term; "" and "0" have none."""
    s = s.strip()
    if not s or s == "0":
        return []
    out = []
    for tok in s.replace(" - ", " + -").split(" + "):
        tok = tok.strip()
        sign = -1 if tok.startswith("-") else 1
        if sign < 0:
            tok = tok[1:].strip()
        cs, tok = tok.split("·", 1) if "·" in tok else (None, tok)
        out.append((sign, cs, tok.strip()))
    return out


# ---------------------------------------------------------------------------
# composition statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositionStats:
    l: int
    w: int
    lp: int | None  # None for the empty composition, which has no last part
    pi: int
    pi_u: int
    sp: int
    mirror: Composition


@dataclass(frozen=True)
class RelativeStats:
    l: int
    lp: int
    pi_u: int
    sp: int


def mirror(parts: Composition) -> Composition:
    return tuple(reversed(parts))


def stats(parts: Composition) -> CompositionStats:
    """Length, weight, last part, part product, partial-sum product and
    sp = pi * l!, together with the mirror image.  Empty-product conventions
    give pi = pi_u = sp = 1 on the empty composition.  Cached; frozen."""
    return _stats(_letters(parts))


@lru_cache(maxsize=None)
def _stats(parts: Composition) -> CompositionStats:
    pi = prod(parts) if parts else 1
    acc, pi_u = 0, 1
    for p in parts:
        acc += p
        pi_u *= acc
    return CompositionStats(
        l=len(parts),
        w=sum(parts),
        lp=parts[-1] if parts else None,
        pi=pi,
        pi_u=pi_u,
        sp=pi * factorial(len(parts)),
        mirror=mirror(parts),
    )


# ---------------------------------------------------------------------------
# the partial-sum code of a word or composition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _code(w: Composition) -> int:
    """The bit set of the partial sums of w: bit s is set when a nonempty
    prefix of w has weight s, so the empty word is 0, the top bit is the
    weight, the code of a concatenation u·v is _code(u) | _code(v) << sum(u)
    and J is coarser than I exactly when _code(J) is a subset of _code(I)
    with the same top bit."""
    code = s = 0
    for a in w:
        s += a
        code |= 1 << s
    return code


@lru_cache(maxsize=None)
def _decode(code: int) -> Composition:
    """The word (composition) whose `_code` is code."""
    sums = [s for s in range(1, code.bit_length()) if code >> s & 1]
    return tuple(b - a for a, b in zip([0] + sums, sums))


# ---------------------------------------------------------------------------
# refinement order (J finer than I: J splits each part of I)
# ---------------------------------------------------------------------------

def compositions_of(n: int) -> list[Composition]:
    """All compositions of n, sorted by (length, parts); ValueError unless n
    is an integer >= 0."""
    return list(_compositions(as_natural(n)))


@lru_cache(maxsize=None)
def _compositions(n: int) -> tuple[Composition, ...]:
    # n = a + m with a the first part: every composition of m, a prepended
    if n == 0:
        return ((),)
    out = [(a, *c) for a in range(1, n + 1) for c in _compositions(n - a)]
    return tuple(sorted(out, key=lambda c: (len(c), c)))


def compositions_up_to(n: int, include_empty: bool = True) -> list[Composition]:
    out = [()] if include_empty else []
    for k in range(1, as_natural(n) + 1):
        out.extend(_compositions(k))
    return out


def words_of_weight(n: int) -> list[Word]:
    return [Word._raw(c) for c in _compositions(as_natural(n))]


def words_up_to(n: int, include_empty: bool = True) -> list[Word]:
    return [Word._raw(c) for c in compositions_up_to(n, include_empty)]


def pairs_of_weight(n: int, of_weight=compositions_of) -> list[tuple]:
    """Every pair (u, v) with u in of_weight(i) and v in of_weight(n - i),
    i = 0..n: the compositions (or, with words_of_weight, the words) whose
    weights sum to n, so that a check over pairs loops by weight block."""
    return [(u, v) for i in range(n + 1) for u in of_weight(i) for v in of_weight(n - i)]


def refinements(parts: Composition) -> list[tuple[Composition, list[Composition]]]:
    """Every J finer than or equal to I, with the block decomposition
    J = (J_1, ..., J_k), w(J_p) = i_p.  Results sorted by (length, parts);
    the relation is reflexive, so I itself is always listed."""
    per_part = [compositions_of(p) for p in _letters(parts)]
    out = []
    for blocks in itertools.product(*per_part):
        flat = tuple(itertools.chain.from_iterable(blocks))
        out.append((flat, list(blocks)))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def refinement_count(parts: Composition) -> int:
    return prod(2 ** (p - 1) for p in _letters(parts))


def blocks_of(finer: Composition, coarser: Composition) -> list[Composition]:
    """Block decomposition of J w.r.t. I; raises if J does not refine I."""
    finer, coarser, blocks = _letters(finer), _letters(coarser), []
    pos = 0
    for part in coarser:
        acc, start = 0, pos
        while acc < part:
            if pos >= len(finer):
                raise ValueError(f"{finer} does not refine {coarser}")
            acc += finer[pos]
            pos += 1
        if acc != part:
            raise ValueError(f"{finer} does not refine {coarser}")
        blocks.append(finer[start:pos])
    if pos != len(finer):
        raise ValueError(f"{finer} does not refine {coarser}")
    return blocks


def relative_stats(finer: Composition, coarser: Composition) -> RelativeStats:
    """Blockwise products l(J,I), lp(J,I), pi_u(J,I), sp(J,I)."""
    blocks = blocks_of(finer, coarser)
    bs = [stats(b) for b in blocks]
    return RelativeStats(
        l=prod(s.l for s in bs) if bs else 1,
        lp=prod(s.lp for s in bs) if bs else 1,
        pi_u=prod(s.pi_u for s in bs) if bs else 1,
        sp=prod(s.sp for s in bs) if bs else 1,
    )
