"""Noncommutative polynomials over the indexed alphabet with exact rational
coefficients.

Carries the three products (concatenation, shuffle, quasi-shuffle), the four
coproducts (deconcatenation, shuffle, quasi-shuffle, and the letterwise
contraction coproduct), the counit, the word pairing, and weight-truncated
exp/log, summed like every truncated power series by `_series_sum`.

Every sparse container of the package stands on `Sparse`, the one
coefficient core: tuple keys map to integer numerators over one positive
denominator, reduced so that no numerator is zero and the gcd of the
denominator and all numerators is 1.  The structure constants of all three
products are nonnegative integers, so products, coproducts, sums and
pairings run on ints.  `fractions.Fraction` values appear only where a
value is read through `.terms`, `coeff` or a pairing; everything is exact.
`Graded` is the same core split into buckets by grade, for the truncated
series: the diagonal series of `factorization` and the letter series of
`bases`.  `gram`, the factorization flatten and the round trips of `verify`,
sums of outer products, run on ints packed by Kronecker substitution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .words import Word, _letters, as_natural, parse_coeff, parse_word, signed_str, signed_terms, sort_key, word_str

PRODUCT_KINDS = ("concat", "shuffle", "stuffle")
COPRODUCT_KINDS = ("concat", "shuffle", "stuffle", "plus")


def add_into(out: dict, items: Iterable, scale: int | Fraction = 1) -> dict:
    """Adds scale·c to out[key] for every (key, c) in items and returns out.
    scale defaults to 1; a zero item is skipped and a key whose total becomes
    0 is deleted, so an out that holds no zero value keeps holding none.
    This is the accumulate step of the sparse core; `bilinear` inlines it."""
    get = out.get
    for key, c in items:
        if c := scale * c:
            if cur := get(key, 0) + c:
                out[key] = cur
            else:
                del out[key]
    return out


def bilinear(p: Mapping, q: Mapping, kernel, out: dict | None = None) -> dict:
    """Bilinear extension of kernel(a, b) -> ((key, n), ...) over the term
    maps p and q, added into out (a new dict by default) and returned.  The
    maps hold no zero value; each term costs one read and one store of out,
    and a key whose total becomes 0 is deleted, so out never holds a zero.
    Under `concat_words` the key a + b is built inline, with no kernel call."""
    out = {} if out is None else out
    get = out.get
    if kernel is concat_words:
        for a, ca in p.items():
            for b, cb in q.items():
                if cur := get(key := a + b, 0) + ca * cb:
                    out[key] = cur
                else:
                    out.pop(key, None)
        return out
    for a, ca in p.items():
        for b, cb in q.items():
            c = ca * cb
            for key, n in kernel(a, b):
                if cur := get(key, 0) + c * n:
                    out[key] = cur
                else:
                    out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# the coefficient core
# ---------------------------------------------------------------------------

def _coeff(c) -> int | Fraction:
    # the one coefficient coercion: exact values only
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, str):
        return parse_coeff(c)
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def _integral(items) -> tuple[dict, int]:
    """(key, coefficient) pairs -> ({key: integer numerator}, common
    denominator); repeated keys add up and zero totals are dropped.  The
    result is not reduced."""
    pairs = [(k, _coeff(c)) for k, c in items]
    den = lcm(*(c.denominator for _, c in pairs))
    return add_into({}, ((k, c.numerator * (den // c.denominator)) for k, c in pairs)), den


def _reduced(maps: list[dict], den: int) -> tuple[list[dict], int]:
    """Divides den and every numerator of the maps by their gcd."""
    g = den
    for m in maps:
        if g == 1:
            return maps, den
        g = gcd(g, *m.values())
    if g == 1:
        return maps, den
    return [{k: n // g for k, n in m.items()} for m in maps], den // g


def _lincomb(pairs) -> tuple[dict, int]:
    """The sum of c·x over (x, c) pairs, with x a core value and c an int or
    Fraction, as (numerators, denominator); not reduced."""
    pairs = [(x, c) for x, c in pairs if x._nums and c]
    den = lcm(*(x._den * c.denominator for x, c in pairs))
    out: dict = {}
    for x, c in pairs:
        f = c.numerator * (den // (x._den * c.denominator))
        if out:
            add_into(out, x._nums.items(), f)
        else:
            out = dict(x._nums) if f == 1 else {k: n * f for k, n in x._nums.items()}
    return out, den


def _series_sum(x, step, coeff):
    """sum_{k>=1} coeff(k)·x_k, x_1 = x and x_{k+1} = step(x_k), up to the
    first zero x_k, which the caller's input checks guarantee.  It uses only
    `*`, `+` and `is_zero`, so it serves polynomials and series alike."""
    out, k = x * 0, 1
    while not x.is_zero():
        out, x, k = out + x * coeff(k), step(x), k + 1
    return out


def fraction_view(items, den: int, label=lambda k: k) -> MappingProxyType:
    """Read-only label(key) -> Fraction(numerator, den) map of the items."""
    return MappingProxyType({label(k): Fraction(n, den) for k, n in items})


class Sparse:
    """The coefficient core: tuple key -> integer numerator over one positive
    denominator, in reduced form.  Values never change after construction, so
    a value may share its numerator dict with a cache, never mutated either;
    `.terms` is a read-only view of key -> Fraction, built on first read.

    A subclass sets `_key` (an outside key -> the stored tuple, validating
    it) and `_label` (a stored tuple -> the key shown in `.terms`), and
    overrides `_like` when it carries more than its terms."""

    __slots__ = ("_nums", "_den", "_terms")
    _key = staticmethod(_letters)
    _label = staticmethod(lambda k: k)

    def __init__(self, terms: Mapping | Iterable | None = None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        key = self._key
        self._set(*_integral((key(k), c) for k, c in items))

    def _set(self, nums: dict, den: int) -> None:
        """Stores nums over den in reduced form.  nums holds no zero
        numerator (the accumulation contract of `add_into` and `bilinear`);
        den > 0 may share a factor with it, which one gcd divides out."""
        if den != 1 and (g := gcd(den, *nums.values())) != 1:
            nums, den = {k: n // g for k, n in nums.items()}, den // g
        self._nums, self._den, self._terms = nums, den, None

    @classmethod
    def _from(cls, nums: dict, den: int = 1):
        out = cls.__new__(cls)
        out._set(nums, den)
        return out

    @classmethod
    def _sum(cls, pairs):
        """sum c·x over (x, c) pairs of values of this class."""
        return cls._from(*_lincomb(pairs))

    def _like(self, nums: dict, den: int):
        # a value of this type and with this value's other attributes
        return self._from(nums, den)

    @property
    def terms(self) -> MappingProxyType:
        if self._terms is None:
            self._terms = fraction_view(self._nums.items(), self._den, self._label)
        return self._terms

    def coeff(self, key) -> Fraction:
        return Fraction(self._nums.get(self._key(key), 0), self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def max_weight(self) -> int:
        return max(map(sum, self._nums), default=0)

    def _sorted_keys(self) -> list[tuple]:
        # by (weight, parts)
        return sorted(self._nums, key=lambda k: (sum(k), k))

    def __add__(self, other):
        return self._like(*_lincomb(((self, 1), (other, 1))))

    def __sub__(self, other):
        return self._like(*_lincomb(((self, 1), (other, -1))))

    def __neg__(self):
        return self._like({k: -n for k, n in self._nums.items()}, self._den)

    def _scaled(self, c):
        c = _coeff(c)
        a = c.numerator
        return self._like({k: n * a for k, n in self._nums.items()} if a else {}, self._den * c.denominator)

    def __mul__(self, c):
        return self._scaled(c)

    def __rmul__(self, c):
        return self._scaled(c)

    def __truediv__(self, c):
        return self._scaled(1 / Fraction(_coeff(c)))

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._den == other._den and self._nums == other._nums

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class Graded:
    """The bucketed core for truncated series: {grade: {key: integer
    numerator}} over one positive denominator, a grade being a tuple of ints
    >= 0; reduced, with no zero numerator, no empty bucket and no grade part
    above `bound`.  A subclass sets `_unit` (grade and key of the series 1)
    and `_kernel(a, b)` (the key product of `*`, as `bilinear` takes it),
    and overrides `_like` when it carries more than its terms and bound.
    `==` ignores the bound."""

    # _terms caches the read-only view a subclass builds on first read
    __slots__ = ("_buckets", "_den", "_terms", "bound")

    def _set(self, buckets: dict, den: int, bound: int):
        # buckets hold no zero numerator; they may be empty, lie above the
        # bound or share a factor with den
        grades = [g for g, t in buckets.items() if t and max(g) <= bound]
        parts, self._den = _reduced([buckets[g] for g in grades], den)
        self._buckets, self._terms, self.bound = dict(zip(grades, parts)), None, bound
        return self

    def _like(self, buckets: dict, den: int, bound: int | None = None):
        # a value of this type and with this value's other attributes
        out = type(self).__new__(type(self))
        return out._set(buckets, den, self.bound if bound is None else bound)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._den == other._den and self._buckets == other._buckets

    def is_zero(self) -> bool:
        return not self._buckets

    def _scaled(self, c):
        c = _coeff(c)
        buckets = {g: {k: n * c.numerator for k, n in t.items()} for g, t in self._buckets.items()} if c else {}
        return self._like(buckets, self._den * c.denominator)

    def _plus(self, other: "Graded", c=1):
        """self + c·other at the smaller bound."""
        c, bound = Fraction(_coeff(c)), min(self.bound, other.bound)
        den = lcm(self._den, other._den * c.denominator)
        f, g = den // self._den, c.numerator * den // (other._den * c.denominator)
        out = {h: t if f == 1 else {k: n * f for k, n in t.items()} for h, t in self._buckets.items()}
        for h, t in other._buckets.items():
            out[h] = add_into(dict(out.get(h, ())), t.items(), g)
        return self._like(out, den, bound)

    def _times(self, other: "Graded"):
        """The product under self._kernel(a, b) -> ((key, n), ...): buckets
        g and h go into bucket g + h, added partwise, and pairs with a part
        above the smaller bound are skipped without reading their terms."""
        bound, out = min(self.bound, other.bound), {}
        for g, p in self._buckets.items():
            for h, q in other._buckets.items():
                if max(grade := tuple(map(int.__add__, g, h))) <= bound:
                    bilinear(p, q, self._kernel, out.setdefault(grade, {}))
        return self._like(out, self._den * other._den, bound)

    def log(self):
        """log(1 + z) = sum_k (-1)^(k-1) z^k / k for z = self - 1; the grade of 1 must hold just 1."""
        grade, key = self._unit
        if self._buckets.get(grade) != {key: self._den}:
            raise ValueError("log requires constant coefficient 1")
        z = self._like({g: t for g, t in self._buckets.items() if g != grade}, self._den)
        return _series_sum(z, lambda x: x * z, lambda k: Fraction((-1) ** (k - 1), k))

    def exp(self):
        """exp(z) = 1 + sum_k z^k / k! for z = self, with no term in the grade of 1."""
        g, key = self._unit
        if g in self._buckets:
            raise ValueError("exp requires no term in the grade of 1")
        return self._like({g: {key: 1}}, 1) + _series_sum(self, self.__mul__, lambda k: Fraction(1, factorial(k)))

    __add__ = _plus
    __rmul__ = _scaled

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._scaled(-1)

    def __mul__(self, other):
        return self._times(other) if isinstance(other, Graded) else self._scaled(other)


class NCPolynomial(Sparse):
    """Finite word -> rational map; `.terms` is keyed by `Word`."""

    __slots__ = ()
    _label = staticmethod(Word._raw)

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls._from({})

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls._from({(): 1})

    @classmethod
    def word(cls, w, coeff=1) -> "NCPolynomial":
        c = _coeff(coeff)
        return cls._from({_letters(w): c.numerator} if c else {}, c.denominator)

    def counit(self) -> Fraction:
        return self.coeff(())

    def weights(self) -> set[int]:
        return set(map(sum, self._nums))

    def support(self) -> list[Word]:
        return [Word._raw(k) for k in self._sorted_keys()]

    def truncate(self, max_weight: int) -> "NCPolynomial":
        return self._from({k: n for k, n in self._nums.items() if sum(k) <= max_weight}, self._den)

    def __mul__(self, other):
        if isinstance(other, NCPolynomial):
            return product(self, other, "concat")
        return self._scaled(other)

    def shuffle(self, other: "NCPolynomial") -> "NCPolynomial":
        return product(self, other, "shuffle")

    def stuffle(self, other: "NCPolynomial") -> "NCPolynomial":
        return product(self, other, "stuffle")

    def __str__(self) -> str:
        return poly_str(self)


def dot(a: Sparse, b: Sparse) -> Fraction:
    """Sum over shared keys of the coefficient products."""
    small, large = (a._nums, b._nums) if len(a._nums) <= len(b._nums) else (b._nums, a._nums)
    get = large.get
    return Fraction(sum(n * get(k, 0) for k, n in small.items()), a._den * b._den)


def gram(rows: list[Sparse], cols: list[Sparse]) -> Iterator[dict[int, int]]:
    """Per row, {j: n} with dot(row, cols[j]) == Fraction(n, row._den * cols[j]._den), j absent
    when that pairing is 0: the transpose of the columns, key k -> [(j, numerator of
    cols[j] at k)], times the rows by `_packed_product`."""
    index: dict[tuple, list] = {}
    for j, col in enumerate(cols):
        for k, n in col._nums.items():
            index.setdefault(k, []).append((j, n))
    return _packed_product([row._nums.items() for row in rows], index)


def _packed_product(rows: list, matrix: dict[tuple, list]) -> Iterator[dict[int, int]]:
    """Per row, an iterable of (key, n) pairs, the {slot: total} of the sum of n·matrix[key]
    over its pairs, zero totals left out, matrix[key] being a list of (slot, int) pairs with
    distinct slots.  Each key's list is packed once into one int (`_pack`), so a row is one
    int sum, which `_unpack` reads back."""
    # |a total| <= L1(row)·max |matrix entry|
    top = max((abs(n) for items in matrix.values() for _, n in items), default=0)
    width = _width(top * max((sum(abs(n) for _, n in row) for row in rows), default=0))
    get = {k: _pack(items, width) for k, items in matrix.items()}.get
    for row in rows:
        yield _unpack(sum(n * get(k, 0) for k, n in row), width)


def _width(bound: int) -> int:
    """The least slot width that holds every |total| <= bound as a signed
    residue; a sum of outer products a_i (x) b_i has bound sum L1(a_i)·L1(b_i)."""
    return bound.bit_length() + 1


def _pack(items: Iterable, width: int) -> int:
    """Kronecker substitution: sum of n·2^(width·s) over the (slot s, n)
    items.  Sums of packed ints times ints add slot by slot, exactly while
    every slot total fits its width (`_width`)."""
    return sum(n << width * s for s, n in items)


def _unpack(x: int, width: int) -> dict[int, int]:
    """{slot: total} of a packed int, zero totals left out: the lowest slot
    is read as a signed residue, subtracted and shifted out; a run of zero
    slots is skipped by the trailing-zero count; width must be >= 2."""
    if width < 2 and x:
        raise ValueError(f"a packed int needs a slot width >= 2, got {width}")
    out, s, mask = {}, 0, (1 << width) - 1
    while x:
        skip = ((x & -x).bit_length() - 1) // width
        x, s = x >> width * skip, s + skip
        if (n := x & mask) >> width - 1:
            n -= mask + 1
        out[s] = n
        x, s = (x - n) >> width, s + 1
    return out


# ---------------------------------------------------------------------------
# word-level product kernels (cached; coefficients are plain ints)
# ---------------------------------------------------------------------------

def concat_words(u: tuple, v: tuple) -> tuple:
    # `bilinear` inlines this kernel; the function stays its marker and form
    return ((u + v, 1),)


@lru_cache(maxsize=None)
def shuffle_words(u: tuple, v: tuple) -> tuple:
    """xu sh yv = x(u sh yv) + y(xu sh v); returns ((word, coeff), ...)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict[tuple, int] = {}
    add_into(out, (((u[0],) + w, n) for w, n in shuffle_words(u[1:], v)))
    add_into(out, (((v[0],) + w, n) for w, n in shuffle_words(u, v[1:])))
    return tuple(out.items())


@lru_cache(maxsize=None)
def stuffle_words(u: tuple, v: tuple) -> tuple:
    """Shuffle recursion plus the contraction term y_i, y_j -> y_{i+j}.

    This is the one quasi-shuffle kernel: on composition tuples it is also
    the monomial product M_I * M_J of QSym."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict[tuple, int] = {}
    add_into(out, (((u[0],) + w, n) for w, n in stuffle_words(u[1:], v)))
    add_into(out, (((v[0],) + w, n) for w, n in stuffle_words(u, v[1:])))
    add_into(out, (((u[0] + v[0],) + w, n) for w, n in stuffle_words(u[1:], v[1:])))
    return tuple(out.items())


_PRODUCT_KERNELS = {"concat": concat_words, "shuffle": shuffle_words, "stuffle": stuffle_words}


def product(p: NCPolynomial, q: NCPolynomial, kind: str) -> NCPolynomial:
    """Bilinear extension of the word-level product of the given kind."""
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    return NCPolynomial._from(bilinear(p._nums, q._nums, _PRODUCT_KERNELS[kind]), p._den * q._den)


# ---------------------------------------------------------------------------
# tensors and coproducts
# ---------------------------------------------------------------------------

def _word_pair(k) -> tuple[tuple, tuple]:
    return _letters(k[0]), _letters(k[1])


class TensorPolynomial(Sparse):
    """Finite (word, word) -> rational map; `.terms` is keyed by
    (Word, Word)."""

    __slots__ = ()
    _key = staticmethod(_word_pair)
    _label = staticmethod(lambda k: (Word._raw(k[0]), Word._raw(k[1])))

    @classmethod
    def tensor(cls, p: NCPolynomial, q: NCPolynomial) -> "TensorPolynomial":
        return cls._from(bilinear(p._nums, q._nums, lambda u, v: (((u, v), 1),)), p._den * q._den)

    def coeff(self, u, v) -> Fraction:
        return super().coeff((u, v))

    def __mul__(self, other):
        # componentwise concatenation; the product of the tensor-square algebra
        if not isinstance(other, TensorPolynomial):
            return self._scaled(other)
        return self._from(bilinear(self._nums, other._nums, concat_pairs), self._den * other._den)

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: (sort_key(kv[0][0]), sort_key(kv[0][1])))
        body = " + ".join(f"{c}·({word_str(u)})⊗({word_str(v)})" for (u, v), c in items)
        return f"TensorPolynomial({body or '0'})"


@lru_cache(maxsize=None)
def _letter_coproduct(a: int, kind: str) -> tuple:
    empty: tuple = ()
    pairs = [(((a,), empty), 1), ((empty, (a,)), 1)]
    if kind == "stuffle":
        pairs.extend((((i,), (a - i,)), 1) for i in range(1, a))
    return tuple(pairs)


def concat_pairs(s: tuple, t: tuple) -> tuple:
    """Kernel of the tensor square of a concatenation algebra on tuple keys:
    (a, b)(c, d) = (ac, bd)."""
    return (((s[0] + t[0], s[1] + t[1]), 1),)


@lru_cache(maxsize=None)
def _word_coproduct(letters: tuple, kind: str) -> dict:
    """Coproduct of a single word for the shuffle/stuffle kinds, extended as a
    morphism for concatenation: {(u, v): numerator} over 1, shared, never mutated."""
    pairs: dict[tuple[tuple, tuple], int] = {((), ()): 1}
    for a in letters:
        pairs = bilinear(pairs, dict(_letter_coproduct(a, kind)), concat_pairs)
    return pairs


def coproduct(p: NCPolynomial, kind: str) -> TensorPolynomial:
    """The coproduct of the given kind.

    "concat" is deconcatenation, "shuffle"/"stuffle" act on letters and extend
    multiplicatively, and "plus" is the contraction coproduct
    y_n -> sum y_i (x) y_{n-i}, defined on single letters only (it is not a
    morphism for concatenation, so extending it silently would be wrong).
    A one-term shuffle/stuffle coproduct shares its word's cached dict.
    """
    if kind not in COPRODUCT_KINDS:
        raise ValueError(f"unknown coproduct kind {kind!r}")
    if len(p._nums) == 1 and kind in ("shuffle", "stuffle"):
        ((ls, n),) = p._nums.items()
        row = _word_coproduct(ls, kind)
        return TensorPolynomial._from(row if n == 1 else {k: n * c for k, c in row.items()}, p._den)
    out: dict[tuple[tuple, tuple], int] = {}
    for ls, n in p._nums.items():
        if kind == "concat":
            items = [((ls[:i], ls[i:]), 1) for i in range(len(ls) + 1)]
        elif kind == "plus":
            if len(ls) != 1:
                raise ValueError(
                    f"the contraction coproduct is only defined on letters, got {word_str(ls)!r}"
                )
            items = [(((i,), (ls[0] - i,)), 1) for i in range(1, ls[0])]
        else:
            items = _word_coproduct(ls, kind).items()
        add_into(out, items, n)
    return TensorPolynomial._from(out, p._den)


def pairing(p: NCPolynomial, q: NCPolynomial) -> Fraction:
    """Word-basis bilinear form: sum over words of the coefficient products."""
    return dot(p, q)


def is_primitive(p: NCPolynomial, kind: str) -> bool:
    """coproduct(p) == p (x) 1 + 1 (x) p, on reduced integer cores built from p's numerators."""
    expected = add_into({}, (pair for w, n in p._nums.items() for pair in (((w, ()), n), (((), w), n))))
    return coproduct(p, kind) == TensorPolynomial._from(expected, p._den)


# ---------------------------------------------------------------------------
# weight-truncated exp / log (concatenation powers)
# ---------------------------------------------------------------------------

def exp_trunc(p: NCPolynomial, max_weight: int) -> NCPolynomial:
    """sum p^k / k!, discarding all words of weight > max_weight.

    Requires the empty-word coefficient of p to vanish (grading then makes
    the sum finite) and max_weight to be an integer >= 0.
    """
    if p.counit() != 0:
        raise ValueError("exp_trunc requires a vanishing empty-word coefficient")
    base = p.truncate(max_weight := as_natural(max_weight))
    step = lambda x: (x * base).truncate(max_weight)
    return NCPolynomial.one() + _series_sum(base, step, lambda k: Fraction(1, factorial(k)))


def log_trunc(q: NCPolynomial, max_weight: int) -> NCPolynomial:
    """sum (-1)^(k-1) (q - 1)^k / k, truncated by weight.

    Requires the empty-word coefficient of q to equal 1 and max_weight to be
    an integer >= 0.
    """
    if q.counit() != 1:
        raise ValueError("log_trunc requires an empty-word coefficient equal to 1")
    z = (q - NCPolynomial.one()).truncate(max_weight := as_natural(max_weight))
    step = lambda x: (x * z).truncate(max_weight)
    return _series_sum(z, step, lambda k: Fraction((-1) ** (k - 1), k))


# ---------------------------------------------------------------------------
# canonical text / JSON forms
# ---------------------------------------------------------------------------

def poly_str(p: NCPolynomial) -> str:
    """Canonical text form, terms sorted by (weight, parts),
    e.g. "1 + 2·[1 1] + 1/2·[2]"."""
    return signed_str(
        (p.terms[w], f"[{' '.join(map(str, w.letters))}]" if len(w) else "") for w in p.support()
    )


def parse_poly(s: str) -> NCPolynomial:
    terms: list[tuple[Word, Fraction]] = []
    for sign, cs, ws in signed_terms(s):
        coeff = Fraction(1) if cs is None else parse_coeff(cs)
        if cs is None and not ws.startswith("["):
            coeff, ws = parse_coeff(ws), ""
        terms.append((parse_word(ws.strip("[]")), sign * coeff))
    return NCPolynomial(terms)


def poly_to_json(p: NCPolynomial) -> list[dict]:
    return [{"word": list(w.letters), "coeff": str(p.terms[w])} for w in p.support()]


def poly_from_json(obj: Iterable[dict]) -> NCPolynomial:
    return NCPolynomial([(Word(item["word"]), Fraction(item["coeff"])) for item in obj])
