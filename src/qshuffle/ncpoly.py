"""Noncommutative polynomials over the indexed alphabet with exact rational
coefficients.

Carries the three products (concatenation, shuffle, quasi-shuffle), the four
coproducts (deconcatenation, shuffle, quasi-shuffle, and the letterwise
contraction coproduct), the counit, the word pairing, and weight-truncated
exp/log.  Coefficients are `fractions.Fraction`, so everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .words import Word, parse_coeff, sort_key, word_str

PRODUCT_KINDS = ("concat", "shuffle", "stuffle")
COPRODUCT_KINDS = ("concat", "shuffle", "stuffle", "plus")


def _as_word(w) -> Word:
    return w if isinstance(w, Word) else Word(w)


def _as_coeff(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def add_into(out: dict, items: Iterable, scale: Fraction | None = None) -> dict:
    """Adds scale·c to out[key] for every (key, c) in items (c itself when
    scale is None) and returns out.  A key whose total becomes 0 is deleted,
    so out never holds a zero; this is the one accumulate step behind every
    sparse container in the package."""
    get = out.get
    for key, c in items:
        if scale is not None:
            c = scale if c == 1 else scale * c
        if not c:
            continue
        cur = get(key)
        if cur is None:
            out[key] = c
        elif cur := cur + c:
            out[key] = cur
        else:
            del out[key]
    return out


def bilinear(p: Mapping, q: Mapping, kernel) -> dict:
    """Bilinear extension of kernel(a, b) -> ((key, n), ...) over the term
    maps p and q; pairs whose kernel output is empty cost no multiply."""
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            got = kernel(a, b)
            if got:
                add_into(out, got, ca * cb)
    return out


def dot(a: Mapping, b: Mapping) -> Fraction:
    """Sum over shared keys of the coefficient products."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = Fraction(0)
    for k, c in small.items():
        d = large.get(k)
        if d:
            total += c * d
    return total


class NCPolynomial:
    """Finite word -> rational map; zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | Iterable | None = None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        self.terms = add_into({}, ((_as_word(w), _as_coeff(c)) for w, c in items))

    @classmethod
    def _raw(cls, terms: dict) -> "NCPolynomial":
        # terms must already be clean: Word keys, nonzero Fraction values
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls({Word(): 1})

    @classmethod
    def word(cls, w, coeff=1) -> "NCPolynomial":
        return cls({_as_word(w): coeff})

    def coeff(self, w) -> Fraction:
        return self.terms.get(_as_word(w), Fraction(0))

    def counit(self) -> Fraction:
        return self.terms.get(Word(), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def max_weight(self) -> int:
        return max((w.weight for w in self.terms), default=0)

    def support(self) -> list[Word]:
        return sorted(self.terms, key=sort_key)

    def truncate(self, max_weight: int) -> "NCPolynomial":
        return NCPolynomial({w: c for w, c in self.terms.items() if w.weight <= max_weight})

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        return NCPolynomial._raw(add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial._raw({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NCPolynomial):
            return product(self, other, "concat")
        return self._scaled(other)

    def __rmul__(self, scalar):
        return self._scaled(scalar)

    def __truediv__(self, scalar):
        return self._scaled(Fraction(1, 1) / _as_coeff(scalar))

    def _scaled(self, scalar) -> "NCPolynomial":
        scalar = _as_coeff(scalar)
        if not scalar:
            return NCPolynomial()
        return NCPolynomial._raw({w: c * scalar for w, c in self.terms.items()})

    def shuffle(self, other: "NCPolynomial") -> "NCPolynomial":
        return product(self, other, "shuffle")

    def stuffle(self, other: "NCPolynomial") -> "NCPolynomial":
        return product(self, other, "stuffle")

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"NCPolynomial({poly_str(self)!r})"

    def __str__(self) -> str:
        return poly_str(self)


# ---------------------------------------------------------------------------
# word-level product kernels (cached; coefficients are plain ints)
# ---------------------------------------------------------------------------

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


def _on_words(kernel):
    # kernel outputs are concatenations of valid words, so skip re-validation
    raw = Word._raw
    return lambda u, v: [(raw(w), n) for w, n in kernel(u.letters, v.letters)]


_PRODUCT_KERNELS = {
    "concat": lambda u, v: ((u * v, 1),),
    "shuffle": _on_words(shuffle_words),
    "stuffle": _on_words(stuffle_words),
}


def product(p: NCPolynomial, q: NCPolynomial, kind: str) -> NCPolynomial:
    """Bilinear extension of the word-level product of the given kind."""
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    return NCPolynomial._raw(bilinear(p.terms, q.terms, _PRODUCT_KERNELS[kind]))


# ---------------------------------------------------------------------------
# tensors and coproducts
# ---------------------------------------------------------------------------

class TensorPolynomial:
    """Finite (word, word) -> rational map."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | Iterable | None = None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        self.terms = add_into(
            {}, (((_as_word(u), _as_word(v)), _as_coeff(c)) for (u, v), c in items)
        )

    @classmethod
    def _raw(cls, terms: dict) -> "TensorPolynomial":
        # terms must already be clean: (Word, Word) keys, nonzero Fraction values
        t = cls.__new__(cls)
        t.terms = terms
        return t

    @classmethod
    def tensor(cls, p: NCPolynomial, q: NCPolynomial) -> "TensorPolynomial":
        return cls._raw(bilinear(p.terms, q.terms, lambda u, v: (((u, v), 1),)))

    def coeff(self, u, v) -> Fraction:
        return self.terms.get((_as_word(u), _as_word(v)), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorPolynomial") -> "TensorPolynomial":
        return TensorPolynomial._raw(add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "TensorPolynomial") -> "TensorPolynomial":
        return self + (-other)

    def __neg__(self) -> "TensorPolynomial":
        return TensorPolynomial._raw({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar) -> "TensorPolynomial":
        scalar = _as_coeff(scalar)
        return TensorPolynomial._raw(
            {k: c * scalar for k, c in self.terms.items()} if scalar else {}
        )

    def __mul__(self, other):
        # componentwise concatenation; the product of the tensor-square algebra
        if not isinstance(other, TensorPolynomial):
            return self.__rmul__(other)
        return TensorPolynomial._raw(
            bilinear(self.terms, other.terms, lambda a, b: (((a[0] * b[0], a[1] * b[1]), 1),))
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorPolynomial) and self.terms == other.terms

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
def _word_coproduct(letters: tuple, kind: str) -> tuple:
    """Coproduct of a single word for the shuffle/stuffle kinds, extended as a
    morphism for concatenation."""
    pairs: dict[tuple[tuple, tuple], int] = {((), ()): 1}
    for a in letters:
        pairs = bilinear(pairs, dict(_letter_coproduct(a, kind)), concat_pairs)
    return tuple(pairs.items())


def coproduct(p: NCPolynomial, kind: str) -> TensorPolynomial:
    """The coproduct of the given kind.

    "concat" is deconcatenation, "shuffle"/"stuffle" act on letters and extend
    multiplicatively, and "plus" is the contraction coproduct
    y_n -> sum y_i (x) y_{n-i}, defined on single letters only (it is not a
    morphism for concatenation, so extending it silently would be wrong).
    """
    if kind not in COPRODUCT_KINDS:
        raise ValueError(f"unknown coproduct kind {kind!r}")
    raw = Word._raw
    out: dict[tuple[Word, Word], Fraction] = {}
    for w, c in p.terms.items():
        ls = w.letters
        if kind == "concat":
            items = [((raw(ls[:i]), raw(ls[i:])), 1) for i in range(len(ls) + 1)]
        elif kind == "plus":
            if len(ls) != 1:
                raise ValueError(
                    f"the contraction coproduct is only defined on letters, got {word_str(w)!r}"
                )
            items = [((raw((i,)), raw((ls[0] - i,))), 1) for i in range(1, ls[0])]
        else:
            items = [((raw(u), raw(v)), n) for (u, v), n in _word_coproduct(ls, kind)]
        add_into(out, items, c)
    return TensorPolynomial._raw(out)


def pairing(p: NCPolynomial, q: NCPolynomial) -> Fraction:
    """Word-basis bilinear form: sum over words of the coefficient products."""
    return dot(p.terms, q.terms)


def pairing_tensor(s: TensorPolynomial, t: TensorPolynomial) -> Fraction:
    return dot(s.terms, t.terms)


def is_primitive(p: NCPolynomial, kind: str) -> bool:
    expected = TensorPolynomial.tensor(p, NCPolynomial.one()) + TensorPolynomial.tensor(
        NCPolynomial.one(), p
    )
    return coproduct(p, kind) == expected


# ---------------------------------------------------------------------------
# weight-truncated exp / log (concatenation powers)
# ---------------------------------------------------------------------------

def exp_trunc(p: NCPolynomial, max_weight: int) -> NCPolynomial:
    """sum p^k / k!, discarding all words of weight > max_weight.

    Requires the empty-word coefficient of p to vanish; grading then makes the
    sum finite.
    """
    if p.counit() != 0:
        raise ValueError("exp_trunc requires a vanishing empty-word coefficient")
    base = p.truncate(max_weight)
    out = NCPolynomial.one()
    term = NCPolynomial.one()
    k = 0
    while True:
        k += 1
        term = (term * base).truncate(max_weight) / k
        if term.is_zero():
            return out
        out = out + term


def log_trunc(q: NCPolynomial, max_weight: int) -> NCPolynomial:
    """sum (-1)^(k-1) (q - 1)^k / k, truncated by weight.

    Requires the empty-word coefficient of q to equal 1.
    """
    if q.counit() != 1:
        raise ValueError("log_trunc requires an empty-word coefficient equal to 1")
    z = (q - NCPolynomial.one()).truncate(max_weight)
    out = NCPolynomial.zero()
    power = NCPolynomial.one()
    for k in range(1, max_weight + 1):
        power = (power * z).truncate(max_weight)
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (k - 1), k)
    return out


# ---------------------------------------------------------------------------
# canonical text / JSON forms
# ---------------------------------------------------------------------------

def poly_str(p: NCPolynomial) -> str:
    """Canonical text form, terms sorted by (weight, parts),
    e.g. "1 + 2·[1 1] + 1/2·[2]"."""
    if p.is_zero():
        return "0"
    pieces = []
    for w in p.support():
        c = p.terms[w]
        mag = -c if c < 0 else c
        if len(w) == 0:
            body = str(mag)
        elif mag == 1:
            body = f"[{' '.join(str(a) for a in w.letters)}]"
        else:
            body = f"{mag}·[{' '.join(str(a) for a in w.letters)}]"
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


def parse_poly(s: str) -> NCPolynomial:
    s = s.strip()
    if not s or s == "0":
        return NCPolynomial.zero()
    tokens = s.replace(" - ", " + -").split(" + ")
    terms: list[tuple[Word, Fraction]] = []
    for tok in tokens:
        tok = tok.strip()
        sign = 1
        if tok.startswith("-"):
            sign = -1
            tok = tok[1:].strip()
        if "·" in tok:
            cs, ws = tok.split("·", 1)
            coeff = parse_coeff(cs)
        elif tok.startswith("["):
            coeff, ws = Fraction(1), tok
        else:
            coeff, ws = parse_coeff(tok), None
        if ws is None:
            w = Word()
        else:
            inner = ws.strip().strip("[]").strip()
            w = Word() if inner in ("", "e") else Word(int(x) for x in inner.split())
        terms.append((w, sign * coeff))
    return NCPolynomial(terms)


def poly_to_json(p: NCPolynomial) -> list[dict]:
    return [{"word": list(w.letters), "coeff": str(p.terms[w])} for w in p.support()]


def poly_from_json(obj: Iterable[dict]) -> NCPolynomial:
    return NCPolynomial([(Word(item["word"]), Fraction(item["coeff"])) for item in obj])
