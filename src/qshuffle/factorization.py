"""Truncated diagonal series and its factorization into Lyndon-indexed
exponentials, for each of the four dual-basis pairs, plus the character-series
identities that transport the factorization into QSym/Sym.

The diagonal series sum_w w (x) w multiplies words with the commutative
product (shuffle or quasi-shuffle) on the left tensor factor and with
concatenation on the right.  Its factorization is the ordered product over
Lyndon words, largest first, of exp(dual_l (x) primitive_l).

A term u (x) v is stored as an int, the partial-sum code `words._code` of
the word u·v, in the bucket of weights (|u|, |v|).  Concatenation is a shift and
an or, and bit |u| cuts the key back into u and v.  `times_exp` adds each
factor's pieces over their own reduced denominator, and rescales the running
product only when that denominator does not divide its own."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from . import bases
from .lyndon import lyndon_up_to
from .ncpoly import (
    _PRODUCT_KERNELS,
    Graded,
    NCPolynomial,
    TensorPolynomial,
    _integral,
    bilinear,
    concat_words,
    fraction_view,
    product,
)
from .symqsym import encode_M
from .words import Word, _code, _decode, as_natural, pairs_of_weight, word_str, words_of_weight, words_up_to

PAIRS = tuple(bases.PAIRS)

_LEFT_KERNELS = {kind: _PRODUCT_KERNELS[kind] for kind in ("shuffle", "stuffle")}


def _split(key: int, l: int) -> tuple[tuple, tuple]:
    # the (u, v) of the key _code(u·v) in a bucket of left weight l: bit l
    # ends u, and below it every set bit is a partial sum of u
    return _decode(key & (2 << l) - 1), _decode(key >> l & ~1)


class GradedTensorSeries(Graded):
    """Finite (word, word) -> rational map truncated by weight on both sides;
    the left slot multiplies with `left_kind`, the right with concatenation.

    An `ncpoly.Graded` value graded by (left weight, right weight); inside
    bucket (l, r) the term u (x) v is keyed by the int _code(u·v), which
    bit l cuts back into u and v.  `==` also compares `left_kind`, and
    `.terms` is a read-only (Word, Word) -> Fraction view."""

    __slots__ = ("left_kind",)
    _unit = ((0, 0), 0)

    def __init__(self, terms, bound: int, left_kind: str):
        if left_kind not in _LEFT_KERNELS:
            raise ValueError(f"left_kind must be shuffle or stuffle, got {left_kind!r}")
        self.left_kind, bound = left_kind, as_natural(bound)
        nums, den = _integral(((u.letters, v.letters), c) for (u, v), c in (terms or {}).items())
        buckets: dict = {}
        for (u, v), n in nums.items():
            buckets.setdefault((sum(u), sum(v)), {})[_code(u + v)] = n
        self._set(buckets, den, bound)

    def _like(self, buckets: dict, den: int, bound: int | None = None) -> "GradedTensorSeries":
        out = super()._like(buckets, den, bound)
        out.left_kind = self.left_kind
        return out

    def _kernel(self, g: tuple, h: tuple):
        # (u1 v1)(u2 v2) = (u1 * u2) v1 v2 with * the left product, on the
        # keys of buckets g and h
        (l1, r1), l2 = g, h[0]
        kernel, m1, m2, at = _LEFT_KERNELS[self.left_kind], (2 << l1) - 1, (2 << l2) - 1, l1 + l2

        def pair(a, b):
            v = (a >> l1 & ~1 | (b >> l2 & ~1) << r1) << at
            return [(_code(w) | v, n) for w, n in kernel(_decode(a & m1), _decode(b & m2))]

        return pair

    @classmethod
    def unit(cls, bound: int, left_kind: str) -> "GradedTensorSeries":
        return cls({(Word(), Word()): 1}, bound, left_kind)

    def _pairs(self):
        # ((u letters, v letters), numerator) for every term
        return ((_split(t, l), n) for (l, _), p in self._buckets.items() for t, n in p.items())

    @property
    def terms(self):
        if self._terms is None:
            self._terms = fraction_view(self._pairs(), self._den, TensorPolynomial._label)
        return self._terms

    def coeff(self, u: Word, v: Word) -> Fraction:
        t = self._buckets.get((u.weight, v.weight), {})
        return Fraction(t.get(_code(u.letters + v.letters), 0), self._den)

    def __mul__(self, other):
        if isinstance(other, GradedTensorSeries) and self.left_kind != other.left_kind:
            raise ValueError("cannot multiply series with different left products")
        return super().__mul__(other)

    def times_exp(self, dual: NCPolynomial, primal: NCPolynomial) -> "GradedTensorSeries":
        """self · exp(dual (x) primal), where exp(dual (x) primal) = sum_k
        (dual^{*k} / k!) (x) primal^k, * is the `left_kind` product and
        primal^k a concatenation power.

        dual and primal must be nonzero and homogeneous of one weight m >= 1,
        so k <= K = bound // m.  Each piece is one tensor product, so a left
        word u with right part sum_v n_v v contributes (u * dual^{*k}) (x)
        sum_v n_v v·primal^k: the left product is computed once per u and k
        and crossed with the concatenations, accumulating straight into the
        output buckets.  On codes, a term w (x) v·b of bucket (L, R) is the
        int w | v << L | b << L + r, r the weight of v.  The pieces run over
        the common denominator den · K! (d e)^K, with d and e those of dual
        and primal."""
        m = _homogeneous_weight(dual)
        if not m or _homogeneous_weight(primal) != m:
            raise ValueError(
                "exp factor needs dual and primal nonzero and homogeneous of one weight >= 1"
            )
        kernel, bound = _LEFT_KERNELS[self.left_kind], self.bound
        de, top = dual._den * primal._den, bound // m
        s0 = factorial(top) * de**top
        # the buckets that some piece k >= 1 reaches, as left code -> its
        # (right code, numerator) list
        groups: dict[tuple[int, int], dict] = {}
        for (l, r), p in self._buckets.items():
            if max(l, r) + m <= bound:
                rights = groups[l, r] = {}
                for t, n in p.items():
                    rights.setdefault(t & (2 << l) - 1, []).append((t >> l & ~1, n))
        # pieces k >= 1, over the common denominator den · s0
        adds: dict[tuple[int, int], dict] = {}
        a_pow, b_pow = {(): 1}, {(): 1}
        for k in range(1, top + 1):
            a_pow = bilinear(a_pow, dual._nums, kernel)
            b_pow = bilinear(b_pow, primal._nums, concat_words)
            scale = factorial(top) // factorial(k) * de ** (top - k)
            b_items = [(_code(b), y) for b, y in b_pow.items()]
            lefts: dict[int, list] = {}
            for (l, r), rights in groups.items():
                L, R = l + k * m, r + k * m
                if max(L, R) > bound:
                    continue
                bucket = adds.setdefault((L, R), {})
                get = bucket.get
                bs = [(b << L + r, y) for b, y in b_items]
                for u, vs in rights.items():
                    if (left := lefts.get(u)) is None:
                        uw = bilinear({_decode(u): 1}, a_pow, kernel)
                        left = lefts[u] = [(_code(w), c * scale) for w, c in uw.items()]
                    for v, n in vs:
                        v <<= L
                        for b, y in bs:
                            vb, ny = v | b, n * y
                            for w, c in left:
                                t = w | vb
                                bucket[t] = get(t, 0) + c * ny
        # the pieces reduce by h to numerators x // h over e = den · s0 // h;
        # self (k = 0) and they meet over d = lcm(den, e), so self is rescaled
        # only when d != den, and otherwise only the buckets the pieces touch
        # are copied, the others shared
        h = gcd(self._den * s0, *(gcd(*p.values()) for p in adds.values()))
        d = lcm(self._den, e := self._den * s0 // h)
        f, g = d // self._den, d // e
        out = {key: p if f == 1 else {t: n * f for t, n in p.items()} for key, p in self._buckets.items()}
        for key, p in adds.items():
            q = out[key] = dict(out.get(key, ()))
            get = q.get
            for t, x in p.items():
                if n := get(t, 0) + x // h * g:
                    q[t] = n
                else:
                    q.pop(t, None)
        return self._like(out, d)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.left_kind == other.left_kind

    def discrepancies(self, other: "GradedTensorSeries", limit: int = 20) -> list[tuple]:
        """Sorted list of (u, v, this coefficient, other coefficient) where the
        two series differ up to the smaller bound, capped at `limit` entries."""
        # the keys of the difference, by (sort_key(u), sort_key(v)) on letter tuples
        keys = sorted(
            (k for k, _ in self._plus(other, -1)._pairs()),
            key=lambda k: (sum(k[0]), k[0], sum(k[1]), k[1]),
        )
        pairs = map(TensorPolynomial._label, keys[:limit])
        return [(u, v, self.coeff(u, v), other.coeff(u, v)) for u, v in pairs]


def diagonal(max_weight: int, side: str) -> GradedTensorSeries:
    """sum over words of weight <= max_weight of w (x) w."""
    max_weight = as_natural(max_weight)
    return GradedTensorSeries({(w, w): 1 for w in words_up_to(max_weight)}, max_weight, side)


def _homogeneous_weight(p: NCPolynomial) -> int | None:
    weights = p.weights()
    return weights.pop() if len(weights) == 1 else None


def lyndon_decreasing(max_weight: int) -> list[Word]:
    """Lyndon words of weight <= max_weight, largest first in the word order."""
    return sorted(lyndon_up_to(max_weight), reverse=True)


def factorized_product(
    max_weight: int,
    pair: str,
    left_kind: str | None = None,
    mismatch: bool = False,
) -> GradedTensorSeries:
    """Ordered product over Lyndon words, largest leftmost, of
    exp(dual_l (x) primitive_l) for the requested dual pair.

    `left_kind` overrides the pair's own commutative product and `mismatch`
    swaps in the primitive family of the opposite side; both are negative
    controls and break the identity at weight 2."""
    if pair not in PAIRS:
        raise ValueError(f"unknown pair {pair!r}; expected one of {PAIRS}")
    max_weight, (dual, primal, kind) = as_natural(max_weight), bases.PAIRS[pair]
    if mismatch:
        primal = "Pi" if pair == "shuffle" else "p"
    kind = left_kind or kind
    acc = GradedTensorSeries.unit(max_weight, kind)
    for l in lyndon_decreasing(max_weight):
        dual_l, primal_l = (bases.basis_element(f, l).value for f in (dual, primal))
        acc = acc.times_exp(dual_l, primal_l)
    return acc


def verify_factorization(
    max_weight: int, pair: str, negative_control: bool = False
) -> tuple[bool, list[tuple]]:
    """Term-by-term comparison of the diagonal series with the factorized
    product; returns (equal, discrepancy list)."""
    got = factorized_product(max_weight, pair, mismatch=negative_control)
    target = diagonal(max_weight, got.left_kind)
    report = target.discrepancies(got)
    return (not report, report)


# ---------------------------------------------------------------------------
# character series in QSym coefficients
# ---------------------------------------------------------------------------

def character_checks(max_weight: int) -> list[tuple[str, bool, str]]:
    """Three identities for the generating series with monomial quasi-symmetric
    coefficients, truncated by weight:

    (a) the word encoding into QSym turns the quasi-shuffle into the monomial
        product (character property);
    (b) the termwise logarithm of sum_w M_w (x) w regroups as
        sum_w M_w (x) pi1(w);
    (c) sum_w M_w (x) S_w equals the ordered product of
        exp(M_{Sigma_l} (x) S_{Pi_l}), for the quasi-shuffle pair and for both
        primitive-series variants.

    The index-level encodings `encode_M` and `encode_S` send a word w to M_w
    and S^w, turning the quasi-shuffle into the monomial product and
    concatenation into the product of S.  So (b) and (c) run on
    `GradedTensorSeries` with the stuffle left product: (b) is the termwise
    log of `diagonal(max_weight, "stuffle")`.  encode_M (x) encode_S is the
    identity on letter tuples, so (c) in QSym (x) Sym is the equality of the
    integer cores of `factorized_product` for the stuffle, L and R pairs with
    `diagonal(max_weight, "stuffle")`.
    """
    max_weight, results = as_natural(max_weight), []

    # (a) character property
    bad = next(
        (
            (u, v)
            for n in range(max_weight + 1)
            for u, v in pairs_of_weight(n, words_of_weight)
            if encode_M(product(NCPolynomial.word(u), NCPolynomial.word(v), "stuffle"))
            != encode_M(u) * encode_M(v)
        ),
        None,
    )
    results.append(
        (
            "character-morphism",
            bad is None,
            "monomial encoding turns quasi-shuffle into the star product"
            if bad is None
            else f"fails at u={word_str(bad[0])}, v={word_str(bad[1])}",
        )
    )

    # (b) log of the generating series
    expected = {
        (w, x): c
        for w in words_up_to(max_weight, include_empty=False)
        for x, c in bases.pi1(w).terms.items()
    }
    ok_log = diagonal(max_weight, "stuffle").log() == GradedTensorSeries(expected, max_weight, "stuffle")
    results.append(
        (
            "log-series",
            ok_log,
            "termwise log regroups over the primitive projection"
            if ok_log
            else "log expansion disagrees with the primitive regrouping",
        )
    )

    # (c) closing identity in QSym (x) Sym
    target = diagonal(max_weight, "stuffle")
    for pair in ("stuffle", "L", "R"):
        ok = factorized_product(max_weight, pair) == target
        results.append(
            (
                f"closing-identity-{pair}",
                ok,
                "ordered exponential product matches sum M_w S_w"
                if ok
                else "ordered exponential product disagrees with sum M_w S_w",
            )
        )
    return results
