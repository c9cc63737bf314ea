"""Truncated diagonal series and its factorization into Lyndon-indexed
exponentials, for each of the four dual-basis pairs, plus the character-series
identities that transport the factorization into QSym/Sym.

The diagonal series sum_w w (x) w multiplies words with the commutative
product (shuffle or quasi-shuffle) on the left tensor factor and with
concatenation on the right.  Its factorization is the ordered product over
Lyndon words, largest first, of exp(dual_l (x) primitive_l)."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from . import bases
from .lyndon import lyndon_up_to
from .ncpoly import (
    _PRODUCT_KERNELS,
    Graded,
    NCPolynomial,
    TensorPolynomial,
    _integral,
    add_into,
    bilinear,
    concat_words,
    fraction_view,
    product,
)
from .symqsym import encode_M
from .words import Word, pairs_of_weight, word_str, words_of_weight, words_up_to

PAIRS = tuple(bases.PAIRS)

_LEFT_KERNELS = {kind: _PRODUCT_KERNELS[kind] for kind in ("shuffle", "stuffle")}


class GradedTensorSeries(Graded):
    """Finite (word, word) -> rational map truncated by weight on both sides;
    the left slot multiplies with `left_kind`, the right with concatenation.

    An `ncpoly.Graded` value graded by (left weight, right weight) and keyed
    by (left letters, right letters); `==` also compares `left_kind`, and
    `.terms` is a read-only (Word, Word) -> Fraction view."""

    __slots__ = ("left_kind",)
    _unit = ((0, 0), ((), ()))

    def __init__(self, terms, bound: int, left_kind: str):
        if left_kind not in _LEFT_KERNELS:
            raise ValueError(f"left_kind must be shuffle or stuffle, got {left_kind!r}")
        self.left_kind = left_kind
        nums, den = _integral(((u.letters, v.letters), c) for (u, v), c in (terms or {}).items())
        buckets: dict = {}
        for (u, v), n in nums.items():
            buckets.setdefault((sum(u), sum(v)), {})[(u, v)] = n
        self._set(buckets, den, bound)

    def _like(self, buckets: dict, den: int, bound: int | None = None) -> "GradedTensorSeries":
        out = super()._like(buckets, den, bound)
        out.left_kind = self.left_kind
        return out

    @property
    def _kernel(self):
        # (u1, v1)(u2, v2) = (u1 * u2) (x) v1 v2 with * the left product
        def pair(a, b, kernel=_LEFT_KERNELS[self.left_kind]):
            v = a[1] + b[1]
            return [((u, v), n) for u, n in kernel(a[0], b[0])]

        return pair

    @classmethod
    def unit(cls, bound: int, left_kind: str) -> "GradedTensorSeries":
        return cls({(Word(), Word()): 1}, bound, left_kind)

    @property
    def terms(self):
        if self._terms is None:
            flat = (item for t in self._buckets.values() for item in t.items())
            self._terms = fraction_view(flat, self._den, TensorPolynomial._label)
        return self._terms

    def coeff(self, u: Word, v: Word) -> Fraction:
        t = self._buckets.get((u.weight, v.weight), {})
        return Fraction(t.get((u.letters, v.letters), 0), self._den)

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
        output buckets.  The numerators run over the common denominator
        den · K! (d e)^K, with d and e those of dual and primal, and are
        reduced once."""
        m = _homogeneous_weight(dual)
        if not m or _homogeneous_weight(primal) != m:
            raise ValueError(
                "exp factor needs dual and primal nonzero and homogeneous of one weight >= 1"
            )
        kernel, bound = _LEFT_KERNELS[self.left_kind], self.bound
        de, top = dual._den * primal._den, bound // m
        s0 = factorial(top) * de**top
        # the buckets that some piece k >= 1 reaches, as left word -> its
        # (right word, numerator) list
        groups: dict[tuple[int, int], dict] = {}
        for key, p in self._buckets.items():
            if max(key) + m <= bound:
                rights = groups[key] = {}
                for (u, v), n in p.items():
                    rights.setdefault(u, []).append((v, n))
        # pieces k >= 1, over the common denominator den · s0
        adds: dict[tuple[int, int], dict] = {}
        a_pow, b_pow = {(): 1}, {(): 1}
        for k in range(1, top + 1):
            a_pow = bilinear(a_pow, dual._nums, kernel)
            b_pow = bilinear(b_pow, primal._nums, concat_words)
            scale = factorial(top) // factorial(k) * de ** (top - k)
            b_items = list(b_pow.items())
            lefts: dict[tuple, list] = {}
            for (lw, rw), rights in groups.items():
                key = (lw + k * m, rw + k * m)
                if max(key) > bound:
                    continue
                bucket = adds.setdefault(key, {})
                get = bucket.get
                for u, vs in rights.items():
                    left = lefts.get(u)
                    if left is None:
                        left = lefts[u] = [
                            (w, c * scale) for w, c in bilinear({u: 1}, a_pow, kernel).items()
                        ]
                    for v, n in vs:
                        for b, y in b_items:
                            vb, ny = v + b, n * y
                            for w, c in left:
                                t = (w, vb)
                                bucket[t] = get(t, 0) + c * ny
        # k = 0 is self times s0, so g = gcd(s0, pieces k >= 1) divides
        # every numerator of the sum: self's buckets are scaled by s0 // g
        # (and shared when that is 1), the other pieces divided by g
        g = gcd(s0, *(x for p in adds.values() for x in p.values()))
        f = s0 // g
        out = {
            key: p if f == 1 else {t: n * f for t, n in p.items()}
            for key, p in self._buckets.items()
        }
        for key, p in adds.items():
            out[key] = add_into(dict(out.get(key, ())), ((t, x // g) for t, x in p.items()))
        return self._like(out, self._den * f)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.left_kind == other.left_kind

    def discrepancies(self, other: "GradedTensorSeries", limit: int = 20) -> list[tuple]:
        """Sorted list of (u, v, this coefficient, other coefficient) where the
        two series differ up to the smaller bound, capped at `limit` entries."""
        # the keys of the difference, by (sort_key(u), sort_key(v)) on letter tuples
        keys = sorted(
            (k for t in self._plus(other, -1)._buckets.values() for k in t),
            key=lambda k: (sum(k[0]), k[0], sum(k[1]), k[1]),
        )
        pairs = map(TensorPolynomial._label, keys[:limit])
        return [(u, v, self.coeff(u, v), other.coeff(u, v)) for u, v in pairs]


def diagonal(max_weight: int, side: str) -> GradedTensorSeries:
    """sum over words of weight <= max_weight of w (x) w."""
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
    dual, primal, kind = bases.PAIRS[pair]
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
    results: list[tuple[str, bool, str]] = []

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
