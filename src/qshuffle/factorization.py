"""Truncated diagonal series and its factorization into Lyndon-indexed
exponentials, for each of the four dual-basis pairs, plus the character-series
identities that transport the factorization into QSym/Sym.

The diagonal series sum_w w (x) w multiplies words with the commutative
product (shuffle or quasi-shuffle) on the left tensor factor and with
concatenation on the right.  Its factorization is the ordered product over
Lyndon words, largest first, of exp(dual_l (x) primitive_l).

A term u (x) v is stored under the key (u, v) of letter tuples, in the bucket
of weights (|u|, |v|).  `_exp_product` expands the ordered product by
distributivity into one pure tensor S_w (x) P_w per word w: S_w the normalized
left product and P_w the concatenation of the factors over the decreasing
Lyndon factorization of w.  It flattens them into the buckets once, over one
common denominator, instead of reducing a running product after every factor;
each left part S_w is packed into one int (`ncpoly._pack`), so the flatten is
one big-int multiply-add per right term, and only the nonzero slots are read
back."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import bases
from .lyndon import lyndon_up_to
from .ncpoly import (
    _PRODUCT_KERNELS,
    Graded,
    NCPolynomial,
    TensorPolynomial,
    _integral,
    _pack,
    _unpack,
    _width,
    _word_pair,
    bilinear,
    concat_words,
    fraction_view,
    product,
)
from .symqsym import encode_M
from .words import Word, _code, as_natural, compositions_of, pairs_of_weight, word_str, words_of_weight, words_up_to

PAIRS = tuple(bases.PAIRS)

_LEFT_KERNELS = {kind: _PRODUCT_KERNELS[kind] for kind in ("shuffle", "stuffle")}


class GradedTensorSeries(Graded):
    """Finite (word, word) -> rational map truncated by weight on both sides;
    the left slot multiplies with `left_kind`, the right with concatenation.

    An `ncpoly.Graded` value graded by (left weight, right weight); inside
    bucket (l, r) the term u (x) v is keyed by its letter tuples (u, v), as
    in `TensorPolynomial`.  `==` also compares `left_kind`, and `.terms` is
    a read-only (Word, Word) -> Fraction view."""

    __slots__ = ("left_kind",)
    _unit = ((0, 0), ((), ()))

    def __init__(self, terms, bound: int, left_kind: str):
        if left_kind not in _LEFT_KERNELS:
            raise ValueError(f"left_kind must be shuffle or stuffle, got {left_kind!r}")
        self.left_kind, bound = left_kind, as_natural(bound)
        nums, den = _integral((_word_pair(k), c) for k, c in (terms or {}).items())
        buckets: dict = {}
        for (u, v), n in nums.items():
            buckets.setdefault((sum(u), sum(v)), {})[u, v] = n
        self._set(buckets, den, bound)

    def _like(self, buckets: dict, den: int, bound: int | None = None) -> "GradedTensorSeries":
        out = super()._like(buckets, den, bound)
        out.left_kind = self.left_kind
        return out

    def _kernel(self, a: tuple, b: tuple) -> list:
        # (u1 (x) v1)(u2 (x) v2) = (u1 * u2) (x) v1 v2, * the left product
        v = a[1] + b[1]
        return [((w, v), n) for w, n in _LEFT_KERNELS[self.left_kind](a[0], b[0])]

    @classmethod
    def unit(cls, bound: int, left_kind: str) -> "GradedTensorSeries":
        return cls({(Word(), Word()): 1}, bound, left_kind)

    @property
    def terms(self):
        if self._terms is None:
            items = (kv for p in self._buckets.values() for kv in p.items())
            self._terms = fraction_view(items, self._den, TensorPolynomial._label)
        return self._terms

    def coeff(self, u, v) -> Fraction:
        u, v = _word_pair((u, v))
        return Fraction(self._buckets.get((sum(u), sum(v)), {}).get((u, v), 0), self._den)

    def __mul__(self, other):
        if isinstance(other, GradedTensorSeries) and self.left_kind != other.left_kind:
            raise ValueError("cannot multiply series with different left products")
        return super().__mul__(other)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.left_kind == other.left_kind

    def discrepancies(self, other: "GradedTensorSeries", limit: int = 20) -> list[tuple]:
        """Sorted list of (u, v, this coefficient, other coefficient) where the
        two series differ up to the smaller bound, capped at `limit` entries;
        ValueError when their left products differ."""
        if self.left_kind != other.left_kind:
            raise ValueError("cannot compare series with different left products")
        keys = sorted(
            (k for p in self._plus(other, -1)._buckets.values() for k in p),
            key=lambda k: (sum(k[0]), k[0], sum(k[1]), k[1]),
        )
        pairs = map(TensorPolynomial._label, keys[:limit])
        return [(u, v, self.coeff(u, v), other.coeff(u, v)) for u, v in pairs]


def diagonal(max_weight: int, side: str) -> GradedTensorSeries:
    """sum over words of weight <= max_weight of w (x) w."""
    max_weight = as_natural(max_weight)
    return GradedTensorSeries({(w, w): 1 for w in words_up_to(max_weight)}, max_weight, side)


def pi1_series(max_weight: int) -> GradedTensorSeries:
    """sum over nonempty words w of weight <= max_weight of w (x) pi1(w),
    the stuffle on the left: log of `diagonal(max_weight, "stuffle")`."""
    pis = [(w.letters, bases.pi1(w)) for w in words_up_to(as_natural(max_weight), include_empty=False)]
    den, buckets = lcm(*(p._den for _, p in pis)), {}
    for u, p in pis:
        buckets.setdefault((sum(u),) * 2, {}).update(((u, v), n * (den // p._den)) for v, n in p._nums.items())
    return GradedTensorSeries.unit(max_weight, "stuffle")._like(buckets, den)


def _homogeneous_weight(p: NCPolynomial) -> int | None:
    weights = p.weights()
    return weights.pop() if len(weights) == 1 else None


def _exp_product(factors, bound: int, left_kind: str) -> GradedTensorSeries:
    """The ordered product, leftmost first, of exp(dual (x) primal) over the
    (dual, primal) pairs of `factors`, truncated at `bound`; each pair must
    be nonzero and homogeneous of one weight m >= 1.

    Expanded by distributivity, the product is a sum of pure tensors, one per
    choice of a power k_j >= 0 of each factor j: (the *-product of the
    dual_j^{*k_j}) / prod k_j! (x) the concatenation of the primal_j^{k_j}.
    Each is an entry (weight, left numerators, right numerators,
    denominator), extended factor by factor from 1 (x) 1; the denominator
    takes d·e·k at power k, d and e those of dual and primal.  The entries
    are flattened once, over the lcm of their denominators, into bucket
    (w, w): per weight w, each left part is packed into one int with a slot
    per left word, sized by the L1 bound of the weight's entries, and that
    int times each right numerator is added into one int per right word."""
    unit, kernel = GradedTensorSeries.unit(bound, left_kind), _LEFT_KERNELS[left_kind]
    entries = [(0, {(): 1}, {(): 1}, 1)]
    for dual, primal in factors:
        m = _homogeneous_weight(dual)
        if not m or _homogeneous_weight(primal) != m:
            raise ValueError(
                "exp factor needs dual and primal nonzero and homogeneous of one weight >= 1"
            )
        de = dual._den * primal._den
        for w, left, right, den in entries[:]:
            for k in range(1, (unit.bound - w) // m + 1):
                left = bilinear(left, dual._nums, kernel)
                right = bilinear(right, primal._nums, concat_words)
                den, w = den * de * k, w + m
                entries.append((w, left, right, den))
    den, bounds, rows, buckets = lcm(*(e[3] for e in entries)), {}, {}, {}
    for w, left, right, d in entries:
        bounds[w] = bounds.get(w, 0) + sum(map(abs, left.values())) * sum(map(abs, right.values())) * (den // d)
    while entries:
        w, left, right, d = entries.pop()
        # slot of u: the partial sums of u below its weight w, in [0, 2^(w-1))
        width, acc = _width(bounds[w]), rows.setdefault(w, {})
        packed = _pack((((_code(u) & (1 << w) - 2) >> 1, n) for u, n in left.items()), width) * (den // d)
        for v, n in right.items():
            acc[v] = acc.get(v, 0) + packed * n
    for w, acc in rows.items():
        word, width = {(_code(x) & (1 << w) - 2) >> 1: x for x in compositions_of(w)}, _width(bounds[w])
        buckets[w, w] = {(word[s], v): n for v, x in acc.items() for s, n in _unpack(x, width).items()}
    return unit._like(buckets, den)


def lyndon_decreasing(max_weight: int) -> list[Word]:
    """Lyndon words of weight <= max_weight, largest first in the word order."""
    return sorted(lyndon_up_to(max_weight), reverse=True)


def factorized_product(
    max_weight: int,
    pair: str,
    mismatch: bool = False,
) -> GradedTensorSeries:
    """Ordered product over Lyndon words, largest leftmost, of
    exp(dual_l (x) primitive_l) for the requested dual pair.

    `mismatch` swaps in the primitive family of the opposite side, a
    negative control that breaks the identity at weight 2."""
    if pair not in PAIRS:
        raise ValueError(f"unknown pair {pair!r}; expected one of {PAIRS}")
    max_weight, (dual, primal, kind) = as_natural(max_weight), bases.PAIRS[pair]
    if mismatch:
        primal = "Pi" if pair == "shuffle" else "p"
    factors = [
        [bases.basis_element(f, l).value for f in (dual, primal)] for l in lyndon_decreasing(max_weight)
    ]
    return _exp_product(factors, max_weight, kind)


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
        sum_w M_w (x) pi1(w), `pi1_series`;
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
    diag = diagonal(max_weight, "stuffle")  # (b) takes its log, (c) compares with it

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
    ok_log = diag.log() == pi1_series(max_weight)
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
    for pair in ("stuffle", "L", "R"):
        ok = factorized_product(max_weight, pair) == diag
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
