"""Truncated diagonal series and its factorization into Lyndon-indexed
exponentials, for each of the four dual-basis pairs, plus the character-series
identities that transport the factorization into QSym/Sym.

The diagonal series sum_w w (x) w multiplies words with the commutative
product (shuffle or quasi-shuffle) on the left tensor factor and with
concatenation on the right.  Its factorization is the ordered product over
Lyndon words, largest first, of exp(dual_l (x) primitive_l)."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import bases
from .lyndon import lyndon_up_to
from .ncpoly import (
    NCPolynomial,
    TensorPolynomial,
    _as_coeff,
    add_into,
    bilinear,
    product,
    shuffle_words,
    stuffle_words,
)
from .symqsym import encode_M, encode_S
from .words import Composition, Word, sort_key, word_str, words_up_to

PAIRS = tuple(bases.PAIRS)


class GradedTensorSeries:
    """Finite (word, word) -> rational map truncated by weight on both sides;
    the left slot multiplies with `left_kind`, the right with concatenation.

    Both products are graded, so `*` groups each operand's terms by (left
    weight, right weight) and multiplies only the bucket pairs whose summed
    weights stay within the bound; the kernels run on letter tuples and the
    result is keyed by (Word, Word) again."""

    __slots__ = ("terms", "bound", "left_kind")

    def __init__(self, terms, bound: int, left_kind: str):
        if left_kind not in ("shuffle", "stuffle"):
            raise ValueError(f"left_kind must be shuffle or stuffle, got {left_kind!r}")
        self.bound = bound
        self.left_kind = left_kind
        items = (terms or {}).items()
        self.terms: dict[tuple[Word, Word], Fraction] = add_into(
            {}, (((u, v), _as_coeff(c)) for (u, v), c in items if max(u.weight, v.weight) <= bound)
        )

    @classmethod
    def unit(cls, bound: int, left_kind: str) -> "GradedTensorSeries":
        return cls({(Word(), Word()): Fraction(1)}, bound, left_kind)

    def coeff(self, u: Word, v: Word) -> Fraction:
        return self.terms.get((u, v), Fraction(0))

    def _buckets(self) -> dict[tuple[int, int], dict[tuple[tuple, tuple], Fraction]]:
        # (left weight, right weight) -> {(left letters, right letters): coeff}
        out: dict = {}
        for (u, v), c in self.terms.items():
            u, v = u.letters, v.letters
            out.setdefault((sum(u), sum(v)), {})[(u, v)] = c
        return out

    def __mul__(self, other: "GradedTensorSeries") -> "GradedTensorSeries":
        if self.left_kind != other.left_kind:
            raise ValueError("cannot multiply series with different left products")
        bound = min(self.bound, other.bound)
        kernel = shuffle_words if self.left_kind == "shuffle" else stuffle_words

        def pair_kernel(a, b):
            v = a[1] + b[1]
            return [((u, v), n) for u, n in kernel(a[0], b[0])]

        out: dict[tuple[tuple, tuple], Fraction] = {}
        theirs = other._buckets()
        for (l1, r1), p in self._buckets().items():
            for (l2, r2), q in theirs.items():
                if l1 + l2 <= bound and r1 + r2 <= bound:
                    add_into(out, bilinear(p, q, pair_kernel).items())
        raw = Word._raw
        result = GradedTensorSeries.__new__(GradedTensorSeries)
        result.terms = {(raw(u), raw(v)): c for (u, v), c in out.items()}
        result.bound = bound
        result.left_kind = self.left_kind
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedTensorSeries)
            and self.left_kind == other.left_kind
            and self.terms == other.terms
        )

    def discrepancies(self, other: "GradedTensorSeries", limit: int = 20) -> list[tuple]:
        """Sorted list of (u, v, this coefficient, other coefficient) where the
        two series differ, capped at `limit` entries."""
        keys = set(self.terms) | set(other.terms)
        diffs = []
        for key in sorted(keys, key=lambda k: (sort_key(k[0]), sort_key(k[1]))):
            a, b = self.terms.get(key, Fraction(0)), other.terms.get(key, Fraction(0))
            if a != b:
                diffs.append((key[0], key[1], a, b))
                if len(diffs) >= limit:
                    break
        return diffs


def diagonal(max_weight: int, side: str) -> GradedTensorSeries:
    """sum over words of weight <= max_weight of w (x) w."""
    terms = {(w, w): Fraction(1) for w in words_up_to(max_weight)}
    return GradedTensorSeries(terms, max_weight, side)


def _exp_factor(
    dual: NCPolynomial, primal: NCPolynomial, bound: int, left_kind: str
) -> GradedTensorSeries:
    # exp(dual (x) primal) = sum_k (dual^{*k} / k!) (x) primal^k; both inputs
    # are weight-homogeneous of the same weight m, so k <= bound // m.
    m = dual.max_weight()
    terms: dict[tuple[Word, Word], Fraction] = {(Word(), Word()): Fraction(1)}
    dual_pow = NCPolynomial.one()
    primal_pow = NCPolynomial.one()
    k = 0
    while (k + 1) * m <= bound:
        k += 1
        dual_pow = product(dual_pow, dual, left_kind)
        primal_pow = primal_pow * primal
        pow_terms = TensorPolynomial.tensor(dual_pow, primal_pow).terms
        add_into(terms, pow_terms.items(), Fraction(1, factorial(k)))
    return GradedTensorSeries(terms, bound, left_kind)


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
        acc = acc * _exp_factor(dual_l, primal_l, max_weight, kind)
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

def _encoded_key(u: Word, v: Word) -> tuple[Composition, Composition]:
    # encode_M(u) = M_u and encode_S(v) = S^v are single terms
    (i,) = encode_M(u).terms
    (j,) = encode_S(v).terms
    return i, j


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
    log of `diagonal(max_weight, "stuffle")`, and (c) is `factorized_product`
    for the stuffle, L and R pairs with its keys relabeled through the
    encodings.
    """
    results: list[tuple[str, bool, str]] = []

    # (a) character property
    bad = None
    all_words = words_up_to(max_weight)
    for u in all_words:
        for v in all_words:
            if u.weight + v.weight > max_weight:
                continue
            lhs = encode_M(product(NCPolynomial.word(u), NCPolynomial.word(v), "stuffle"))
            rhs = encode_M(u) * encode_M(v)
            if lhs != rhs:
                bad = (u, v)
                break
        if bad:
            break
    results.append(
        (
            "character-morphism",
            bad is None,
            "monomial encoding turns quasi-shuffle into the star product"
            if bad is None
            else f"fails at u={word_str(bad[0])}, v={word_str(bad[1])}",
        )
    )

    # (b) log of the generating series: log(1 + z) with z = diagonal - 1
    z = diagonal(max_weight, "stuffle")
    del z.terms[(Word(), Word())]
    log_series: dict[tuple[Word, Word], Fraction] = {}
    power = GradedTensorSeries.unit(max_weight, "stuffle")
    for k in range(1, max_weight + 1):
        power = power * z
        if not power.terms:
            break
        add_into(log_series, power.terms.items(), Fraction((-1) ** (k - 1), k))
    expected = {
        (w, x): c
        for w in words_up_to(max_weight, include_empty=False)
        for x, c in bases.pi1(w).terms.items()
    }
    ok_log = log_series == expected
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
    target = {
        (w.letters, w.letters): Fraction(1) for w in words_up_to(max_weight)
    }
    for pair in ("stuffle", "L", "R"):
        got = factorized_product(max_weight, pair).terms
        ok = {_encoded_key(u, v): c for (u, v), c in got.items()} == target
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
