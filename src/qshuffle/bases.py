"""Dual PBW bases on the word algebra and the generating-series machinery
behind them.

Four dual systems are built here, all indexed by words through their
decreasing Lyndon factorizations.  `PAIRS` is the one table of them (dual
family, primal family, commutative product on the dual side):

* (p_w, s_w): the classical shuffle pair, p seeded by the letters y_n.
* (Pi_w, Sigma_w): the quasi-shuffle pair, Pi seeded by the primitive
  projections pi1(y_n).
* (Pi^L, Sigma^L) and (Pi^R, Sigma^R): seeded by the primitive elements L_n
  and R_n coming from the logarithmic derivatives of the letter generating
  series.

One construction, `_value`, builds all eight families.  A primal family
sends a letter to its seed, a Lyndon word to the bracket over its standard
factorization, and any other word to the concatenation product over its
decreasing Lyndon factorization.  s is y_a·s_u at a Lyndon word l = a·u and
the normalized shuffle product of its Lyndon factors elsewhere (Reutenauer,
Free Lie Algebras, 1993, ch. 5).  The quasi-shuffle duals read no primal
row: Pi^X_w = phi_X(p_w) for the concatenation morphism phi_X: y_n ->
seed_X(n), so Sigma^X_w = Psi_X(s_w) with Psi_X the adjoint of phi_X^{-1}
(`_psi`), and phi_X^{-1} has a closed form on letters (`_lambda`; for Pi
it is Hoffman's exponential: Hoffman, "Quasi-shuffle products", J. Algebraic
Combin. 11, 2000, Thm 2.5), which no seed enters.

pi1 of a letter, the seed of Pi, is in closed form; at longer words it is
read off one table per weight, the transpose sum_k ((-1)^(k-1)/k) u_1 st ...
st u_k over the cuts of a word into k nonempty words (`_pi1_table`).

The series side lives in `TSeries`, a t-truncated power series with
polynomial coefficients on the bucketed core `ncpoly.Graded`: the letter
series, its inverse, the L/R series, their higher-derivative analogues, and
truncated log/ad-exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, lcm, prod
from types import MappingProxyType
from typing import Mapping

from .lyndon import lyndon_factorization, standard_factorization
from .ncpoly import Graded, NCPolynomial, add_into, bilinear, concat_words, product, stuffle_words
from .words import Word, as_int, as_natural, compositions_of, stats


def _bracket(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    return a * b - b * a


def _y(n: int) -> NCPolynomial:
    return NCPolynomial.word(Word((n,)))


# ---------------------------------------------------------------------------
# primitive projection for the quasi-shuffle coproduct
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pi1_table(n: int) -> MappingProxyType:
    """Read-only {w: pi1(w)} over the words w of weight n.  The coefficient of
    v in pi1(w) is that of w in pi1^T(v) = sum_k ((-1)^(k-1)/k) G_k(v), with
    G_1(v) = v and G_k(v) the sum over cuts v = u·v' (u, v' nonempty) of
    u st G_{k-1}(v'); numerators over lcm(1..n), G cached for this build."""
    den, memo, table = lcm(*range(1, n + 1)), {}, {w: {} for w in compositions_of(n)}

    def g(v: tuple, k: int) -> dict:
        if k == 1:
            return {v: 1}
        if (v, k) not in memo:
            memo[v, k] = {}
            for i in range(1, len(v) - k + 2):
                bilinear({v[:i]: 1}, g(v[i:], k - 1), stuffle_words, memo[v, k])
        return memo[v, k]

    for v in table:
        terms = ((w, (-1) ** (k - 1) * (den // k) * c) for k in range(1, len(v) + 1) for w, c in g(v, k).items())
        for w, c in add_into({}, terms).items():
            table[w][v] = c
    return MappingProxyType({w: NCPolynomial._from(nums, den) for w, nums in table.items()})


@lru_cache(maxsize=None)
def _pi1_word(letters: tuple) -> NCPolynomial:
    # a longer word reads its table; a letter y_n is split only by the
    # compositions I of n, each once: sum over I |= n of (-1)^(l(I)-1)/l(I) y_I
    if len(letters) != 1:
        return _pi1_table(sum(letters))[letters]
    den = lcm(*range(1, letters[0] + 1))
    nums = {i: (-1) ** (len(i) - 1) * (den // len(i)) for i in compositions_of(letters[0])}
    return NCPolynomial._from(nums, den)


def pi1(p: NCPolynomial | Word) -> NCPolynomial:
    """Projection onto the primitive part of the quasi-shuffle Hopf algebra,
    extended linearly from words."""
    if isinstance(p, Word):
        return _pi1_word(p.letters)
    return NCPolynomial._sum((_pi1_word(w), n) for w, n in p._nums.items()) / p._den


# ---------------------------------------------------------------------------
# letter generating series: inverse, L/R elements
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _x(n: int) -> NCPolynomial:
    # X_0 = 1 and X_n = -sum_{i=1..n} y_i X_{n-i}, the coefficients of the
    # multiplicative inverse of 1 + sum y_n t^n.
    if n == 0:
        return NCPolynomial.one()
    return NCPolynomial._sum((_y(i) * _x(n - i), -1) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _lr(n: int, side: str) -> NCPolynomial:
    # L_n for side "L", R_n for side "R": the letter y_i sits left of
    # X_{n-i} in L_n and right of it in R_n.
    terms = ((_y(i) * _x(n - i) if side == "L" else _x(n - i) * _y(i), i) for i in range(1, n + 1))
    return NCPolynomial._sum(terms)


def x_elements(n_max: int) -> list[NCPolynomial]:
    """[X_1, ..., X_n] with X_0 = 1 implicit."""
    return [_x(n) for n in range(1, as_natural(n_max) + 1)]


def l_elements(n_max: int) -> list[NCPolynomial]:
    """[L_1, ..., L_n]: L_n = sum_{i=0}^{n-1} (i+1) y_{i+1} X_{n-1-i}."""
    return [_lr(n, "L") for n in range(1, as_natural(n_max) + 1)]


def r_elements(n_max: int) -> list[NCPolynomial]:
    """[R_1, ..., R_n]: R_n = sum_{i=0}^{n-1} (i+1) X_{n-1-i} y_{i+1}."""
    return [_lr(n, "R") for n in range(1, as_natural(n_max) + 1)]


def y_in_r_expansion(n: int, use_partial_sums: bool = True) -> bool:
    """Checks y_n = sum over compositions J of n of R^J / pi_u(J), where
    R^J = R_{j_1}...R_{j_k} and pi_u is the partial-sum product.

    With use_partial_sums=False the plain part product pi(J) is used instead;
    that variant fails already at n = 2 and is kept as a negative control.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = ((prod((_lr(j, "R") for j in c), start=NCPolynomial.one()), stats(c)) for c in compositions_of(n))
    return NCPolynomial._sum((r, Fraction(1, st.pi_u if use_partial_sums else st.pi)) for r, st in terms) == _y(n)


# ---------------------------------------------------------------------------
# the dual-pair table and the one construction of all eight families
# ---------------------------------------------------------------------------

# pair -> (dual family, primal family, commutative product on the dual side)
PAIRS = {
    "shuffle": ("s", "p", "shuffle"),
    "stuffle": ("Sigma", "Pi", "stuffle"),
    "L": ("SigmaL", "PiL", "stuffle"),
    "R": ("SigmaR", "PiR", "stuffle"),
}
FAMILIES = tuple(f for dual, primal, _ in PAIRS.values() for f in (primal, dual))

# primal family -> image of the letter y_n
_LETTER = {
    "p": _y,
    "Pi": lambda n: _pi1_word((n,)),
    "PiL": lambda n: _lr(n, "L"),
    "PiR": lambda n: _lr(n, "R"),
}
# quasi-shuffle dual family -> its primal family
_DUAL = {dual: primal for dual, primal, kind in PAIRS.values() if kind == "stuffle"}


@lru_cache(maxsize=None)
def _value(family: str, letters: tuple) -> NCPolynomial:
    """The element of the family at a word (the construction is in the
    module docstring)."""
    if not letters:
        return NCPolynomial.one()
    if family in _DUAL:
        # Sigma^X_w = Psi_X(s_w), summed over one common denominator
        primal, s = _DUAL[family], _value("s", letters)
        nums: dict = {}
        for x, c in s._nums.items():
            add_into(nums, _psi(primal, x), c)
        return NCPolynomial._from(nums, s._den * _psi_den(primal, sum(letters)))
    w = Word._raw(letters)
    factors = lyndon_factorization(w).factors
    if factors == ((w, 1),):
        if family == "s":
            # s_l = y_a·s_u for l = a·u (Reutenauer, Free Lie Algebras, ch. 5)
            return _y(letters[0]) * _value("s", letters[1:])
        if len(letters) == 1:
            return _LETTER[family](letters[0])
        s, r = standard_factorization(w)
        return _bracket(_value(family, s.letters), _value(family, r.letters))
    if family == "s":
        kind, den = "shuffle", prod(factorial(mult) for _, mult in factors)
    else:
        kind, den = "concat", 1
    out = NCPolynomial.one()
    for l, mult in factors:
        piece = _value(family, l.letters)
        for _ in range(mult):
            out = product(out, piece, kind)
    return out / den


# primal family -> c(I) in lambda_n = sum over I |= n of y_I / c(I): l(I)! for
# Pi (Hoffman's exponential), the product of the partial sums of I for PiR
# (the identity `y_in_r_expansion` checks) and of I's mirror for PiL
_LAMBDA_DEN = {
    "Pi": lambda i: factorial(len(i)),
    "PiL": lambda i: prod(accumulate(reversed(i))),
    "PiR": lambda i: prod(accumulate(i)),
}


@lru_cache(maxsize=None)
def _lambda(primal: str, n: int) -> NCPolynomial:
    """lambda_n = phi^{-1}(y_n), phi: y_m -> seed(m) the primal family's
    concatenation morphism, in the closed form of `_LAMBDA_DEN`."""
    dens = {i: _LAMBDA_DEN[primal](i) for i in compositions_of(n)}
    den = lcm(*dens.values())
    return NCPolynomial._from({i: den // c for i, c in dens.items()}, den)


@lru_cache(maxsize=None)
def _psi_den(primal: str, n: int) -> int:
    # the common denominator of Psi at the words of weight n
    return lcm(*(_lambda(primal, m)._den * _psi_den(primal, n - m) for m in range(1, n + 1)))


@lru_cache(maxsize=None)
def _psi(primal: str, letters: tuple) -> tuple:
    """Psi(w), the adjoint of phi^{-1}, as (word, numerator) pairs over
    _psi_den(primal, |w|): each cut of w into a first block b and the rest
    adds <lambda_{|b|}, b> y_{|b|}·Psi(rest).  The first letters |b| differ
    between cuts, so no two pairs share a word."""
    if not letters:
        return (((), 1),)
    n, m, out = sum(letters), 0, []
    for i, a in enumerate(letters, 1):
        m += a
        lam = _lambda(primal, m)
        c = lam._nums.get(letters[:i])
        if c:
            f = c * (_psi_den(primal, n) // (lam._den * _psi_den(primal, n - m)))
            out.extend(((m, *x), f * k) for x, k in _psi(primal, letters[i:]))
    return tuple(out)


def _element(family: str, w: Word) -> NCPolynomial:
    if family not in FAMILIES:
        raise ValueError(f"unknown basis family {family!r}; expected one of {FAMILIES}")
    return _value(family, w.letters)


def _sided(family: str, side: str) -> str:
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    return family + side


def p_basis(w: Word) -> NCPolynomial:
    return _element("p", w)


def s_basis(w: Word) -> NCPolynomial:
    return _element("s", w)


def pi_basis(w: Word) -> NCPolynomial:
    return _element("Pi", w)


def sigma_basis(w: Word) -> NCPolynomial:
    return _element("Sigma", w)


def pi_s_basis(w: Word, side: str) -> NCPolynomial:
    return _element(_sided("Pi", side), w)


def sigma_s_basis(w: Word, side: str) -> NCPolynomial:
    return _element(_sided("Sigma", side), w)


@dataclass(frozen=True)
class BasisElement:
    index: Word
    family: str
    value: NCPolynomial


def basis_element(family: str, w: Word) -> BasisElement:
    return BasisElement(index=w, family=family, value=_element(family, w))


# ---------------------------------------------------------------------------
# truncated power series in t with polynomial coefficients
# ---------------------------------------------------------------------------

class TSeries(Graded):
    """Truncated series sum_n c_n t^n with NCPolynomial coefficients, an
    `ncpoly.Graded` value graded by (n,) and keyed by the words of c_n.

    `bound` records up to which t-degree the coefficients are trustworthy;
    binary operations propagate the weaker bound, and differentiation loses
    one degree (ValueError at bound 0).  Comparisons should use same_up_to.
    The bound and every degree given to the constructor must be integers
    >= 0 (ValueError otherwise); degrees above `bound` are dropped.
    """

    __slots__ = ()
    _unit = ((0,), ())
    # concat_words itself, so that `bilinear` concatenates inline
    _kernel = staticmethod(concat_words)

    def __init__(self, coeffs: Mapping[int, NCPolynomial], bound: int):
        coeffs = {as_natural(d): p for d, p in coeffs.items()}
        den = lcm(*(p._den for p in coeffs.values()))
        buckets = {(d,): {k: n * (den // p._den) for k, n in p._nums.items()} for d, p in coeffs.items()}
        self._set(buckets, den, as_natural(bound))

    @classmethod
    def one(cls, bound: int) -> "TSeries":
        return cls({0: NCPolynomial.one()}, bound)

    @property
    def coeffs(self) -> Mapping[int, NCPolynomial]:
        """Read-only t-degree -> coefficient view, built on first read."""
        if self._terms is None:
            self._terms = MappingProxyType(
                {d: NCPolynomial._from(t, self._den) for (d,), t in self._buckets.items()}
            )
        return self._terms

    def coeff(self, d: int) -> NCPolynomial:
        return self.coeffs.get(d, NCPolynomial.zero())

    def truncate(self, bound: int) -> "TSeries":
        return self._like(self._buckets, self._den, min(as_natural(bound), self.bound))

    def derivative(self) -> "TSeries":
        # a series of bound 0 has no degree to lose
        if not self.bound:
            raise ValueError("the derivative of a series of bound 0 has no trustworthy degree")
        buckets = {(d - 1,): {k: n * d for k, n in t.items()} for (d,), t in self._buckets.items() if d}
        return self._like(buckets, self._den, self.bound - 1)

    def same_up_to(self, other: "TSeries", degree: int | None = None) -> bool:
        d_max = min(self.bound, other.bound, self.bound if degree is None else as_natural(degree))
        return self.truncate(d_max) == other.truncate(d_max)

    def __repr__(self) -> str:
        body = ", ".join(f"t^{d}: {p!s}" for d, p in sorted(self.coeffs.items()))
        return f"TSeries(bound={self.bound}; {body})"


def y_series(bound: int) -> TSeries:
    """1 + sum_{n>=1} y_n t^n, truncated at the given degree."""
    bound = as_natural(bound)
    return TSeries({0: NCPolynomial.one(), **{n: _y(n) for n in range(1, bound + 1)}}, bound)


def y_inverse_series(bound: int) -> TSeries:
    return TSeries({n: _x(n) for n in range(as_natural(bound) + 1)}, bound)


def l_series(bound: int) -> TSeries:
    return TSeries(dict(enumerate(l_elements(as_natural(bound) + 1))), bound)


def r_series(bound: int) -> TSeries:
    return TSeries(dict(enumerate(r_elements(as_natural(bound) + 1))), bound)


def log_y_series(bound: int) -> TSeries:
    return y_series(bound).log()


def _higher_chain(k: int, bound: int):
    """Yields (cal_L_j, cal_R_j, off) of `higher_series` to the bound for
    j = 1..k, one chain from pad = bound + k - 1.  off is None when
    cal_L_j * Y = Y^(j) = Y * cal_R_j holds to the bound, else the least
    t-degree where it fails, or bound + 1 when a series came out short."""
    k, bound = as_int(k), as_natural(bound)
    if k < 1:
        raise ValueError("k must be >= 1")
    cal_l, cal_r = l_series(bound + k - 1), r_series(bound + k - 1)
    y, y_j = y_series(bound), y_series(bound + k)
    for j in range(1, k + 1):
        y_j = y_j.derivative()
        out_l, out_r, want = cal_l.truncate(bound), cal_r.truncate(bound), y_j.truncate(bound)
        diffs = (out_l * y - want, y * out_r - want) if out_l.bound == out_r.bound == bound else ()
        yield out_l, out_r, min((d for x in diffs for (d,) in x._buckets), default=None if diffs else bound + 1)
        if j < k:
            cal_l = cal_l.derivative() + cal_l * l_series(cal_l.bound - 1)
            cal_r = cal_r.derivative() + r_series(cal_r.bound - 1) * cal_r


def higher_series(k: int, bound: int) -> tuple[TSeries, TSeries]:
    """The order-k analogues of the L/R series, via the recursions
    next = d/dt(previous) + previous * L  (left side)
    next = d/dt(previous) + R * previous  (right side),
    each exact to the requested degree, as the last pair of one chain over
    the orders 1..k (`_higher_chain`); each product runs at b - 1, the bound
    of the derivative it is added to.  The chain's verdicts check cal_L_j * Y
    = Y^(j) = Y * cal_R_j to the full bound at every order j <= k, and
    AssertionError names the first j that fails.  k must be an integer >= 1,
    bound >= 0."""
    for j, (cal_l, cal_r, off) in enumerate(_higher_chain(k, bound), 1):
        if off is not None:
            raise AssertionError(f"higher_series postcondition failed at k={j}, bound={bound}")
    return cal_l, cal_r


def exp_ad(a: TSeries, b: TSeries) -> TSeries:
    """sum_n ad_a^n(b) / n! with ad_a(x) = a x - x a, truncated.

    a must have no t^0 coefficient (ValueError otherwise): each ad
    application then raises the minimum t-degree, so the sum is finite.  It
    is evaluated as the conjugation e^a · b · e^(-a) (Reutenauer, Free Lie
    Algebras, 1993, ch. 3), each exponential one `Graded.exp`."""
    return a.exp() * b.truncate(a.bound) * (-a).exp()
