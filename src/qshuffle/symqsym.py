"""Noncommutative symmetric functions and quasi-symmetric functions as
composition-indexed algebras.

Sym carries five bases: complete (S), elementary (Lambda), power sums of the
first (Psi) and second (Phi) kind, and ribbons (Rib).  QSym carries the
monomial (M) and fundamental (F) bases.  Every conversion is one step over
cached rows, one per (source, target, composition), each a reduced element
of the target basis.  Rows of more than one part are products of the rows of
their halves, joined on partial-sum codes (`words._code`) and corrected by
the near-concatenation of ribbons.  The sides pair by <S^I, M_J> = delta.
Composition tuples are the letter tuples of words, so the Hopf structure is
the word algebra's read through the encodings at the bottom: the M side
multiplies through `ncpoly.stuffle_words`, the Sym coproduct is the
quasi-shuffle coproduct of words and the QSym coproduct is deconcatenation,
both from `ncpoly.coproduct`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .ncpoly import (
    NCPolynomial,
    Sparse,
    TensorPolynomial,
    _coeff,
    _integral,
    _lincomb,
    add_into,
    bilinear,
    concat_words,
    coproduct,
    dot,
    fraction_view,
    stuffle_words,
)
from .words import (
    Composition,
    Word,
    _code,
    _decode,
    _letters,
    as_int,
    as_natural,
    comp_str,
    compositions_of,
    compositions_up_to,
    parse_coeff,
    parse_comp,
    refinements,
    relative_stats,
    signed_str,
    signed_terms,
    stats,
)

SYM_BASES = ("S", "Lambda", "Psi", "Phi", "Rib")
QSYM_BASES = ("M", "F")


class _CompositionIndexed(Sparse):
    """Composition -> rational map in one basis; `.terms` is keyed by
    composition tuples, whose parts must be >= 1."""

    __slots__ = ("basis",)
    _VALID: tuple[str, ...] = ()

    def __init__(self, terms=None, basis: str = ""):
        self.basis = self._checked(basis)
        super().__init__(terms)

    @classmethod
    def _checked(cls, basis: str) -> str:
        if basis not in cls._VALID:
            raise ValueError(f"unknown basis {basis!r}; expected one of {cls._VALID}")
        return basis

    @classmethod
    def _in(cls, basis: str, nums: dict, den: int = 1):
        out = cls._from(nums, den)
        out.basis = basis
        return out

    def _like(self, nums: dict, den: int):
        return self._in(self.basis, nums, den)

    @classmethod
    def single(cls, comp: Composition, basis: str, coeff=1):
        # checks in the order of the general constructor: basis, parts, coefficient
        basis, key, c = cls._checked(basis), _letters(comp), _coeff(coeff)
        return cls._in(basis, {key: c.numerator} if c else {}, c.denominator)

    @classmethod
    def unit(cls, basis: str):
        return cls({(): 1}, basis)

    @classmethod
    def zero(cls, basis: str):
        return cls({}, basis)

    def _check_same_basis(self, other):
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other):
        self._check_same_basis(other)
        return super().__add__(other)

    def __sub__(self, other):
        self._check_same_basis(other)
        return super().__sub__(other)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.basis == other.basis

    def support(self) -> list[Composition]:
        return self._sorted_keys()

    def __str__(self) -> str:
        return element_str(self)


class SymElement(_CompositionIndexed):
    __slots__ = ()
    _VALID = SYM_BASES

    def __mul__(self, other):
        if not isinstance(other, SymElement):
            return self._scaled(other)
        self._check_same_basis(other)
        if self.basis == "Rib":
            # ribbons are not multiplicative; route through the complete basis
            prod_s = convert(self, "S") * convert(other, "S")
            return convert(prod_s, "Rib")
        return self._like(bilinear(self._nums, other._nums, concat_words), self._den * other._den)


class QSymElement(_CompositionIndexed):
    __slots__ = ()
    _VALID = QSYM_BASES

    def __mul__(self, other):
        if not isinstance(other, QSymElement):
            return self._scaled(other)
        return qsym_product(self, other)


def element_str(x: _CompositionIndexed) -> str:
    """Canonical text form, e.g. "S:(1,1) - S:(2)"; the empty-composition
    term prints as a bare coefficient."""
    return signed_str((x.terms[c], f"{x.basis}:{comp_str(c)}" if c else "") for c in x.support())


def parse_element(s: str, default_basis: str | None = None):
    """Parses "S:(1,2)", "2·M:(1) - 1/2·M:(2)", or untagged compositions
    like "(1,2)" when default_basis is given."""
    basis: str | None = None
    terms: list[tuple[Composition, Fraction]] = []
    for sign, cs, tok in signed_terms(s):
        coeff = Fraction(1) if cs is None else parse_coeff(cs)
        if ":" in tok:
            tag, comp_part = tok.split(":", 1)
            tag = tag.strip()
            if basis is None:
                basis = tag
            elif basis != tag:
                raise ValueError(f"mixed bases in element text: {basis} vs {tag}")
            comp = parse_comp(comp_part)
        elif tok.startswith("("):
            comp = parse_comp(tok)
        else:
            coeff = coeff * parse_coeff(tok)
            comp = ()
        terms.append((comp, sign * coeff))
    basis = basis or default_basis
    if basis is None:
        raise ValueError("cannot infer basis from element text; tag terms like S:(1,2)")
    if basis not in SYM_BASES + QSYM_BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {SYM_BASES + QSYM_BASES}")
    return (SymElement if basis in SYM_BASES else QSymElement)(terms, basis)


def element_to_json(x: _CompositionIndexed) -> dict:
    return {
        "basis": x.basis,
        "terms": [
            {"composition": list(c), "coeff": str(x.terms[c])} for c in x.support()
        ],
    }


# ---------------------------------------------------------------------------
# basis changes (products of one-part rows, corrected for ribbons; see tests
# for the per-refinement and mirror-statistics formulas kept as oracles)
# ---------------------------------------------------------------------------

# (source, target), S or M at one end -> coefficient of target_J in source_(n), s = stats(J)
_ONE_PART = {
    **dict.fromkeys((("Lambda", "S"), ("S", "Lambda")), lambda n, s: (-1) ** (n - s.l)),
    ("Psi", "S"): lambda n, s: (-1) ** (s.l - 1) * s.lp,
    ("S", "Psi"): lambda n, s: Fraction(1, s.pi_u),
    ("Phi", "S"): lambda n, s: (-1) ** (s.l - 1) * Fraction(n, s.l),
    ("S", "Phi"): lambda n, s: Fraction(1, s.sp),
    ("F", "M"): lambda n, s: 1,
    ("M", "F"): lambda n, s: (-1) ** (s.l - 1),
}


@lru_cache(maxsize=None)
def _row(source: str, target: str, comp: Composition):
    """The row of source^I in target, two bases of one side, as a reduced element of target
    that one-term conversions share, so it never changes once built.  A one-part row is a
    closed formula when S or M is one end (Rib_(n) = S_(n)), and is read through S otherwise.
    A longer row is the product of its halves' rows, I and J (halves keep the recursion depth
    log l(comp)), keyed by partial-sum codes (`words._code`): every basis but Rib is
    multiplicative and the F/M coefficients are products over the blocks of the key, so the
    term of j·k has code _code(j) | _code(k) << a, a = w(I).  It is corrected by
    Rib_I·Rib_J = Rib_(I·J) + Rib_(I⊙J), I⊙J joining the last part of I to the first of J
    (Gelfand et al., Adv. Math. 112, 1995): a ribbon target takes each term twice, under code
    c and c ^ 1 << a, which differ in bit a, and a ribbon source subtracts the row of
    Rib_(I⊙J), which has one part fewer."""
    cls = SymElement if source in SYM_BASES else QSymElement
    if len(comp) <= 1:
        if not comp or {source, target} == {"S", "Rib"}:
            return cls._in(target, {comp: 1})
        if coeff := _ONE_PART.get((source, target)):
            return cls._in(target, *_integral((j, coeff(comp[0], stats(j))) for j in compositions_of(comp[0])))
        return convert(convert(SymElement.single(comp, source), "S"), target)
    half = len(comp) // 2
    shift, left, right = sum(comp[:half]), _row(source, target, comp[:half]), _row(source, target, comp[half:])
    right_codes = [_code(k) << shift for k in right._nums]
    codes = [j | k for j in map(_code, left._nums) for k in right_codes]
    prods = [x * y for x in left._nums.values() for y in right._nums.values()]
    if target == "Rib":
        codes, prods = codes + [c ^ 1 << shift for c in codes], prods * 2
    out = cls._in(target, dict(zip(map(_decode, codes), prods)), left._den * right._den)
    if source == "Rib":
        return out - _row(source, target, _decode(_code(comp) ^ 1 << shift))
    return out


# element type -> (name, bases)
_ROUTES = {SymElement: ("Sym", SYM_BASES), QSymElement: ("QSym", QSYM_BASES)}


def convert(x: SymElement | QSymElement, target: str):
    """Exact basis change in one step for any number of terms: the sum over the terms c·I of
    x of c times the cached `_row` of I.  A one-term x (every point query) is a new element
    on its row's numerators, scaled when its numerator is not 1."""
    if type(x) not in _ROUTES:
        raise TypeError(f"cannot convert {type(x).__name__}")
    name, valid = _ROUTES[type(x)]
    if target not in valid:
        raise ValueError(f"{target!r} is not a {name} basis")
    if x.basis == target:
        return x
    if len(x._nums) == 1:
        ((comp, n),) = x._nums.items()
        row = _row(x.basis, target, comp)
        nums = row._nums if n == 1 else {j: n * c for j, c in row._nums.items()}
        return type(x)._in(target, nums, x._den * row._den)
    rows = ((_row(x.basis, target, comp), Fraction(n, x._den)) for comp, n in x._nums.items())
    return type(x)._in(target, *_lincomb(rows))


# ---------------------------------------------------------------------------
# mirror-statistics conversion formulas, the oracles of the mirror-oracles check
# ---------------------------------------------------------------------------

def lambda_in_psi_oracle(comp: Composition, literal_sign: bool = False) -> SymElement:
    """Lambda^I as a Psi combination via mirror statistics.  The printed sign
    uses l(I); that variant (literal_sign=True) fails at I=(2), so the
    corrected exponent w(J) - l(J) is the default."""
    terms = []
    for j, _ in refinements(comp):
        rel = relative_stats(stats(j).mirror, stats(comp).mirror)
        e = sum(j) - (len(comp) if literal_sign else len(j))
        terms.append((j, Fraction((-1) ** e, rel.pi_u)))
    return SymElement(terms, "Psi")


def psi_in_lambda_oracle(comp: Composition) -> SymElement:
    """Psi^I = sum (-1)^(w(I)+l(J)) lp(mirror J, mirror I) Lambda^J."""
    terms = []
    for j, _ in refinements(comp):
        rel = relative_stats(stats(j).mirror, stats(comp).mirror)
        terms.append((j, Fraction((-1) ** (sum(comp) + len(j))) * rel.lp))
    return SymElement(terms, "Lambda")


def lambda_in_phi_oracle(comp: Composition) -> SymElement:
    terms = []
    for j, _ in refinements(comp):
        rel = relative_stats(j, comp)
        terms.append((j, Fraction((-1) ** (sum(j) - len(j)), rel.sp)))
    return SymElement(terms, "Phi")


def phi_in_lambda_oracle(comp: Composition) -> SymElement:
    terms = []
    for j, _ in refinements(comp):
        rel = relative_stats(j, comp)
        terms.append((j, Fraction((-1) ** (sum(j) - len(j))) * Fraction(stats(comp).pi, rel.l)))
    return SymElement(terms, "Lambda")


# ---------------------------------------------------------------------------
# products and coproducts
# ---------------------------------------------------------------------------

def qsym_product(a: QSymElement, b: QSymElement) -> QSymElement:
    """Commutative quasi-shuffle product; inputs are converted to the
    monomial basis first, where M_I * M_J is the quasi-shuffle of I and J."""
    am, bm = convert(a, "M"), convert(b, "M")
    return QSymElement._in("M", bilinear(am._nums, bm._nums, stuffle_words), am._den * bm._den)


def sym_coproduct(x: SymElement) -> Mapping[tuple[Composition, Composition], Fraction]:
    """S_n -> sum S_i (x) S_{n-i}, extended multiplicatively: the quasi-shuffle
    coproduct of the decoded words, a read-only (S x S) -> Fraction map, since
    acceptance criteria 6 and 7 compare it with a dict and read it with `.get`."""
    t = coproduct(decode_S(x), "stuffle")
    return fraction_view(t._nums.items(), t._den)


def qsym_coproduct(x: QSymElement) -> Mapping[tuple[Composition, Composition], Fraction]:
    """Deconcatenation of monomial indices, as a read-only (M x M) ->
    Fraction map, the type of its dual `sym_coproduct`."""
    t = coproduct(decode_M(x), "concat")
    return fraction_view(t._nums.items(), t._den)


def pairing_ext(x: SymElement, y: QSymElement) -> Fraction:
    """<S^I, M_J> = delta, extended bilinearly after conversion."""
    return dot(convert(x, "S"), convert(y, "M"))


# ---------------------------------------------------------------------------
# word encodings
# ---------------------------------------------------------------------------

def encode_S(p: NCPolynomial | Word) -> SymElement:
    """y_{i_1}...y_{i_k} -> S^(i_1,...,i_k), extended linearly."""
    if isinstance(p, Word):
        return SymElement.single(p.letters, "S")
    return SymElement._in("S", p._nums, p._den)


def encode_M(p: NCPolynomial | Word) -> QSymElement:
    """y_{i_1}...y_{i_k} -> M_(i_1,...,i_k), extended linearly."""
    if isinstance(p, Word):
        return QSymElement.single(p.letters, "M")
    return QSymElement._in("M", p._nums, p._den)


def decode_S(x: SymElement) -> NCPolynomial:
    xs = convert(x, "S")
    return NCPolynomial._from(xs._nums, xs._den)


def decode_M(x: QSymElement) -> NCPolynomial:
    xm = convert(x, "M")
    return NCPolynomial._from(xm._nums, xm._den)


# ---------------------------------------------------------------------------
# q-specialization on the geometric alphabet {q^n : n >= 0}
# ---------------------------------------------------------------------------

class QSeries(Sparse):
    """Truncated q-series with rational coefficients; exponents are integers
    >= 0 (ValueError otherwise), and those >= bound are dropped.  `.terms`
    (also `.coeffs`) is keyed by exponent."""

    __slots__ = ("bound",)
    _key = staticmethod(as_int)

    def __init__(self, coeffs: Mapping | None, bound: int):
        super().__init__((e, c) for e, c in (coeffs or {}).items() if as_natural(e) < bound)
        self.bound = bound

    @classmethod
    def _in(cls, bound: int, nums: dict, den: int = 1) -> "QSeries":
        out = cls._from({e: n for e, n in nums.items() if e < bound}, den)
        out.bound = bound
        return out

    def _like(self, nums: dict, den: int) -> "QSeries":
        return self._in(self.bound, nums, den)

    @property
    def coeffs(self) -> Mapping:
        return self.terms

    @classmethod
    def one(cls, bound: int) -> "QSeries":
        return cls({0: Fraction(1)}, bound)

    def __add__(self, other: "QSeries") -> "QSeries":
        return self._in(min(self.bound, other.bound), *_lincomb(((self, 1), (other, 1))))

    def __mul__(self, other: "QSeries") -> "QSeries":
        bound = min(self.bound, other.bound)
        kernel = lambda e1, e2: ((e1 + e2, 1),) if e1 + e2 < bound else ()
        return self._in(bound, bilinear(self._nums, other._nums, kernel), self._den * other._den)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(c)
            else:
                base = "q" if e == 1 else f"q^{e}"
                body = base if c == 1 else f"{c}·{base}"
            pieces.append(body)
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"QSeries({self!s}, bound={self.bound})"


def _q_bound(q_bound) -> int:
    # the truncation exponent: an integer >= 1, since below 1 every series
    # is truncated to 0
    if (q := as_int(q_bound)) < 1:
        raise ValueError(f"q_bound must be an integer >= 1, got {q!r}")
    return q


def specialize_Mq(comp: Composition, q_bound: int) -> QSeries:
    """M_I evaluated on {q^n}: sum over strictly decreasing exponent tuples
    n_1 > ... > n_r >= 0 of q^(n_1 i_1 + ... + n_r i_r), exponents < q_bound;
    parts must be integers >= 1 and q_bound an integer >= 1 (ValueError
    otherwise)."""
    comp, q_bound = _letters(comp), _q_bound(q_bound)
    acc: dict[int, int] = {}

    def rec(pos: int, prev: int | None, partial: int) -> None:
        if pos == len(comp):
            acc[partial] = acc.get(partial, 0) + 1
            return
        part = comp[pos]
        hi = (q_bound - 1 - partial) // part
        if prev is not None:
            hi = min(hi, prev - 1)
        lo = len(comp) - pos - 1  # leave room for strictly smaller exponents
        for n in range(lo, hi + 1):
            rec(pos + 1, n, partial + n * part)

    rec(0, None, 0)
    return QSeries(acc, q_bound)


def hl_product(max_weight: int, q_bound: int) -> dict[Composition, QSeries]:
    """Expansion of the ordered product over n = q_bound-1, ..., 1, 0 of
    (sum_i S_i q^(n i)), the factor with the largest exponent leftmost;
    factors beyond n >= q_bound only contribute 1 below the truncation.
    Returns the S^I coefficients as q-series; max_weight must be >= 0 and
    q_bound >= 1."""
    as_natural(max_weight)
    q_bound = _q_bound(q_bound)
    acc: dict[Composition, dict[int, int]] = {(): {0: 1}}
    for n in range(q_bound - 1, -1, -1):
        nxt: dict[Composition, dict[int, int]] = {}
        for comp, qs in acc.items():
            w = sum(comp)
            for i in range(0, max_weight - w + 1):
                shift = n * i
                if i and (shift >= q_bound):
                    break
                key = comp + ((i,) if i else ())
                slot = nxt.setdefault(key, {})
                add_into(slot, ((e + shift, c) for e, c in qs.items() if e + shift < q_bound))
        acc = {k: v for k, v in nxt.items() if v}
    return {comp: QSeries(qs, q_bound) for comp, qs in acc.items()}


def hall_littlewood_check(max_weight: int, q_bound: int) -> bool:
    """Coefficient of S^I in the ordered product equals the q-specialized
    M_I for every I of weight <= max_weight, below q^q_bound; q_bound must
    be >= 1, where the check is not vacuous."""
    table = hl_product(max_weight, q_bound)
    empty = QSeries({}, q_bound)
    for comp in compositions_up_to(max_weight):
        if table.get(comp, empty) != specialize_Mq(comp, q_bound):
            return False
    return True


# ---------------------------------------------------------------------------
# Cauchy-type identity
# ---------------------------------------------------------------------------

def cauchy_check(max_weight: int) -> bool:
    """sum_I M_I (x) S^I = sum_J F_J (x) Rib_J after expanding F in M and Rib
    in S, truncated by weight."""
    comps = compositions_up_to(max_weight)
    terms = [(TensorPolynomial.tensor(_row("F", "M", j), _row("Rib", "S", j)), 1) for j in comps]
    return TensorPolynomial._from({(i, i): 1 for i in comps}) == TensorPolynomial._sum(terms)
