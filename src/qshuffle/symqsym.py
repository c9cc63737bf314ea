"""Noncommutative symmetric functions and quasi-symmetric functions as
composition-indexed algebras.

Sym carries five bases: complete (S), elementary (Lambda), power sums of the
first (Psi) and second (Phi) kind, and ribbons (Rib).  QSym carries the
monomial (M) and fundamental (F) bases.  Every conversion is an explicit
refinement/coarsening sum; conversions between two non-S bases route through
S.  The two sides pair by <S^I, M_J> = delta, the M side multiplies through
`ncpoly.stuffle_words` (composition tuples are its letter tuples, so it is the
one quasi-shuffle kernel of the package), and both are word-encoded Hopf
algebras through the maps defined at the bottom.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .ncpoly import NCPolynomial, _as_coeff, add_into, bilinear, concat_pairs, dot, stuffle_words
from .words import (
    Composition,
    Word,
    coarsenings,
    comp_str,
    compositions_up_to,
    parse_coeff,
    parse_comp,
    refinements,
    relative_stats,
    stats,
)

SYM_BASES = ("S", "Lambda", "Psi", "Phi", "Rib")
QSYM_BASES = ("M", "F")


def _clean(terms) -> dict[Composition, Fraction]:
    items = terms.items() if isinstance(terms, Mapping) else terms or ()
    return add_into({}, ((tuple(int(p) for p in comp), _as_coeff(c)) for comp, c in items))


class _CompositionIndexed:
    __slots__ = ("terms", "basis")
    _VALID: tuple[str, ...] = ()

    def __init__(self, terms=None, basis: str = ""):
        if basis not in self._VALID:
            raise ValueError(f"unknown basis {basis!r}; expected one of {self._VALID}")
        self.terms = _clean(terms)
        self.basis = basis

    @classmethod
    def single(cls, comp: Composition, basis: str, coeff=1):
        return cls({tuple(comp): coeff}, basis)

    @classmethod
    def unit(cls, basis: str):
        return cls({(): 1}, basis)

    @classmethod
    def zero(cls, basis: str):
        return cls({}, basis)

    def coeff(self, comp: Composition) -> Fraction:
        return self.terms.get(tuple(comp), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def max_weight(self) -> int:
        return max((sum(c) for c in self.terms), default=0)

    def _check_same_basis(self, other):
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other):
        self._check_same_basis(other)
        return type(self)(add_into(dict(self.terms), other.terms.items()), self.basis)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({c: -v for c, v in self.terms.items()}, self.basis)

    def __rmul__(self, scalar):
        scalar = _as_coeff(scalar)
        return type(self)({c: v * scalar for c, v in self.terms.items()} if scalar else {}, self.basis)

    def __truediv__(self, scalar):
        return self.__rmul__(Fraction(1, 1) / _as_coeff(scalar))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def support(self) -> list[Composition]:
        return sorted(self.terms, key=lambda c: (sum(c), c))

    def __str__(self) -> str:
        return element_str(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({element_str(self)!r})"


class SymElement(_CompositionIndexed):
    _VALID = SYM_BASES

    def __mul__(self, other):
        if not isinstance(other, SymElement):
            return self.__rmul__(other)
        self._check_same_basis(other)
        if self.basis == "Rib":
            # ribbons are not multiplicative; route through the complete basis
            prod_s = convert(self, "S") * convert(other, "S")
            return convert(prod_s, "Rib")
        concat = lambda a, b: ((a + b, 1),)
        return SymElement(bilinear(self.terms, other.terms, concat), self.basis)


class QSymElement(_CompositionIndexed):
    _VALID = QSYM_BASES

    def __mul__(self, other):
        if not isinstance(other, QSymElement):
            return self.__rmul__(other)
        return qsym_product(self, other)


def element_str(x: _CompositionIndexed) -> str:
    """Canonical text form, e.g. "S:(1,1) - S:(2)"; the empty-composition
    term prints as a bare coefficient."""
    if x.is_zero():
        return "0"
    pieces = []
    for comp in x.support():
        c = x.terms[comp]
        mag = -c if c < 0 else c
        if not comp:
            body = str(mag)
        elif mag == 1:
            body = f"{x.basis}:{comp_str(comp)}"
        else:
            body = f"{mag}·{x.basis}:{comp_str(comp)}"
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


def parse_element(s: str, default_basis: str | None = None):
    """Parses "S:(1,2)", "2·M:(1) - 1/2·M:(2)", or untagged compositions
    like "(1,2)" when default_basis is given."""
    s = s.strip()
    basis: str | None = None
    terms: list[tuple[Composition, Fraction]] = []
    if not s or s == "0":
        tokens = []
    else:
        tokens = s.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        tok = tok.strip()
        sign = 1
        if tok.startswith("-"):
            sign = -1
            tok = tok[1:].strip()
        coeff = Fraction(1)
        if "·" in tok:
            cs, tok = tok.split("·", 1)
            coeff = parse_coeff(cs)
            tok = tok.strip()
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
    cls = SymElement if basis in SYM_BASES else QSymElement
    return cls(terms, basis)


def element_to_json(x: _CompositionIndexed) -> dict:
    return {
        "basis": x.basis,
        "terms": [
            {"composition": list(c), "coeff": str(x.terms[c])} for c in x.support()
        ],
    }


# ---------------------------------------------------------------------------
# basis changes (all explicit refinement/coarsening sums; see tests for the
# mirror-statistics variants kept as oracles)
# ---------------------------------------------------------------------------

# Rows are ((target, coeff), ...).  refinements() and coarsenings() list each
# composition once, so a row never repeats a target.

@lru_cache(maxsize=None)
def _to_s_row(basis: str, comp: Composition) -> tuple:
    if basis == "S":
        return ((comp, Fraction(1)),)
    if basis == "Rib":
        # Rib_I = sum over coarser-or-equal J of (-1)^(l(I)-l(J)) S^J
        return tuple((j, Fraction((-1) ** (len(comp) - len(j)))) for j in coarsenings(comp))
    row = []
    for j, _blocks in refinements(comp):
        rel = relative_stats(j, comp)
        if basis == "Lambda":
            c = Fraction((-1) ** (len(j) - sum(comp)))
        elif basis == "Psi":
            c = Fraction((-1) ** (len(j) - len(comp))) * rel.lp
        elif basis == "Phi":
            c = Fraction((-1) ** (len(j) - len(comp))) * Fraction(stats(comp).pi, rel.l)
        else:
            raise ValueError(f"unknown basis {basis!r}")
        row.append((j, c))
    return tuple(row)


@lru_cache(maxsize=None)
def _from_s_row(basis: str, comp: Composition) -> tuple:
    if basis == "S":
        return ((comp, Fraction(1)),)
    if basis == "Rib":
        # S^I = sum over coarser-or-equal J of Rib_J
        return tuple((j, Fraction(1)) for j in coarsenings(comp))
    row = []
    for j, _blocks in refinements(comp):
        rel = relative_stats(j, comp)
        if basis == "Lambda":
            c = Fraction((-1) ** (len(j) - sum(comp)))
        elif basis == "Psi":
            c = Fraction(1, rel.pi_u)
        elif basis == "Phi":
            c = Fraction(1, rel.sp)
        else:
            raise ValueError(f"unknown basis {basis!r}")
        row.append((j, c))
    return tuple(row)


@lru_cache(maxsize=None)
def _qsym_to_m_row(basis: str, comp: Composition) -> tuple:
    if basis == "M":
        return ((comp, Fraction(1)),)
    # F_J = sum over finer-or-equal I of M_I
    return tuple((j, Fraction(1)) for j, _ in refinements(comp))


@lru_cache(maxsize=None)
def _qsym_from_m_row(basis: str, comp: Composition) -> tuple:
    if basis == "M":
        return ((comp, Fraction(1)),)
    # M_I = sum over finer-or-equal J of (-1)^(l(J)-l(I)) F_J
    return tuple(
        (j, Fraction((-1) ** (len(j) - len(comp)))) for j, _ in refinements(comp)
    )


def _apply_rows(terms: dict[Composition, Fraction], row_fn, basis: str):
    out: dict[Composition, Fraction] = {}
    for comp, c in terms.items():
        add_into(out, row_fn(basis, comp), c)
    return out


def convert(x: SymElement | QSymElement, target: str):
    """Exact basis change; non-S to non-S (and F/M) conversions route through
    the S (resp. M) basis."""
    if isinstance(x, SymElement):
        if target not in SYM_BASES:
            raise ValueError(f"{target!r} is not a Sym basis")
        if x.basis == target:
            return x
        in_s = x.terms if x.basis == "S" else _apply_rows(x.terms, _to_s_row, x.basis)
        if target == "S":
            return SymElement(in_s, "S")
        return SymElement(_apply_rows(in_s, _from_s_row, target), target)
    if isinstance(x, QSymElement):
        if target not in QSYM_BASES:
            raise ValueError(f"{target!r} is not a QSym basis")
        if x.basis == target:
            return x
        in_m = x.terms if x.basis == "M" else _apply_rows(x.terms, _qsym_to_m_row, x.basis)
        if target == "M":
            return QSymElement(in_m, "M")
        return QSymElement(_apply_rows(in_m, _qsym_from_m_row, target), target)
    raise TypeError(f"cannot convert {type(x).__name__}")


# ---------------------------------------------------------------------------
# mirror-statistics conversion formulas, kept as test oracles only
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


def lambda_in_phi_oracle(comp: Composition, literal_sign: bool = False) -> SymElement:
    terms = []
    for j, _ in refinements(comp):
        rel = relative_stats(j, comp)
        e = sum(j) - (len(comp) if literal_sign else len(j))
        terms.append((j, Fraction((-1) ** e, rel.sp)))
    return SymElement(terms, "Phi")


def phi_in_lambda_oracle(comp: Composition, literal_sign: bool = False) -> SymElement:
    terms = []
    for j, _ in refinements(comp):
        rel = relative_stats(j, comp)
        e = sum(j) - (len(comp) if literal_sign else len(j))
        terms.append((j, Fraction((-1) ** e) * Fraction(stats(comp).pi, rel.l)))
    return SymElement(terms, "Lambda")


# ---------------------------------------------------------------------------
# products and coproducts
# ---------------------------------------------------------------------------

def qsym_product(a: QSymElement, b: QSymElement) -> QSymElement:
    """Commutative quasi-shuffle product; inputs are converted to the
    monomial basis first, where M_I * M_J is the quasi-shuffle of I and J."""
    am, bm = convert(a, "M"), convert(b, "M")
    return QSymElement(bilinear(am.terms, bm.terms, stuffle_words), "M")


def sym_coproduct(x: SymElement) -> dict[tuple[Composition, Composition], Fraction]:
    """Coproduct splitting each complete function S_n into sum S_i (x) S_{n-i},
    extended multiplicatively.  Returned as an (S basis x S basis) tensor map."""
    xs = convert(x, "S")
    out: dict[tuple[Composition, Composition], Fraction] = {}
    for comp, c in xs.terms.items():
        pairs: dict[tuple[Composition, Composition], int] = {((), ()): 1}
        for part in comp:
            # S_part -> sum_i S_i (x) S_{part-i}, where S_0 = 1 has the empty index
            split = {
                ((i,) if i else (), (part - i,) if i < part else ()): 1 for i in range(part + 1)
            }
            pairs = bilinear(pairs, split, concat_pairs)
        add_into(out, pairs.items(), c)
    return out


def qsym_coproduct(x: QSymElement) -> dict[tuple[Composition, Composition], Fraction]:
    """Deconcatenation of monomial indices, as an (M x M) tensor map."""
    xm = convert(x, "M")
    out: dict[tuple[Composition, Composition], Fraction] = {}
    for comp, c in xm.terms.items():
        add_into(out, (((comp[:i], comp[i:]), c) for i in range(len(comp) + 1)))
    return out


def pairing_ext(x: SymElement, y: QSymElement) -> Fraction:
    """<S^I, M_J> = delta, extended bilinearly after conversion."""
    return dot(convert(x, "S").terms, convert(y, "M").terms)


# ---------------------------------------------------------------------------
# word encodings
# ---------------------------------------------------------------------------

def encode_S(p: NCPolynomial | Word) -> SymElement:
    """y_{i_1}...y_{i_k} -> S^(i_1,...,i_k), extended linearly."""
    if isinstance(p, Word):
        return SymElement.single(p.letters, "S")
    return SymElement({w.letters: c for w, c in p.terms.items()}, "S")


def encode_M(p: NCPolynomial | Word) -> QSymElement:
    """y_{i_1}...y_{i_k} -> M_(i_1,...,i_k), extended linearly."""
    if isinstance(p, Word):
        return QSymElement.single(p.letters, "M")
    return QSymElement({w.letters: c for w, c in p.terms.items()}, "M")


def decode_S(x: SymElement) -> NCPolynomial:
    xs = convert(x, "S")
    return NCPolynomial({Word(comp): c for comp, c in xs.terms.items()})


def decode_M(x: QSymElement) -> NCPolynomial:
    xm = convert(x, "M")
    return NCPolynomial({Word(comp): c for comp, c in xm.terms.items()})


# ---------------------------------------------------------------------------
# q-specialization on the geometric alphabet {q^n : n >= 0}
# ---------------------------------------------------------------------------

class QSeries:
    """Truncated q-series with rational coefficients; exponents < bound."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs: Mapping[int, Fraction] | None, bound: int):
        self.bound = bound
        self.coeffs: dict[int, Fraction] = add_into(
            {}, ((e, _as_coeff(c)) for e, c in (coeffs or {}).items() if 0 <= e < bound)
        )

    @classmethod
    def one(cls, bound: int) -> "QSeries":
        return cls({0: Fraction(1)}, bound)

    def __add__(self, other: "QSeries") -> "QSeries":
        bound = min(self.bound, other.bound)
        return QSeries(add_into(dict(self.coeffs), other.coeffs.items()), bound)

    def __mul__(self, other: "QSeries") -> "QSeries":
        bound = min(self.bound, other.bound)
        kernel = lambda e1, e2: ((e1 + e2, 1),) if e1 + e2 < bound else ()
        return QSeries(bilinear(self.coeffs, other.coeffs, kernel), bound)

    def __eq__(self, other) -> bool:
        return isinstance(other, QSeries) and self.coeffs == other.coeffs

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


def specialize_Mq(comp: Composition, q_bound: int) -> QSeries:
    """M_I evaluated on {q^n}: sum over strictly decreasing exponent tuples
    n_1 > ... > n_r >= 0 of q^(n_1 i_1 + ... + n_r i_r), exponents < q_bound."""
    comp = tuple(comp)
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
    Returns the S^I coefficients as q-series."""
    acc: dict[Composition, dict[int, Fraction]] = {(): {0: Fraction(1)}}
    for n in range(q_bound - 1, -1, -1):
        nxt: dict[Composition, dict[int, Fraction]] = {}
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
    M_I for every I of weight <= max_weight, below q^q_bound."""
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
    lhs = {(i, i): Fraction(1) for i in comps}
    rhs: dict[tuple[Composition, Composition], Fraction] = {}
    for j in comps:
        f_in_m, rib_in_s = dict(_qsym_to_m_row("F", j)), dict(_to_s_row("Rib", j))
        add_into(rhs, bilinear(f_in_m, rib_in_s, lambda i, k: (((i, k), 1),)).items())
    return lhs == rhs
