"""Test oracles for the integer coefficient core: the products, coproducts,
weight-truncated exp/log, Sym/QSym basis changes and the Sym/QSym pairing
written directly on {Word or composition: Fraction} dicts, the way the
package computed them before its containers stored integer numerators over
one denominator; the truncated t-series as a dict of NCPolynomial
coefficients, the way the package held it before `ncpoly.Graded`, with
`exp_ad` as the bounded loop of ad steps it ran before the power sum of `Graded`
and the conjugation e^a·b·e^(-a); the
accumulate step with one `add_into` call per pair of terms, the way
`ncpoly.bilinear` ran before it accumulated inline; the X_n, L_n and
R_n of the letter series built as whole lists per bound, the way `bases`
cached them before it cached one element per index; and the Sym/QSym
coproducts and the closing identity in QSym (x) Sym computed on
compositions, the way `symqsym` and `factorization` did before they read
the word algebra through the encodings; `times_exp` on buckets keyed by
(left letters, right letters) tuples, with a merge that rescales the whole
running product, the way `factorization` ran it before it keyed terms by
integer codes and expanded the ordered product into pure tensors; and the
recursion of the higher-order letter series with
each product at the padded bound of its left operand, the way
`bases.higher_series` ran it before it multiplied at the bound the sum
keeps; the coarsenings of a composition by merged runs of parts, the way
`words` listed them before the ribbon rows enumerated sub-masks of
partial-sum codes; the letter maps lambda_n of the quasi-shuffle duals
solved from their seeds by triangular recursion, the way `bases` computed
them before it used their closed forms; and the flatten of the ordered
exponential product on int-coded keys and the Gram product on an index of
the columns by key, one dict update per pair of terms, the way
`factorization` and `ncpoly.gram` ran before they packed one side of each
outer product into one int; `verify`'s Sym/QSym round trips as the loop
of `convert` calls it ran before each basis, weight and direction became one
packed product of conversion rows; and pi1 and its inverse expansion summed
word by word over the iterated stuffle coproduct, the way `bases` ran them
before it read pi1 off one transposed table per weight and `verify` checked
the inverse as one series exponential; and the primitivity test against
p (x) 1 + 1 (x) p built as the sum of two tensor products, the way
`ncpoly.is_primitive` ran before it compared integer cores."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from qshuffle import bases, ncpoly, symqsym
from qshuffle.bases import l_series, r_series
from qshuffle.factorization import GradedTensorSeries, factorized_product
from qshuffle.ncpoly import NCPolynomial, concat_words, shuffle_words, stuffle_words
from qshuffle.symqsym import QSymElement, SymElement, encode_M, encode_S
from qshuffle.words import (
    Word,
    _code,
    compositions_of,
    compositions_up_to,
    refinements,
    relative_stats,
    stats,
    words_up_to,
)


def assert_canonical(x) -> None:
    # integer numerators over a positive denominator, no zero numerator,
    # gcd(denominator, numerators) = 1
    assert type(x._den) is int and x._den >= 1
    assert all(type(n) is int and n != 0 for n in x._nums.values())
    assert gcd(x._den, *x._nums.values()) == 1


def assert_graded_canonical(x) -> None:
    # the bucketed form: nonempty buckets of nonzero int numerators, grades
    # of ints in 0..bound, over a positive denominator sharing no factor
    # with all of them
    assert type(x._den) is int and x._den >= 1
    numerators = []
    for grade, bucket in x._buckets.items():
        assert bucket and all(type(d) is int and 0 <= d <= x.bound for d in grade)
        assert all(type(n) is int and n != 0 for n in bucket.values())
        numerators.extend(bucket.values())
    assert gcd(x._den, *numerators) == 1


def accumulate(items) -> dict:
    out: dict = {}
    for key, c in items:
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


# -- the accumulate step, one call per pair of terms -------------------------------

def add_into(out: dict, items, scale=None) -> dict:
    # scale tested on every item; None means no scaling
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


def bilinear(p: dict, q: dict, kernel, out: dict | None = None) -> dict:
    out = {} if out is None else out
    for a, ca in p.items():
        for b, cb in q.items():
            got = kernel(a, b)
            if got:
                add_into(out, got, ca * cb)
    return out


# -- words ---------------------------------------------------------------------

def _word_product(u: Word, v: Word, kind: str) -> list:
    if kind == "concat":
        return [(u * v, 1)]
    kernel = shuffle_words if kind == "shuffle" else stuffle_words
    return [(Word(w), n) for w, n in kernel(u.letters, v.letters)]


def product(p: dict, q: dict, kind: str) -> dict:
    return accumulate(
        (w, a * b * n) for u, a in p.items() for v, b in q.items() for w, n in _word_product(u, v, kind)
    )


def _letter_coproduct(a: int, kind: str) -> list:
    pairs = [((Word((a,)), Word()), 1), ((Word(), Word((a,))), 1)]
    if kind == "stuffle":
        pairs += [((Word((i,)), Word((a - i,))), 1) for i in range(1, a)]
    return pairs


def _word_coproduct(w: Word, kind: str) -> dict:
    if kind == "concat":
        return accumulate(((w[:i], w[i:]), Fraction(1)) for i in range(len(w) + 1))
    if kind == "plus":
        if len(w) != 1:
            raise ValueError("the contraction coproduct is only defined on letters")
        return accumulate(((Word((i,)), Word((w[0] - i,))), Fraction(1)) for i in range(1, w[0]))
    # a morphism for concatenation, letter by letter
    pairs = {(Word(), Word()): Fraction(1)}
    for a in w:
        pairs = accumulate(
            ((u * x, v * y), c * n)
            for (u, v), c in pairs.items()
            for (x, y), n in _letter_coproduct(a, kind)
        )
    return pairs


def coproduct(p: dict, kind: str) -> dict:
    return accumulate(
        (key, c * d) for w, c in p.items() for key, d in _word_coproduct(w, kind).items()
    )


def truncate(p: dict, max_weight: int) -> dict:
    return {w: c for w, c in p.items() if w.weight <= max_weight}


def exp_trunc(p: dict, max_weight: int) -> dict:
    base = truncate(p, max_weight)
    out = term = {Word(): Fraction(1)}
    for k in range(1, max_weight + 1):
        term = {w: c / k for w, c in truncate(product(term, base, "concat"), max_weight).items()}
        out = accumulate([*out.items(), *term.items()])
    return out


def log_trunc(q: dict, max_weight: int) -> dict:
    z = truncate(accumulate([*q.items(), (Word(), Fraction(-1))]), max_weight)
    out: dict = {}
    power = {Word(): Fraction(1)}
    for k in range(1, max_weight + 1):
        power = truncate(product(power, z, "concat"), max_weight)
        out = accumulate([*out.items(), *((w, c * Fraction((-1) ** (k - 1), k)) for w, c in power.items())])
    return out


# -- letter series elements, one list per bound ----------------------------------

def x_list(n_max: int) -> tuple:
    # X_0 = 1 and X_n = -sum_{i=1..n} y_i X_{n-i}
    xs = [NCPolynomial.one()]
    for n in range(1, n_max + 1):
        xs.append(NCPolynomial._sum((NCPolynomial.word((i,)) * xs[n - i], -1) for i in range(1, n + 1)))
    return tuple(xs)


def lr_list(n_max: int, side: str) -> tuple:
    # [L_1..L_n] for side "L", [R_1..R_n] for side "R": the letter y_{i+1}
    # sits left of X_{n-1-i} in L_n and right of it in R_n
    xs = x_list(n_max)
    out = []
    for n in range(1, n_max + 1):
        pieces = []
        for i in range(n):
            y, x = NCPolynomial.word((i + 1,)), xs[n - 1 - i]
            pieces.append((y * x if side == "L" else x * y, i + 1))
        out.append(NCPolynomial._sum(pieces))
    return tuple(out)


def higher_series(k: int, bound: int) -> tuple:
    # cal_L_k and cal_R_k; each product runs at the bound of the series it
    # extends, one degree above the derivative it is added to
    pad = bound + k - 1
    cal_l, cal_r = l_series(pad), r_series(pad)
    for _ in range(k - 1):
        cal_l = cal_l.derivative() + cal_l * l_series(cal_l.bound)
        cal_r = cal_r.derivative() + r_series(cal_r.bound) * cal_r
    return cal_l.truncate(bound), cal_r.truncate(bound)


def lambda_triangular(primal: str, n: int) -> NCPolynomial:
    """lambda_n = phi^{-1}(y_n), phi: y_m -> seed(m) the concatenation
    morphism of the primal family, with the seeds read from `bases._LETTER`
    at call time.  seed(m) is c·y_m plus words v of length >= 2, and
    phi^{-1}(v) is the product of the lambdas of v's letters, all below m;
    so lambda_m = (y_m - sum_v a_v phi^{-1}(v)) / c, and c = 0 raises."""
    lam: dict = {}

    def rec(m: int) -> NCPolynomial:
        if m not in lam:
            seed = bases._LETTER[primal](m)
            if not (c := seed._nums.get((m,))):
                raise ArithmeticError(f"the {primal} seed at y_{m} has no y_{m} term")
            lam[m] = NCPolynomial._sum([(NCPolynomial.word((m,)), seed._den)] + [
                (prod((rec(k) for k in v), start=NCPolynomial.one()), -a)
                for v, a in seed._nums.items() if v != (m,)
            ]) / c
        return lam[m]

    return rec(n)


# -- the primitive projection, word by word --------------------------------------

@lru_cache(maxsize=None)
def _iterated(letters: tuple, k: int, primitive: bool) -> NCPolynomial:
    # sum over ordered k-tuples (u_1..u_k) of nonempty words of
    # <w | u_1 st ... st u_k> f(u_1)...f(u_k), with f = `bases._pi1_word`
    # (read at call time) if `primitive` and f = id otherwise.  By
    # <coproduct(w), u (x) v> = <w, u st v> only the nonzero terms of the
    # iterated stuffle coproduct of w, from this module's `_word_coproduct`,
    # contribute.
    f = bases._pi1_word if primitive else NCPolynomial.word
    if k == 1:
        return f(letters)
    return NCPolynomial._sum(
        (f(u.letters) * _iterated(v.letters, k - 1, primitive), n)
        for (u, v), n in _word_coproduct(Word._raw(letters), "stuffle").items()
        if u and v
    )


def _sum_iterated(letters: tuple, primitive: bool, coeff) -> NCPolynomial:
    # sum_k coeff(k) _iterated(w, k, primitive); a k-tuple needs k <= weight
    return NCPolynomial._sum(
        (_iterated(letters, k, primitive), coeff(k)) for k in range(1, sum(letters) + 1)
    )


def pi1(letters: tuple) -> NCPolynomial:
    # sum_k ((-1)^(k-1)/k) sum <w | u_1 st ... st u_k> u_1...u_k
    return _sum_iterated(letters, False, lambda k: Fraction((-1) ** (k - 1), k))


def pi1_inverse_check(w: Word) -> bool:
    """Checks that w equals
    sum_k (1/k!) sum <w | u_1 st ... st u_k> pi1(u_1)...pi1(u_k)."""
    expansion = _sum_iterated(w.letters, True, lambda k: Fraction(1, factorial(k)))
    return w.weight == 0 or expansion == NCPolynomial.word(w)


def is_primitive(p: NCPolynomial, kind: str) -> bool:
    # coproduct(p) against p (x) 1 + 1 (x) p, the sum of two tensor products
    one = NCPolynomial.one()
    expected = ncpoly.TensorPolynomial.tensor(p, one) + ncpoly.TensorPolynomial.tensor(one, p)
    return ncpoly.coproduct(p, kind) == expected


# -- truncated series in t ---------------------------------------------------------

class TSeries:
    """Truncated series sum_n c_n t^n as a {degree: NCPolynomial} dict with
    no zero coefficient; the oracle for `qshuffle.bases.TSeries`."""

    def __init__(self, coeffs: dict, bound: int):
        self.bound = bound
        self.coeffs = {d: p for d, p in coeffs.items() if 0 <= d <= bound and not p.is_zero()}

    @classmethod
    def one(cls, bound: int) -> "TSeries":
        return cls({0: NCPolynomial.one()}, bound)

    def coeff(self, d: int) -> NCPolynomial:
        return self.coeffs.get(d, NCPolynomial.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, bound: int) -> "TSeries":
        return TSeries(self.coeffs, min(bound, self.bound))

    def __add__(self, other: "TSeries") -> "TSeries":
        bound = min(self.bound, other.bound)
        out = {d: p for d, p in self.coeffs.items() if d <= bound}
        for d, p in other.coeffs.items():
            if d <= bound:
                out[d] = out.get(d, NCPolynomial.zero()) + p
        return TSeries(out, bound)

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other)

    def __neg__(self) -> "TSeries":
        return TSeries({d: -p for d, p in self.coeffs.items()}, self.bound)

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return TSeries({d: p * other for d, p in self.coeffs.items()}, self.bound)
        bound = min(self.bound, other.bound)
        out: dict = {}
        for d1, p1 in self.coeffs.items():
            for d2, p2 in other.coeffs.items():
                if d1 + d2 <= bound:
                    out[d1 + d2] = out.get(d1 + d2, NCPolynomial.zero()) + p1 * p2
        return TSeries(out, bound)

    def __rmul__(self, scalar) -> "TSeries":
        return TSeries({d: p * scalar for d, p in self.coeffs.items()}, self.bound)

    def derivative(self) -> "TSeries":
        return TSeries({d - 1: p * d for d, p in self.coeffs.items() if d >= 1}, self.bound - 1)

    def log(self) -> "TSeries":
        if self.coeff(0) != NCPolynomial.one():
            raise ValueError("log requires constant coefficient 1")
        z = self - TSeries.one(self.bound)
        out = TSeries({}, self.bound)
        power = TSeries.one(self.bound)
        for k in range(1, self.bound + 1):
            power = power * z
            if power.is_zero():
                break
            out = out + power * Fraction((-1) ** (k - 1), k)
        return out

    def same_up_to(self, other: "TSeries", degree: int | None = None) -> bool:
        d_max = min(self.bound, other.bound)
        if degree is not None:
            d_max = min(d_max, degree)
        return all(self.coeff(d) == other.coeff(d) for d in range(d_max + 1))


def exp_ad(a: TSeries, b: TSeries) -> TSeries:
    # sum_n ad_a^n(b) / n!, ad_a(x) = a x - x a, as the bounded loop
    # `qshuffle.bases.exp_ad` ran before the shared series sum
    out = term = b.truncate(a.bound)
    for n in range(1, out.bound + 1):
        term = a * term - term * a
        if term.is_zero():
            break
        out = out + term * Fraction(1, factorial(n))
    return out


# -- Sym / QSym ------------------------------------------------------------------

def coarsenings(parts: tuple) -> list[tuple]:
    """Every J coarser than or equal to I (i.e. every J that I refines),
    obtained by merging runs of adjacent parts.  Sorted by (length, parts)."""
    k = len(parts)
    if k == 0:
        return [()]
    out = []
    for gaps in itertools.product((False, True), repeat=k - 1):
        merged = [parts[0]]
        for boundary, x in zip(gaps, parts[1:]):
            if boundary:
                merged.append(x)
            else:
                merged[-1] += x
        out.append(tuple(merged))
    out.sort(key=lambda c: (len(c), c))
    return out


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _to_s_row(basis: str, comp: tuple) -> list:
    if basis == "S":
        return [(comp, Fraction(1))]
    if basis == "Rib":
        return [(j, Fraction(_sign(len(comp) - len(j)))) for j in coarsenings(comp)]
    row = []
    for j, _ in refinements(comp):
        rel = relative_stats(j, comp)
        c = {
            "Lambda": Fraction(_sign(len(j) - sum(comp))),
            "Psi": Fraction(_sign(len(j) - len(comp))) * rel.lp,
            "Phi": Fraction(_sign(len(j) - len(comp))) * Fraction(stats(comp).pi, rel.l),
        }[basis]
        row.append((j, c))
    return row


def _from_s_row(basis: str, comp: tuple) -> list:
    if basis == "S":
        return [(comp, Fraction(1))]
    if basis == "Rib":
        return [(j, Fraction(1)) for j in coarsenings(comp)]
    row = []
    for j, _ in refinements(comp):
        rel = relative_stats(j, comp)
        c = {
            "Lambda": Fraction(_sign(len(j) - sum(comp))),
            "Psi": Fraction(1, rel.pi_u),
            "Phi": Fraction(1, rel.sp),
        }[basis]
        row.append((j, c))
    return row


def _to_m_row(basis: str, comp: tuple) -> list:
    if basis == "M":
        return [(comp, Fraction(1))]
    return [(j, Fraction(1)) for j, _ in refinements(comp)]


def _from_m_row(basis: str, comp: tuple) -> list:
    if basis == "M":
        return [(comp, Fraction(1))]
    return [(j, Fraction(_sign(len(j) - len(comp)))) for j, _ in refinements(comp)]


def _apply(terms: dict, row, basis: str) -> dict:
    return accumulate((j, c * d) for comp, c in terms.items() for j, d in row(basis, comp))


def convert(terms: dict, source: str, target: str) -> dict:
    if source in ("M", "F"):
        return _apply(_apply(terms, _to_m_row, source), _from_m_row, target)
    return _apply(_apply(terms, _to_s_row, source), _from_s_row, target)


def sym_roundtrips(w_max: int) -> tuple[bool, str]:
    # `cli._check_sym_roundtrips`, one pair of `convert` calls per element
    for basis in ("Lambda", "Psi", "Phi", "Rib"):
        for comp in compositions_up_to(w_max):
            e = SymElement.single(comp, "S")
            if symqsym.convert(symqsym.convert(e, basis), "S") != e:
                return False, f"S <-> {basis} round trip fails at {comp}"
            b = SymElement.single(comp, basis)
            if symqsym.convert(symqsym.convert(b, "S"), basis) != b:
                return False, f"{basis} <-> S round trip fails at {comp}"
    for basis in ("M", "F"):
        for comp in compositions_up_to(w_max):
            e = QSymElement.single(comp, basis)
            other = "F" if basis == "M" else "M"
            if symqsym.convert(symqsym.convert(e, other), basis) != e:
                return False, f"{basis} <-> {other} round trip fails at {comp}"
    one_s = SymElement.single((1,), "S")
    for basis in ("Lambda", "Psi", "Phi"):
        if symqsym.convert(SymElement.single((1,), basis), "S") != one_s:
            return False, f"degree-one generators differ in {basis}"
    return True, f"all basis changes invert exactly up to weight {w_max}"


def pairing_ext(x: dict, x_basis: str, y: dict, y_basis: str) -> Fraction:
    xs, ym = convert(x, x_basis, "S"), convert(y, y_basis, "M")
    return sum((c * ym.get(comp, 0) for comp, c in xs.items()), Fraction(0))


def sym_coproduct(xs: dict) -> dict:
    # the S-basis terms of an element: each S_part split into
    # sum_i S_i (x) S_{part-i}, S_0 = 1 with the empty index, and the splits
    # of the parts multiplied componentwise
    out = []
    for comp, c in xs.items():
        pairs = {((), ()): Fraction(1)}
        for part in comp:
            split = {((i,) if i else (), (part - i,) if i < part else ()): 1 for i in range(part + 1)}
            pairs = bilinear(pairs, split, lambda s, t: (((s[0] + t[0], s[1] + t[1]), 1),))
        out.extend((key, c * n) for key, n in pairs.items())
    return accumulate(out)


def qsym_coproduct(xm: dict) -> dict:
    # deconcatenation of the M-basis terms of an element
    return accumulate(((comp[:i], comp[i:]), c) for comp, c in xm.items() for i in range(len(comp) + 1))


def closing_identity_rows(max_weight: int) -> list[tuple[str, bool, str]]:
    # the closing-identity rows of `character_checks`, with every term of the
    # factorized product relabeled through encode_M (x) encode_S
    def encoded_key(u: Word, v: Word) -> tuple:
        # encode_M(u) = M_u and encode_S(v) = S^v are single terms
        (i,) = encode_M(u).terms
        (j,) = encode_S(v).terms
        return i, j

    target = {(w.letters, w.letters): Fraction(1) for w in words_up_to(max_weight)}
    rows = []
    for pair in ("stuffle", "L", "R"):
        got = factorized_product(max_weight, pair).terms
        ok = {encoded_key(u, v): c for (u, v), c in got.items()} == target
        detail = "matches" if ok else "disagrees with"
        rows.append((f"closing-identity-{pair}", ok, f"ordered exponential product {detail} sum M_w S_w"))
    return rows


# -- the factorization product on tuple keys ---------------------------------------

def times_exp(buckets: dict, den: int, bound: int, left_kind: str, dual, primal) -> tuple[dict, int]:
    # self · exp(dual (x) primal) on {(left weight, right weight): {(u, v):
    # numerator}} over den, u and v letter tuples; returns the reduced
    # (buckets, den)
    kernel = shuffle_words if left_kind == "shuffle" else stuffle_words
    (m,) = dual.weights()
    de, top = dual._den * primal._den, bound // m
    s0 = factorial(top) * de**top
    groups: dict = {}
    for key, p in buckets.items():
        if max(key) + m <= bound:
            rights = groups[key] = {}
            for (u, v), n in p.items():
                rights.setdefault(u, []).append((v, n))
    adds: dict = {}
    a_pow, b_pow = {(): 1}, {(): 1}
    for k in range(1, top + 1):
        a_pow = bilinear(a_pow, dual._nums, kernel)
        b_pow = bilinear(b_pow, primal._nums, concat_words)
        scale = factorial(top) // factorial(k) * de ** (top - k)
        b_items = list(b_pow.items())
        lefts: dict = {}
        for (lw, rw), rights in groups.items():
            key = (lw + k * m, rw + k * m)
            if max(key) > bound:
                continue
            bucket = adds.setdefault(key, {})
            get = bucket.get
            for u, vs in rights.items():
                left = lefts.get(u)
                if left is None:
                    left = lefts[u] = [(w, c * scale) for w, c in bilinear({u: 1}, a_pow, kernel).items()]
                for v, n in vs:
                    for b, y in b_items:
                        vb, ny = v + b, n * y
                        for w, c in left:
                            t = (w, vb)
                            bucket[t] = get(t, 0) + c * ny
    g = gcd(s0, *(x for p in adds.values() for x in p.values()))
    f = s0 // g
    out = {key: p if f == 1 else {t: n * f for t, n in p.items()} for key, p in buckets.items()}
    for key, p in adds.items():
        merged = dict(out.get(key, ()))
        for t, x in p.items():
            merged[t] = merged.get(t, 0) + x // g
        out[key] = {t: n for t, n in merged.items() if n}
    out, den = {key: p for key, p in out.items() if p}, den * f
    g = gcd(den, *(n for p in out.values() for n in p.values()))
    return {key: {t: n // g for t, n in p.items()} for key, p in out.items()}, den // g


# -- the factorization flatten and the Gram product, one dict update per pair --------

def exp_product(factors, bound: int, left_kind: str):
    # `factorization._exp_product` with its entries flattened on the int keys
    # _code(u) | _code(v) << w, one dict update per (left term, right term)
    # pair, and cut back into (u, v) at the end
    unit = GradedTensorSeries.unit(bound, left_kind)
    kernel = shuffle_words if left_kind == "shuffle" else stuffle_words
    entries = [(0, {(): 1}, {(): 1}, 1)]
    for dual, primal in factors:
        (m,) = dual.weights()
        de = dual._den * primal._den
        for w, left, right, den in entries[:]:
            for k in range(1, (bound - w) // m + 1):
                left = bilinear(left, dual._nums, kernel)
                right = bilinear(right, primal._nums, concat_words)
                den, w = den * de * k, w + m
                entries.append((w, left, right, den))
    den, coded = lcm(*(e[3] for e in entries)), {}
    for w, left, right, d in entries:
        bucket, f = coded.setdefault(w, {}), den // d
        rights = [(_code(v) << w, n * f) for v, n in right.items()]
        for u, c in left.items():
            for v, n in rights:
                t = _code(u) | v
                bucket[t] = bucket.get(t, 0) + c * n
    buckets = {}
    for w, bucket in coded.items():
        word = {_code(x): x for x in compositions_of(w)}
        buckets[w, w] = {(word[t & (2 << w) - 1], word[t >> w & ~1]): n for t, n in bucket.items() if n}
    return unit._like(buckets, den)


def gram(rows: list, cols: list) -> list[dict]:
    # per row, {j: integer pairing} over the columns that share a key with it,
    # from an index of the columns by key
    index: dict = {}
    for j, col in enumerate(cols):
        for k, n in col._nums.items():
            index.setdefault(k, []).append((j, n))
    out = []
    for row in rows:
        acc: dict = {}
        for k, n in row._nums.items():
            for j, m in index.get(k, ()):
                acc[j] = acc.get(j, 0) + n * m
        out.append(acc)
    return out
