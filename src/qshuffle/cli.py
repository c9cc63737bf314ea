"""Command-line surface: one binary, eight subcommands, everything on flags.

`verify` sweeps the whole identity suite up to a weight bound and prints a
pass/fail matrix, every failure one check's row; the other subcommands
expose individual operations.  Exit codes: 0 success, 1 failed check, 2
usage error.  Identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import bases, factorization, lyndon, ncpoly, symqsym, words
from .ncpoly import NCPolynomial, add_into
from .words import Word

WEIGHT_CAP = 8  # 2^(n-1) words per weight; beyond this the sweeps stop being desk-scale
Q_DEGREE_CAP = 64  # hl-check --max-weight 8: about 3 s at q-degree 64 on a 2-core x86 host
FORMATS = ("text", "json", "csv")


# ---------------------------------------------------------------------------
# verify sweep
# ---------------------------------------------------------------------------

def _sample_words(rng: random.Random, max_weight: int, count: int) -> list[Word]:
    out = []
    for _ in range(count):
        n = rng.randint(1, max_weight)
        parts = []
        while n > 0:
            p = rng.randint(1, n)
            parts.append(p)
            n -= p
        out.append(Word(parts))
    return out


def _check_words_refinements(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    for comp in words.compositions_up_to(w_max):
        refs = words.refinements(comp)
        if len(refs) != words.refinement_count(comp):
            return False, f"refinement count wrong at {comp}"
        for j, blocks in refs:
            if tuple(x for b in blocks for x in b) != j:
                return False, f"blocks do not reconstruct {j}"
            if sum(j) != sum(comp):
                return False, f"weight not preserved at {j}"
        if words.mirror(words.mirror(comp)) != comp:
            return False, f"mirror not involutive at {comp}"
    return True, f"counts, blocks and mirror over all compositions of weight <= {w_max}"


def _check_words_roundtrip(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    for w in words.words_up_to(w_max):
        if words.parse_word(words.word_str(w)) != w:
            return False, f"text round trip fails at {w}"
        if Word(w.letters) != w:
            return False, f"composition round trip fails at {w}"
    return True, f"text and composition round trips over all words of weight <= {w_max}"


def _check_lyndon_counts(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    ws = lyndon.lyndon_up_to(w_max)
    for n in range(1, w_max + 1):
        got = sum(1 for w in ws if w.weight == n)
        if got != lyndon.lyndon_count(n):
            return False, f"count mismatch at weight {n}: {got}"
    return True, f"enumeration matches the necklace formula for n <= {w_max}"


def _check_lyndon_factorization(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    for w in words.words_up_to(min(w_max, 6), include_empty=False):
        fac = lyndon.lyndon_factorization(w)
        if fac.word() != w:
            return False, f"reconstruction fails at {w}"
        factors = [l for l, _ in fac.factors]
        if not all(lyndon.is_lyndon(l) for l in factors):
            return False, f"non-Lyndon factor at {w}"
        if any(not a > b for a, b in zip(factors, factors[1:])):
            return False, f"factors not strictly decreasing at {w}"
    for l in lyndon.lyndon_up_to(w_max):
        if len(l) < 2:
            continue
        s, r = lyndon.standard_factorization(l)
        if s * r != l or not lyndon.is_lyndon(s) or not lyndon.is_lyndon(r):
            return False, f"standard factorization broken at {l}"
        if not (s < l < r):
            return False, f"s < l < r fails at {l}"
    return True, "reconstruction, decrease, and standard-factorization properties"


def _check_products(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    sample = _sample_words(rng, min(w_max, 4), 8)
    one = NCPolynomial.one()
    for kind in ("shuffle", "stuffle"):
        for u in sample:
            pu = NCPolynomial.word(u)
            if ncpoly.product(pu, one, kind) != pu or ncpoly.product(one, pu, kind) != pu:
                return False, f"unit law fails for {kind}"
            for v in sample:
                pv = NCPolynomial.word(v)
                ab = ncpoly.product(pu, pv, kind)
                if ab != ncpoly.product(pv, pu, kind):
                    return False, f"{kind} not commutative at {u}, {v}"
                if any(sum(x) != u.weight + v.weight for x in ab._nums):
                    return False, f"{kind} not weight-homogeneous at {u}, {v}"
        for _ in range(6):
            u, v, x = (rng.choice(sample) for _ in range(3))
            pu, pv, px = (NCPolynomial.word(t) for t in (u, v, x))
            lhs = ncpoly.product(ncpoly.product(pu, pv, kind), px, kind)
            rhs = ncpoly.product(pu, ncpoly.product(pv, px, kind), kind)
            if lhs != rhs:
                return False, f"{kind} not associative at {u}, {v}, {x}"
    return True, "unit, commutativity, associativity, homogeneity on seeded samples"


def _check_coproducts(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    cap = min(w_max, 4)

    # one cache per call: the laws read each word's coproduct many times, and a new value
    # per read took the check from 1.4 to 3.6 ms (Python 3.11, 2-core x86)
    @lru_cache(maxsize=None)
    def cop(w: tuple, kind: str) -> ncpoly.TensorPolynomial:
        return ncpoly.coproduct(NCPolynomial.word(w), kind)

    for kind in ("concat", "shuffle", "stuffle"):
        for w in words.compositions_up_to(cap):
            t = cop(w, kind)
            # counit laws
            left = {v: n for (u, v), n in t._nums.items() if not u}
            right = {u: n for (u, v), n in t._nums.items() if not v}
            if left != {w: t._den} or right != {w: t._den}:
                return False, f"counit law fails for {kind} at {Word._raw(w)}"
            # coassociativity via triple expansion, over one common denominator
            den = lcm(*(cop(x, kind)._den for pair in t._nums for x in pair))
            lhs, rhs = {}, {}
            for (u, v), c in t._nums.items():
                left, right = cop(u, kind), cop(v, kind)
                add_into(lhs, (((a, b, v), d) for (a, b), d in left._nums.items()), c * (den // left._den))
                add_into(rhs, (((u, a, b), d) for (a, b), d in right._nums.items()), c * (den // right._den))
            if lhs != rhs:
                return False, f"{kind} coproduct not coassociative at {Word._raw(w)}"
    for n in range(cap + 1):
        for u, v in words.pairs_of_weight(n):
            for kind in ("shuffle", "stuffle"):
                if cop(u + v, kind) != cop(u, kind) * cop(v, kind):
                    return False, f"{kind} coproduct not a concat morphism at {Word._raw(u)}, {Word._raw(v)}"
    try:
        ncpoly.coproduct(NCPolynomial.word((1, 1)), "plus")
        return False, "contraction coproduct accepted a length-2 word"
    except ValueError:
        pass
    return True, f"counit, coassociativity, morphism property up to weight {cap}"


def _check_adjunction(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    cap = min(w_max, 4)
    for kind in ("shuffle", "stuffle"):
        coproduct = lambda w: _core(ncpoly.coproduct(NCPolynomial.word(w), kind))
        product = lambda u, v: _core(ncpoly.product(NCPolynomial.word(u), NCPolynomial.word(v), kind))
        for n in range(cap + 1):
            if bad := _first_off_adjunction(n, coproduct, product):
                return False, "adjunction fails for {} at {}; {}, {}".format(kind, *map(Word._raw, bad))
    return True, f"<coproduct(w), u (x) v> = <w, u * v> exhaustively up to weight {cap}"


def _check_exp_log(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    # a polynomial truncated by weight is a TSeries whose t-degree is the word weight
    cap = min(w_max, 4)
    for _ in range(5):
        terms: dict = {}
        for w in _sample_words(rng, cap, 4):
            terms.setdefault(w.weight, {})[w] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        p = bases.TSeries({n: NCPolynomial(t) for n, t in terms.items()}, cap)
        if p.exp().log() != p:
            return False, "log(exp(p)) != p"
    return True, f"log/exp round trips on seeded polynomials, weight <= {cap}"


def _core(x) -> tuple[dict, int]:
    """The reduced (numerators, denominator) of a value or of the Fraction map
    `symqsym.sym_coproduct` keeps for dict callers: equal iff these are."""
    return (x._nums, x._den) if isinstance(x, ncpoly.Sparse) else ncpoly._integral(x.items())


def _first_off_adjunction(n: int, coproduct, product) -> tuple | None:
    """The first (w, u, v), pairs (u, v) of weight n first and then words w
    of weight n, in order, with <coproduct(w), u (x) v> != <w, product(u, v)>,
    or None; both give _core pairs.  The coproducts are inverted once into
    (u, v) -> {w: c}; each pair pops its entry, and a left-over entry fails."""
    keys = words.compositions_of(n)
    cores = [coproduct(w) for w in keys]
    den = lcm(*(d for _, d in cores))
    inverse: dict = {}
    for w, (nums, d) in zip(keys, cores):
        for pair, c in nums.items():
            inverse.setdefault(pair, {})[w] = c * (den // d)
    for u, v in words.pairs_of_weight(n):
        entry, (nums, d) = inverse.pop((u, v), {}), product(u, v)
        if d != den or entry != nums:
            # the words of weight n in order, then those of other weights in the product
            for w in keys + sorted(w for w in nums if sum(w) != n):
                if entry.get(w, 0) * d != nums.get(w, 0) * den:
                    return w, u, v
    for (u, v), entry in inverse.items():
        return next(iter(entry)), u, v  # an entry lists its words in order


def _first_off_identity(rows: list, cols: list) -> tuple[int, int] | None:
    """The first (i, j), rows first, with <rows[i], cols[j]> != delta_ij, or None."""
    for i, acc in enumerate(ncpoly.gram(rows, cols)):
        acc.setdefault(i, 0)
        if bad := [j for j, n in acc.items() if n != (i == j) * rows[i]._den * cols[j]._den]:
            return i, min(bad)


def _check_duality(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    # No dual reads a primal row or a seed: s comes from s_l = y_a·s_u and
    # normalized shuffle products, and Sigma^X_w = Psi_X(s_w) from closed-form
    # letter maps.  So the identity pairing matrices check the paper's
    # duality between two independent constructions, and a wrong seed fails
    # them.  Every element is homogeneous of its word's weight, so
    # pairings across weights vanish and only the diagonal weight blocks
    # need computing, each as one sparse Gram product (`ncpoly.gram`).
    for dual, primal, _ in bases.PAIRS.values():
        for n in range(1, w_max + 1):
            ws = words.words_of_weight(n)
            duals = [bases.basis_element(dual, v).value for v in ws]
            primals = [bases.basis_element(primal, u).value for u in ws]
            for family, values in ((primal, primals), (dual, duals)):
                for w, value in zip(ws, values):
                    if not value.weights() <= {n}:
                        return False, f"{family} at {w} is not homogeneous of weight {n}"
            if bad := _first_off_identity(primals, duals):
                return False, f"duality {primal}/{dual} fails at {ws[bad[0]]}, {ws[bad[1]]}"
    return True, f"four pairing matrices are the identity up to weight {w_max}"


def _check_primitivity(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    for n in range(1, w_max + 1):
        if not ncpoly.is_primitive(bases.pi1(Word((n,))), "stuffle"):
            return False, f"pi1(y_{n}) not primitive"
    ls, rs = bases.l_elements(w_max), bases.r_elements(w_max)
    for n in range(1, w_max + 1):
        if not ncpoly.is_primitive(ls[n - 1], "stuffle"):
            return False, f"L_{n} not primitive"
        if not ncpoly.is_primitive(rs[n - 1], "stuffle"):
            return False, f"R_{n} not primitive"
    cap = min(w_max, 5)
    for l in lyndon.lyndon_up_to(cap):
        if not ncpoly.is_primitive(bases.p_basis(l), "shuffle"):
            return False, f"p_l not shuffle-primitive at {l}"
        if not ncpoly.is_primitive(bases.pi_basis(l), "stuffle"):
            return False, f"Pi_l not primitive at {l}"
        for side in ("L", "R"):
            if not ncpoly.is_primitive(bases.pi_s_basis(l, side), "stuffle"):
                return False, f"Pi^{side}_l not primitive at {l}"
    return True, f"primitive seeds up to weight {w_max}, Lyndon PBW elements up to weight {cap}"


def _check_series(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    d = w_max
    # Y·Y^-1 = 1 one degree past d, through X_{d+1}
    y, yi, one = bases.y_series(d + 1), bases.y_inverse_series(d + 1), bases.TSeries.one(d + 1)
    if not (y * yi).same_up_to(one) or not (yi * y).same_up_to(one):
        return False, "Y * Y^-1 != 1"
    logy = bases.log_y_series(d)
    for n in range(1, d + 1):
        if logy.coeff(n) != bases.pi1(Word((n,))):
            return False, f"log coefficient differs from pi1 at n={n}"
    # the chain's verdict at order k is cal_L_k·Y = Y^(k) = Y·cal_R_k, at k = 1 the n y_n identity
    # L·Y = Y' = Y·R; exp_ad(log Y, cal_R_k) = e^a·cal_R_k·e^(-a) = cal_L_k with e^a checked to be Y,
    # so e^(-a) is the checked Y^-1 (exp_ad itself is pinned by test_exp_ad_matches_the_loop_oracle)
    e = logy.exp()
    if e != y.truncate(d):
        return False, "exp(log Y) != Y"
    for k, (cal_l, cal_r, off) in enumerate(bases._higher_chain(3, d), 1):
        if off is not None and k == 1:
            return False, f"n y_n identity fails at n={off + 1}"
        if off is not None:
            return False, f"order-{k} derivative identity fails at t^{off}"
        if not (e * cal_r.truncate(d) * yi).same_up_to(cal_l, d):
            return False, f"ad-exponential formula fails at k={k}"
    return True, f"inverse, derivative, and conjugation identities to degree {d}"


def _check_y_in_r(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    for n in range(1, w_max + 1):
        if not bases.y_in_r_expansion(n):
            return False, f"partial-sum expansion fails at n={n}"
    if bases.y_in_r_expansion(2, use_partial_sums=False):
        return False, "plain part-product variant unexpectedly passes at n=2"
    return True, f"letters expand over R-monomials with partial-sum weights, n <= {w_max}"


def _check_pi1(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    # the left-word-w part of exp(sum_w w (x) pi1(w)) is w's inverse expansion
    cap = min(w_max, 4)
    diff = factorization.pi1_series(cap).exp() - factorization.diagonal(cap, "stuffle")
    bad = {u for t in diff._buckets.values() for u, _ in t}
    for w in words.words_up_to(cap):
        if w.letters in bad:
            return False, f"inverse expansion fails at {w}"
    return True, f"inverse expansion reproduces every word of weight <= {cap}"


def _round_trips(basis: str, n: int, to_hub: bool):
    """Per composition I of weight n, in order, whether basis^I (to_hub) or
    hub^I converts there and back to itself: the first step's `_row`s times
    the rows back, packed over their lcm D with one slot per composition (its
    position in `compositions_of(n)`), give d_I·D at I and 0 elsewhere."""
    comps = words.compositions_of(n)
    slot = {j: s for s, j in enumerate(comps)}
    hub = "M" if basis == "F" else "S"
    ends = (basis, hub) if to_hub else (hub, basis)
    first, back = ([symqsym._row(*pair, i) for i in comps] for pair in (ends, ends[::-1]))
    den = lcm(*(row._den for row in back))
    matrix = {j: [(slot[k], m * (den // row._den)) for k, m in row._nums.items()] for j, row in zip(comps, back)}
    for s, (row, got) in enumerate(zip(first, ncpoly._packed_product([row._nums.items() for row in first], matrix))):
        yield got == {s: row._den * den}


def _check_sym_roundtrips(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    # (rows, directions interleaved per composition); QSym runs M -> F -> M
    # over every weight before F -> M -> F
    groups = [(b, ((f"S <-> {b}", False), (f"{b} <-> S", True))) for b in ("Lambda", "Psi", "Phi", "Rib")]
    for basis, directions in groups + [("F", (("M <-> F", False),)), ("F", (("F <-> M", True),))]:
        for n in range(w_max + 1):
            trips = [_round_trips(basis, n, to_hub) for _, to_hub in directions]
            for comp, *oks in zip(words.compositions_of(n), *trips):
                for (name, _), ok in zip(directions, oks):
                    if not ok:
                        return False, f"{name} round trip fails at {comp}"
    one_s = symqsym.SymElement.single((1,), "S")
    for basis in ("Lambda", "Psi", "Phi"):
        if symqsym.convert(symqsym.SymElement.single((1,), basis), "S") != one_s:
            return False, f"degree-one generators differ in {basis}"
    return True, f"all basis changes invert exactly up to weight {w_max}"


def _check_sym_hopf(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    S, M = symqsym.SymElement.single, symqsym.QSymElement.single
    for basis in ("Psi", "Phi"):
        for n in range(1, w_max + 1):
            if not ncpoly.is_primitive(symqsym.decode_S(S((n,), basis)), "stuffle"):
                return False, f"{basis}_{n} not primitive for the Sym coproduct"
    cap = min(w_max, 4)
    product = lambda i, j: _core(symqsym.qsym_product(M(i, "M"), M(j, "M")))
    for n in range(cap + 1):
        if bad := _first_off_adjunction(n, lambda k: _core(symqsym.sym_coproduct(S(k, "S"))), product):
            return False, "Sym/QSym adjunction fails at {}; {}, {}".format(*bad)
    return True, f"power sums primitive to {w_max}; adjunction exhaustive to {cap}"


def _check_ribbon_duality(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    comps = words.compositions_up_to(w_max)
    ribs = [symqsym.convert(symqsym.SymElement.single(i, "Rib"), "S") for i in comps]
    fs = [symqsym.convert(symqsym.QSymElement.single(j, "F"), "M") for j in comps]
    if bad := _first_off_identity(ribs, fs):
        return False, f"ribbon/fundamental duality fails at {comps[bad[0]]}, {comps[bad[1]]}"
    return True, f"<Rib_I, F_J> = delta exhaustively up to weight {w_max}"


def _check_encodings(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    cap = min(w_max, 4)
    for n in range(cap + 1):
        for u, v in words.pairs_of_weight(n, words.words_of_weight):
            pu, pv = NCPolynomial.word(u), NCPolynomial.word(v)
            if symqsym.encode_S(pu * pv) != symqsym.encode_S(pu) * symqsym.encode_S(pv):
                return False, f"S encoding not multiplicative at {u}, {v}"
    for u in words.words_up_to(cap):
        got = _core(symqsym.sym_coproduct(symqsym.encode_S(NCPolynomial.word(u))))
        if got != _core(ncpoly.coproduct(NCPolynomial.word(u), "stuffle")):
            return False, f"S encoding does not intertwine the coproducts at {u}"
    rs, r_words, pi_words = bases.r_elements(w_max), {(): NCPolynomial.one()}, {(): NCPolynomial.one()}
    for comp in words.compositions_up_to(w_max, include_empty=False):
        r_word = r_words[comp] = r_words[comp[:-1]] * rs[comp[-1] - 1]
        pi_word = pi_words[comp] = pi_words[comp[:-1]] * bases.pi1(Word((comp[-1],)))
        psi = symqsym.convert(symqsym.SymElement.single(comp, "Psi"), "S")
        if symqsym.encode_S(r_word) != psi:
            return False, f"R-monomial encoding misses the first power sums at {comp}"
        phi = symqsym.convert(symqsym.SymElement.single(comp, "Phi"), "S")
        if symqsym.encode_S(pi_word) != phi / words.stats(comp).pi:
            return False, f"pi1-monomial encoding misses the second power sums at {comp}"
    return True, f"word encodings are Hopf morphisms; power-sum images hold to weight {w_max}"


def _check_mirror_oracles(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    cap = min(w_max, 4)
    for comp in words.compositions_up_to(cap):
        lam = symqsym.SymElement.single(comp, "Lambda")
        psi = symqsym.SymElement.single(comp, "Psi")
        phi = symqsym.SymElement.single(comp, "Phi")
        if symqsym.lambda_in_psi_oracle(comp) != symqsym.convert(lam, "Psi"):
            return False, f"corrected Lambda->Psi oracle fails at {comp}"
        if symqsym.psi_in_lambda_oracle(comp) != symqsym.convert(psi, "Lambda"):
            return False, f"Psi->Lambda oracle fails at {comp}"
        if symqsym.lambda_in_phi_oracle(comp) != symqsym.convert(lam, "Phi"):
            return False, f"corrected Lambda->Phi oracle fails at {comp}"
        if symqsym.phi_in_lambda_oracle(comp) != symqsym.convert(phi, "Lambda"):
            return False, f"corrected Phi->Lambda oracle fails at {comp}"
    if symqsym.lambda_in_psi_oracle((2,), literal_sign=True) == symqsym.convert(
        symqsym.SymElement.single((2,), "Lambda"), "Psi"
    ):
        return False, "literal printed sign unexpectedly matches at (2)"
    return True, f"mirror-statistics formulas (corrected sign) match to weight {cap}"


def _check_cauchy(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    if bad := symqsym.cauchy_first_off(w_max):
        return False, "sum M_I (x) S^I = sum F_J (x) Rib_J fails at {} (x) {}".format(*bad)
    return True, f"sum M_I (x) S^I = sum F_J (x) Rib_J up to weight {w_max}"


def _check_hall_littlewood(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    if (comp := symqsym.hall_littlewood_first_off(w_max, q_degree)) is not None:
        return False, f"geometric-alphabet specialization fails at {comp} mod q^{q_degree}"
    return True, f"geometric-alphabet specialization matches mod q^{q_degree}, weight <= {w_max}"


def _check_factorization(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    for pair in factorization.PAIRS:
        ok, report = factorization.verify_factorization(w_max, pair)
        if not ok:
            u, v, a, b = report[0]
            return False, f"pair {pair} differs at ({u}, {v}): {a} vs {b}"
    ok, report = factorization.verify_factorization(2, "stuffle", negative_control=True)
    if ok:
        return False, "negative control unexpectedly passes"
    return True, f"all four pairs reproduce the diagonal up to weight {w_max}; control fails"


def _check_characters(w_max: int, q_degree: int, rng) -> tuple[bool, str]:
    cap = min(w_max, 4)
    for name, ok, detail in factorization.character_checks(cap):
        if not ok:
            return False, f"{name}: {detail}"
    return True, f"character, log-series, and closing identities up to weight {cap}"


CHECKS = (
    ("words-refinements", _check_words_refinements),
    ("words-roundtrip", _check_words_roundtrip),
    ("lyndon-counts", _check_lyndon_counts),
    ("lyndon-factorization", _check_lyndon_factorization),
    ("products", _check_products),
    ("coproducts", _check_coproducts),
    ("adjunction", _check_adjunction),
    ("exp-log", _check_exp_log),
    ("duality-matrices", _check_duality),
    ("primitivity", _check_primitivity),
    ("series-identities", _check_series),
    ("letters-in-r", _check_y_in_r),
    ("pi1-inverse", _check_pi1),
    ("sym-roundtrips", _check_sym_roundtrips),
    ("sym-hopf", _check_sym_hopf),
    ("ribbon-duality", _check_ribbon_duality),
    ("encodings", _check_encodings),
    ("mirror-oracles", _check_mirror_oracles),
    ("cauchy", _check_cauchy),
    ("hall-littlewood", _check_hall_littlewood),
    ("factorization", _check_factorization),
    ("characters", _check_characters),
)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(args, out, text: str, payload, indent: int | None = None, table=()) -> None:
    """Writes one result in the form --format names: its text, its JSON
    payload, or its CSV table (a header row, then the data rows)."""
    if args.format == "json":
        out.write(json.dumps(payload, indent=indent) + "\n")
    elif args.format == "csv":
        csv.writer(out).writerows(table)
    else:
        out.write(text)


def _verify_rows(max_weight: int, q_degree: int, seed: int):
    """Yields (name, ok, detail) for each check of `CHECKS`, read at the first
    row, in order, all drawing from one generator seeded with seed.  The
    caller has validated the arguments, so a ValueError inside a check is a
    failed library precondition: that check's FAIL row, its message the
    detail."""
    rng = random.Random(seed)
    for name, fn in CHECKS:
        try:
            ok, detail = fn(max_weight, q_degree, rng)
        except ValueError as exc:
            ok, detail = False, str(exc)
        yield name, ok, detail


def run_verify(args, out) -> int:
    rows = [
        {"check": name, "status": "pass" if ok else "fail", "detail": detail}
        for name, ok, detail in _verify_rows(args.max_weight, args.q_degree, args.seed)
    ]
    passed = sum(r["status"] == "pass" for r in rows)
    width = max(len(r["check"]) for r in rows)
    text = "".join(f"{r['status'].upper():4}  {r['check']:<{width}}  {r['detail']}\n" for r in rows)
    text += (
        f"RESULT: {passed}/{len(rows)} checks passed "
        f"(max weight {args.max_weight}, q degree {args.q_degree}, seed {args.seed})\n"
    )
    table = [("check", "status", "detail"), *(r.values() for r in rows)]
    _emit(args, out, text, rows, indent=2, table=table)
    return 0 if passed == len(rows) else 1


def _within_cap(args, weight: int, what: str) -> None:
    if weight > WEIGHT_CAP and not args.unsafe_weight:
        raise ValueError(
            f"{what} has weight {weight}, above the cap of {WEIGHT_CAP}; "
            "pass --unsafe-weight to override"
        )


def _element_within_cap(args, x, flag: str) -> None:
    _within_cap(args, x.max_weight(), f"a composition in {flag}")


def _emit_poly(args, out, p: NCPolynomial) -> None:
    table = [("word", "coeff"), *((words.word_str(w), str(p.terms[w])) for w in p.support())]
    _emit(args, out, ncpoly.poly_str(p) + "\n", ncpoly.poly_to_json(p), table=table)


def run_lyndon(args, out) -> int:
    ws = lyndon.lyndon_up_to(args.max_weight)
    texts = [words.word_str(w) for w in ws]
    table = [("weight", "word"), *((w.weight, t) for w, t in zip(ws, texts))]
    _emit(args, out, "".join(t + "\n" for t in texts), texts, table=table)
    return 0


def run_basis(args, out) -> int:
    w = words.parse_word(args.word)
    _within_cap(args, w.weight, "--word")
    _emit_poly(args, out, bases.basis_element(args.family, w).value)
    return 0


def run_product(args, out) -> int:
    if len(args.word) != 2:
        raise ValueError("product needs exactly two --word arguments")
    u, v = (words.parse_word(t) for t in args.word)
    _within_cap(args, u.weight + v.weight, "the product of the two --word arguments")
    _emit_poly(args, out, ncpoly.product(NCPolynomial.word(u), NCPolynomial.word(v), args.kind))
    return 0


def run_convert(args, out) -> int:
    x = symqsym.parse_element(args.element, default_basis=args.source)
    if x.basis != args.source:
        raise ValueError(f"element tagged {x.basis} but --from says {args.source}")
    _element_within_cap(args, x, "--element")
    y = symqsym.convert(x, args.target)
    table = [
        ("basis", "composition", "coeff"),
        *((y.basis, words.comp_str(c), str(y.terms[c])) for c in y.support()),
    ]
    _emit(args, out, symqsym.element_str(y) + "\n", symqsym.element_to_json(y), table=table)
    return 0


def run_pair(args, out) -> int:
    x = symqsym.parse_element(args.sym)
    y = symqsym.parse_element(args.qsym)
    if not isinstance(x, symqsym.SymElement) or not isinstance(y, symqsym.QSymElement):
        raise ValueError("--sym must use an S/Lambda/Psi/Phi/Rib basis and --qsym an M/F basis")
    _element_within_cap(args, x, "--sym")
    _element_within_cap(args, y, "--qsym")
    value = str(symqsym.pairing_ext(x, y))
    _emit(args, out, value + "\n", {"value": value})
    return 0


def run_factorize(args, out) -> int:
    ok, report = factorization.verify_factorization(
        args.max_weight, args.pair, negative_control=args.negative_control
    )
    rows = [(words.word_str(u), words.word_str(v), str(a), str(b)) for u, v, a, b in report]
    if ok:
        text = (
            f"OK: pair {args.pair} reproduces the diagonal series up to weight {args.max_weight}\n"
        )
    else:
        text = (
            f"MISMATCH: pair {args.pair} differs from the diagonal series "
            f"(showing up to {len(report)} terms)\n"
        )
        text += "".join(f"  ({u}) (x) ({v}): diagonal {a}, product {b}\n" for u, v, a, b in rows)
    payload = {
        "pair": args.pair,
        "max_weight": args.max_weight,
        "negative_control": args.negative_control,
        "equal": ok,
        "discrepancies": [
            dict(zip(("left", "right", "diagonal", "product"), row)) for row in rows
        ],
    }
    _emit(args, out, text, payload, indent=2)
    return 0 if ok else 1


def run_hl_check(args, out) -> int:
    ok = symqsym.hall_littlewood_check(args.max_weight, args.q_degree)
    text = (
        f"{'OK' if ok else 'MISMATCH'}: ordered-product coefficients vs geometric "
        f"specialization, weight <= {args.max_weight}, mod q^{args.q_degree}\n"
    )
    payload = {"max_weight": args.max_weight, "q_degree": args.q_degree, "equal": ok}
    _emit(args, out, text, payload)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_MAX_WEIGHT = ("--max-weight", {"type": int, "default": 5})
_Q_DEGREE = ("--q-degree", {"type": int, "default": 8})
_SEED = ("--seed", {"type": int, "default": 0})
_BASES = symqsym.SYM_BASES + symqsym.QSYM_BASES

# One row per subcommand: its name, help, runner, the formats it writes and
# the flags its runner reads.  Every subcommand also takes --format and
# --unsafe-weight; an unlisted flag is a usage error.
COMMANDS = (
    ("lyndon", "list Lyndon words by weight", run_lyndon, FORMATS, [_MAX_WEIGHT]),
    ("basis", "print one dual-basis element", run_basis, FORMATS, [
        ("--family", {"required": True, "choices": bases.FAMILIES}),
        ("--word", {"required": True}),
    ]),
    ("product", "multiply two words", run_product, FORMATS, [
        ("--kind", {"choices": ncpoly.PRODUCT_KINDS, "default": "stuffle"}),
        ("--word", {"action": "append", "required": True}),
    ]),
    ("convert", "change the basis of an element", run_convert, FORMATS, [
        ("--from", {"dest": "source", "required": True, "choices": _BASES}),
        ("--to", {"dest": "target", "required": True, "choices": _BASES}),
        ("--element", {"required": True}),
    ]),
    ("pair", "pair a Sym element with a QSym element", run_pair, ("text", "json"), [
        ("--sym", {"required": True}),
        ("--qsym", {"required": True}),
    ]),
    ("verify", "run the full identity suite", run_verify, FORMATS, [_MAX_WEIGHT, _Q_DEGREE, _SEED]),
    ("factorize", "check a diagonal-series factorization", run_factorize, ("text", "json"), [
        _MAX_WEIGHT,
        ("--pair", {"choices": factorization.PAIRS, "default": "stuffle"}),
        ("--negative-control", {"action": "store_true"}),
    ]),
    ("hl-check", "check the q-specialization identity", run_hl_check, ("text", "json"),
     [_MAX_WEIGHT, _Q_DEGREE]),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshuffle",
        description="Exact-arithmetic shuffle/quasi-shuffle Hopf algebras, "
        "Lyndon dual bases, Sym/QSym, and factorization checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run, formats, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument(
            "--unsafe-weight",
            action="store_true",
            help=f"allow weights above the default cap of {WEIGHT_CAP} (--max-weight, "
            f"--word, compositions in --element/--sym/--qsym) and --q-degree above "
            f"{Q_DEGREE_CAP}",
        )
    return parser


# Built once: argparse makes a formatter per argument; parse_args leaves it unchanged.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if "max_weight" in args:
        if args.max_weight < 0:
            _PARSER.error("--max-weight must be nonnegative")
        if args.max_weight > WEIGHT_CAP and not args.unsafe_weight:
            _PARSER.error(
                f"--max-weight {args.max_weight} exceeds the cap of {WEIGHT_CAP}; "
                "pass --unsafe-weight to override"
            )
        if args.command == "verify" and args.max_weight < 1:
            _PARSER.error("verify needs --max-weight >= 1")
    if "q_degree" in args:
        if args.q_degree < 1:
            _PARSER.error("--q-degree must be >= 1")
        if args.q_degree > Q_DEGREE_CAP and not args.unsafe_weight:
            _PARSER.error(
                f"--q-degree {args.q_degree} exceeds the cap of {Q_DEGREE_CAP}; "
                "pass --unsafe-weight to override"
            )
    try:
        return args.run(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
