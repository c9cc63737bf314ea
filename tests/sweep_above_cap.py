"""The packed kernels and cached rows against their Fraction oracles, one weight
above the test weights (about 50 s on Python 3.11, 2-core x86).  Run as

    PYTHONPATH=src:tests python -W error tests/sweep_above_cap.py

It exits with an AssertionError naming the first mismatch; pytest does not
collect it."""

from fractions import Fraction
from itertools import permutations
from random import Random
import fraction_oracle as o
from qshuffle import bases, cli, ncpoly
from qshuffle.factorization import PAIRS, _exp_product, diagonal, lyndon_decreasing, pi1_series
from qshuffle.lyndon import lyndon_up_to
from qshuffle.symqsym import QSYM_BASES, SYM_BASES, QSymElement, SymElement, convert
from qshuffle.words import Word, compositions_of, words_of_weight


def main() -> None:
    for pair in PAIRS:
        dual, primal, kind = bases.PAIRS[pair]
        for p in (primal, "Pi" if pair == "shuffle" else "p"):
            f = [[bases.basis_element(x, l).value for x in (dual, p)] for l in lyndon_decreasing(9)]
            got, want = _exp_product(f, 9, kind), o.exp_product(f, 9, kind)
            assert (got._den, got._buckets) == (want._den, want._buckets), (pair, p)
        ws = words_of_weight(9)
        rows, cols = ([bases.basis_element(x, w).value for w in ws] for x in (primal, dual))
        assert list(ncpoly.gram(rows, cols)) == [{j: n for j, n in r.items() if n} for r in o.gram(rows, cols)], pair
    assert cli._check_sym_roundtrips(9, 8, None) == o.sym_roundtrips(9) == (True, "all basis changes invert exactly up to weight 9")
    as_oracle = lambda x: o.TSeries(dict(x.coeffs), x.bound)
    logy = bases.log_y_series(8)
    for k in (1, 2, 3):
        for b in bases.higher_series(k, 8):
            got, want = bases.exp_ad(logy, b), o.exp_ad(as_oracle(logy), as_oracle(b))
            assert (got.bound, dict(got.coeffs)) == (want.bound, want.coeffs), k
    for w in words_of_weight(9):
        got, want = bases.pi1(w), o.pi1(w.letters)
        assert (got._nums, got._den) == (want._nums, want._den), w
    assert pi1_series(8).exp() == diagonal(8, "stuffle")
    rng, flat = Random(0), lambda x: {w: c for q in x.coeffs.values() for w, c in q.terms.items()}
    for _ in range(5):
        terms = {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in cli._sample_words(rng, 8, 12)}
        x = bases.TSeries({n: ncpoly.NCPolynomial({w: c for w, c in terms.items() if w.weight == n}) for n in range(1, 9)}, 8)
        assert flat(x.exp()) == o.exp_trunc(o.accumulate(terms.items()), 8), terms
        assert flat((bases.TSeries.one(8) + x).log()) == o.log_trunc(o.accumulate([*terms.items(), (Word(), Fraction(1))]), 8), terms
    for j, (cal_l, cal_r, off) in enumerate(bases._higher_chain(3, 8), 1):
        assert off is None, (j, off)
        for got, want in zip((cal_l, cal_r), o.higher_series(j, 8), strict=True):
            assert (got._buckets, got._den, got.bound) == (want._buckets, want._den, want.bound), j
    for l in lyndon_up_to(7):
        for family, kind in (("p", "shuffle"), ("Pi", "stuffle"), ("PiL", "stuffle"), ("PiR", "stuffle")):
            x = bases.basis_element(family, l).value
            assert ncpoly.is_primitive(x, kind) is o.is_primitive(x, kind) is True, (family, l)
    x = bases.basis_element("Pi", Word((1, 1))).value
    assert ncpoly.is_primitive(x, "stuffle") is o.is_primitive(x, "stuffle") is False
    for w in words_of_weight(9):
        for kind in ("concat", "shuffle", "stuffle"):
            assert ncpoly.coproduct(ncpoly.NCPolynomial.word(w), kind).terms == o.coproduct({w: 1}, kind), (w, kind)
    for a in range(1, 10):
        w = Word((a,))
        assert ncpoly.coproduct(ncpoly.NCPolynomial.word(w), "plus").terms == o.coproduct({w: 1}, "plus"), a
    for cls, names in ((SymElement, SYM_BASES), (QSymElement, QSYM_BASES)):
        for a, b in permutations(names, 2):
            for comp in compositions_of(8):
                assert convert(cls.single(comp, a), b).terms == o.convert({comp: 1}, a, b), (a, b, comp)
    for a, b in permutations(SYM_BASES[1:], 2):
        for comp in compositions_of(9):
            assert convert(SymElement.single(comp, a), b).terms == o.convert({comp: 1}, a, b), (a, b, comp)


if __name__ == "__main__":
    main()
