"""The benchmark's three workloads: inputs made from the seed, the calls into
the program that are timed, and the checks on what the program returned.

Every workload is closed-loop with one client: each call is made after the
previous one has returned.  Import this module only in a worker process,
after qshuffle's source directory has been put on sys.path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import re
from fractions import Fraction
from math import comb, prod
from time import perf_counter

from qshuffle import bases, cli, factorization, lyndon, ncpoly, symqsym, words
from qshuffle.ncpoly import NCPolynomial, TensorPolynomial
from qshuffle.symqsym import QSymElement, SymElement
from qshuffle.words import Word

# Problem sizes.  "full" is what the benchmark measures; "toy" is the
# self-test size.  The weights are set so that one cold and one warm run of a
# workload fit several times into one measuring window (see README.md).
SIZES = {
    "full": {
        "verify_weight": 6,
        "factorize_weight": 7,
        "lookup_requests": 3000,
        "basis_weight": 7,
        "product_weight": 8,
        "comp_weight": 8,
    },
    "toy": {
        "verify_weight": 3,
        "factorize_weight": 3,
        "lookup_requests": 50,
        "basis_weight": 3,
        "product_weight": 4,
        "comp_weight": 4,
    },
}

MODULES = {
    "words": words,
    "ncpoly": ncpoly,
    "lyndon": lyndon,
    "bases": bases,
    "symqsym": symqsym,
    "factorization": factorization,
    "cli": cli,
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Checks:
    """Counts output checks attempted and failed, keeping the first few
    failure descriptions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


# ---------------------------------------------------------------------------
# cache counters (read only; a cache a later version removes is skipped)
# ---------------------------------------------------------------------------

BASIS_CACHES = ("_P_CACHE", "_PI_CACHE", "_PIL_CACHE", "_PIR_CACHE")


def cache_snapshot() -> dict:
    """Exact counts for every lru_cache defined in the package and for the
    dict-backed basis caches."""
    lru = {}
    for mod_name, mod in MODULES.items():
        for name, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if info is not None and getattr(obj, "__module__", None) == mod.__name__:
                i = info()
                lru[f"{mod_name}.{name}"] = {"hits": i.hits, "misses": i.misses, "size": i.currsize}
    basis = {}
    for name in BASIS_CACHES:
        cache = getattr(bases, name, None)
        if isinstance(cache, dict):
            basis[name] = {
                "entries": len(cache),
                "terms": sum(len(p.terms) for p in cache.values()),
            }
    return {"lru": lru, "basis": basis}


def _dual_solves() -> int:
    table = getattr(bases, "_dual_table", None)
    return table.cache_info().misses if table is not None else 0


# ---------------------------------------------------------------------------
# verify: the full identity sweep through the CLI
# ---------------------------------------------------------------------------

_RESULT = re.compile(r"RESULT: (\d+)/(\d+) checks passed")


class Verify:
    def __init__(self, size: dict, seed: int, negative_control: bool):
        if negative_control:
            raise ValueError("the verify workload has no negative control")
        self.weight = size["verify_weight"]
        self.argv = ["verify", "--max-weight", str(self.weight), "--seed", str(seed)]

    def context(self) -> dict:
        return {"N": self.weight, "argv": self.argv}

    def run(self, span) -> tuple[int, str]:
        with span("cli.main"):
            return run_cli(self.argv)

    def run_traced(self, tracer) -> tuple[int, str]:
        # The sweep runs through cli.main exactly as in the timed run; each
        # check function is wrapped in a span for the duration of the call.
        def wrap(name, fn):
            def call(*args, **kwargs):
                with tracer.span(f"cli.check.{name}"):
                    return fn(*args, **kwargs)

            return call

        checks, hl = cli.CHECKS, cli._check_hall_littlewood
        cli.CHECKS = tuple((name, fn and wrap(name, fn)) for name, fn in checks)
        cli._check_hall_littlewood = wrap("hall-littlewood", hl)
        try:
            return self.run(tracer.span)
        finally:
            cli.CHECKS, cli._check_hall_littlewood = checks, hl

    def check(self, result, checks: Checks) -> None:
        rc, text = result
        rows = [line for line in text.splitlines() if line[:5] in ("PASS ", "FAIL ")]
        for line in rows:
            checks.expect(line.startswith("PASS "), line.strip())
        m = _RESULT.search(text)
        checks.expect(
            rc == 0 and m is not None and m.group(1) == m.group(2) == str(len(rows)) and rows != [],
            f"verify exit {rc}, summary {m.group(0) if m else None!r}",
        )

    def same(self, cold, warm) -> bool:
        return cold == warm

    def counts(self, result) -> dict:
        m = _RESULT.search(result[1])
        return {"checks_passed": int(m.group(1)) if m else 0}


# ---------------------------------------------------------------------------
# factorize: the quasi-shuffle factorization of the diagonal series
# ---------------------------------------------------------------------------

class Factorize:
    PAIR = "stuffle"

    def __init__(self, size: dict, seed: int, negative_control: bool):
        # The factorization has no random input; the seed selects nothing.
        self.weight = size["factorize_weight"]
        self.negative_control = negative_control
        self.argv = ["factorize", "--max-weight", str(self.weight), "--pair", self.PAIR, "--format", "json"]
        if negative_control:
            self.argv.append("--negative-control")

    def context(self) -> dict:
        return {"N": self.weight, "argv": self.argv}

    def run(self, span) -> tuple[int, str]:
        with span("cli.main"):
            return run_cli(self.argv)

    def run_traced(self, tracer) -> dict:
        # The same work as `qshuffle factorize`, with the layers called in
        # dependency order so that each layer's cold cost falls in its own span.
        span, n = tracer.span, self.weight
        with span("lyndon.enumerate"):
            lyndon_words = lyndon.lyndon_up_to(n)
        with span("words.enumerate"):
            all_words = words.words_up_to(n, include_empty=False)
            first_of_weight = [words.words_of_weight(k)[0] for k in range(1, n + 1)]
        with span("bases.pi1"):
            for k in range(1, n + 1):
                bases.pi1(Word((k,)))
        with span("bases.primal"):
            for w in all_words:
                bases.pi_basis(w)
        with span("bases.dual_solve"):
            for w in first_of_weight:
                bases.sigma_basis(w)
        with span("factorization.product"):
            got = factorization.factorized_product(n, self.PAIR, mismatch=self.negative_control)
        with span("factorization.compare"):
            target = factorization.diagonal(n, self.PAIR)
            report = target.discrepancies(got)
        return {"lyndon_words": len(lyndon_words), "result_terms": len(got.terms), "report": report}

    def check(self, result, checks: Checks) -> None:
        if isinstance(result, dict):  # traced run
            n = self.weight
            expected_lyndon = sum(lyndon.lyndon_count(k) for k in range(1, n + 1))
            checks.expect(result["lyndon_words"] == expected_lyndon, "Lyndon count differs from the necklace formula")
            checks.expect(result["result_terms"] == 2**n, f"product has {result['result_terms']} terms, not 2^{n}")
            checks.expect(not result["report"], f"{len(result['report'])} discrepancies with the diagonal")
            return
        rc, text = result
        try:
            payload = json.loads(text)
        except ValueError:
            payload = {}
        ok = rc == 0 and payload.get("equal") is True and payload.get("discrepancies") == []
        checks.expect(ok, f"factorize exit {rc}, {len(payload.get('discrepancies', []))} discrepancies")

    def same(self, cold, warm) -> bool:
        return cold == warm

    def counts(self, result) -> dict:
        if isinstance(result, dict):
            return {"lyndon_words": result["lyndon_words"], "result_terms": result["result_terms"]}
        return {}


# ---------------------------------------------------------------------------
# lookups: a seeded session of single-element requests
# ---------------------------------------------------------------------------

DUAL_PARTNER = {"s": "p", "Sigma": "Pi", "SigmaL": "PiL", "SigmaR": "PiR"}
PRIMAL_PARTNER = {v: k for k, v in DUAL_PARTNER.items()}
LOOKUP_KINDS = ("concat", "shuffle", "stuffle")
# Request mix: 1/3 basis elements, 1/6 each of the other four operations.
OP_CYCLE = ("basis", "product", "coproduct", "basis", "convert", "pairing")
SPAN_OF = {
    "basis": "bases.basis_element",
    "product": "ncpoly.product",
    "coproduct": "ncpoly.coproduct",
    "convert": "symqsym.convert",
    "pairing": "symqsym.pairing_ext",
}


def _composition(rng: random.Random, n: int) -> tuple:
    parts, cur = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(cur)
            cur = 1
        else:
            cur += 1
    parts.append(cur)
    return tuple(parts)


def _fixed_composition(n: int, k: int) -> tuple:
    # The cost of a product, coproduct, conversion or pairing grows
    # exponentially with the number of parts, so these operands walk through
    # the compositions in a fixed order instead of being drawn: their work is
    # then the same for every seed, which only sets their place in the session.
    comps = words.compositions_of(n)
    return comps[(k * 37) % len(comps)]


def _request(rng: random.Random, op: str, cell: tuple, visit: int) -> tuple:
    if op == "basis":
        family, n = cell
        return op, family, _composition(rng, n)
    if op == "product":
        kind, n, k = cell
        return op, kind, _fixed_composition(k, visit), _fixed_composition(n - k, visit + 1)
    if op == "coproduct":
        kind, n = cell
        return op, kind, _fixed_composition(n, visit)
    if op == "convert":
        source, target, n = cell
        return op, source, target, _fixed_composition(n, visit)
    sym_basis, qsym_basis, n = cell
    return op, sym_basis, qsym_basis, _fixed_composition(n, visit), _fixed_composition(n, visit + 1)


def _stuffle_count(a: int, b: int) -> int:
    # Delannoy number: k contractions among a + b letters.
    return sum(comb(a, k) * comb(b, k) * 2**k for k in range(min(a, b) + 1))


class Lookups:
    def __init__(self, size: dict, seed: int, negative_control: bool):
        self.size = size
        self.negative_control = negative_control
        self.plan = self._plan(random.Random(seed))

    def _plan(self, rng: random.Random) -> list[tuple]:
        # A balanced design: the operations follow OP_CYCLE and each one
        # cycles through its cells (family or kind or basis pair, and weight)
        # in a fixed order, so every seed asks for the same amount of each
        # kind of work.  The seed draws the words of the basis requests and
        # the order of all requests.
        s, sym, qsym = self.size, symqsym.SYM_BASES, symqsym.QSYM_BASES
        cells = {
            "basis": [(f, n) for n in range(1, s["basis_weight"] + 1) for f in bases.FAMILIES],
            "product": [
                (kind, n, k)
                for n in range(2, s["product_weight"] + 1)
                for k in range(1, n)
                for kind in LOOKUP_KINDS
            ],
            "coproduct": [(kind, n) for n in range(1, s["product_weight"] + 1) for kind in LOOKUP_KINDS],
            "convert": [
                (a, b, n)
                for n in range(1, s["comp_weight"] + 1)
                for side in (sym, qsym)
                for a in side
                for b in side
                if a != b
            ],
            "pairing": [(x, y, n) for n in range(1, s["comp_weight"] + 1) for x in sym for y in qsym],
        }
        used = dict.fromkeys(cells, 0)
        plan = []
        for i in range(s["lookup_requests"]):
            op = OP_CYCLE[i % len(OP_CYCLE)]
            cell = cells[op][used[op] % len(cells[op])]
            plan.append(_request(rng, op, cell, used[op]))
            used[op] += 1
        rng.shuffle(plan)
        return plan

    def context(self) -> dict:
        mix: dict[str, int] = {}
        for req in self.plan:
            key = req[0] if req[0] in ("convert", "pairing") else f"{req[0]}:{req[1]}"
            mix[key] = mix.get(key, 0) + 1
        return {"requests": len(self.plan), "mix": dict(sorted(mix.items())), **{
            k: v for k, v in self.size.items() if k != "lookup_requests"}}

    def _build(self) -> list[tuple]:
        calls = []
        for req in self.plan:
            op = req[0]
            if op == "basis":
                calls.append((op, bases.basis_element, (req[1], Word(req[2]))))
            elif op == "product":
                u, v = NCPolynomial.word(Word(req[2])), NCPolynomial.word(Word(req[3]))
                calls.append((op, ncpoly.product, (u, v, req[1])))
            elif op == "coproduct":
                calls.append((op, ncpoly.coproduct, (NCPolynomial.word(Word(req[2])), req[1])))
            elif op == "convert":
                cls = SymElement if req[1] in symqsym.SYM_BASES else QSymElement
                calls.append((op, symqsym.convert, (cls.single(req[3], req[1]), req[2])))
            else:
                x, y = SymElement.single(req[3], req[1]), QSymElement.single(req[4], req[2])
                calls.append((op, symqsym.pairing_ext, (x, y)))
        return calls

    def run(self, span, track_solves: bool = False) -> dict:
        with span("words.build"):
            calls = self._build()
        answers, starts, latencies, dual_solve_s = [], [], [], 0.0
        for op, fn, args in calls:
            solves = track_solves and _dual_solves()
            with span(SPAN_OF[op]):
                t0 = perf_counter()
                answers.append(fn(*args))
                latencies.append(perf_counter() - t0)
            starts.append(t0)
            if track_solves and _dual_solves() != solves:
                dual_solve_s += latencies[-1]
        return {"calls": calls, "answers": answers, "starts": starts, "latencies": latencies,
                "dual_solve_s": dual_solve_s}

    def run_traced(self, tracer) -> dict:
        # Also attributes the first Sigma-type request of each (family,
        # weight), the one that solves the duality table, to the dual solve.
        return self.run(tracer.span, track_solves=True)

    def same(self, cold, warm) -> bool:
        return cold["answers"] == warm["answers"]

    def counts(self, result) -> dict:
        return {"answer_terms": sum(_terms(a) for a in result["answers"])}

    def check(self, result, checks: Checks) -> None:
        answers = list(result["answers"])
        if self.negative_control and answers:
            answers[0] = _corrupt(answers[0])
        partner_cache: dict = {}
        for (op, _fn, args), ans in zip(result["calls"], answers):
            checks.expect(_check_answer(op, args, ans, partner_cache), f"{op}{args!r}")


def _terms(ans) -> int:
    return len(ans.terms) if hasattr(ans, "terms") else 1


def _corrupt(ans):
    """A deliberately wrong answer for the negative control."""
    if isinstance(ans, Fraction):
        return ans + 1
    if isinstance(ans, TensorPolynomial):
        return TensorPolynomial({k: 2 * c for k, c in ans.terms.items()})
    if isinstance(ans, bases.BasisElement):
        return dataclasses.replace(ans, value=2 * ans.value)
    return 2 * ans


def _check_answer(op: str, args: tuple, ans, partner_cache: dict) -> bool:
    """An identity independent of the call that produced the answer."""
    if op == "basis":
        family, w = args
        # A dual answer pairs to delta with the primal family, and a primal
        # answer with the dual family, over all words of the same weight.
        if family in DUAL_PARTNER:
            partner, dual_side = DUAL_PARTNER[family], True
        else:
            partner, dual_side = PRIMAL_PARTNER[family], False
        for u in words.words_of_weight(w.weight):
            key = (partner, u)
            if key not in partner_cache:
                partner_cache[key] = bases.basis_element(partner, u).value
            other = partner_cache[key]
            value = ncpoly.pairing(other, ans.value) if dual_side else ncpoly.pairing(ans.value, other)
            if value != (1 if u == w else 0):
                return False
        return True
    if op == "product":
        p, q, kind = args
        (u,), (v,) = p.terms, q.terms
        a, b = len(u), len(v)
        expected = {"concat": 1, "shuffle": comb(a + b, a), "stuffle": _stuffle_count(a, b)}[kind]
        if sum(ans.terms.values()) != expected:
            return False
        # <coproduct(w), u (x) v> = <w, u * v> for every word w of the answer.
        return all(ncpoly.coproduct(NCPolynomial.word(w), kind).coeff(u, v) == c for w, c in ans.terms.items())
    if op == "coproduct":
        p, kind = args
        (w,) = p.terms
        expected = {"concat": len(w) + 1, "shuffle": 2 ** len(w), "stuffle": prod(a + 1 for a in w.letters)}[kind]
        if sum(ans.terms.values()) != expected:
            return False
        return all(
            ncpoly.product(NCPolynomial.word(u), NCPolynomial.word(v), kind).coeff(w) == c
            for (u, v), c in ans.terms.items()
        )
    if op == "convert":
        x, _target = args
        return symqsym.convert(ans, x.basis) == x
    x, y = args
    # <Rib_I, F_J> = delta is a second route to the same pairing.
    rib, fund = symqsym.convert(x, "Rib").terms, symqsym.convert(y, "F").terms
    return ans == sum((c * fund.get(comp, 0) for comp, c in rib.items()), Fraction(0))


WORKLOADS = {"verify": Verify, "factorize": Factorize, "lookups": Lookups}
