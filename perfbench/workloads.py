"""The benchmark workloads: seeded inputs and the correctness gate.

Each workload turns a seed into the inputs one round runs (``inputs``),
derives the answer every operation must give (``expected``) and counts
the operations of a round whose answer differs (``failures``).  Answers
are compared in the canonical text form ``worker.canon`` produces, so a
round stores short strings rather than whole spectra.

verify      `gkspec verify --json`, the paper's 26 checks.  It has no
            inputs; the seed is unused.  The report, without its backend
            field, must equal perfbench/expected/verify.json byte for byte.
semidirect  single-element queries on GammaL1(p^k) configurations built
            by build_gamma_frobenius, field sizes 81 to 43M: element
            orders of (v, h), of field elements and of semilinear maps,
            fixed-space dimensions and minimal polynomials.  Answers come
            from oracle.Field over the modulus gkspec reports, after the
            oracle has checked that modulus is irreducible.
spectra     order-set and prime-graph queries on spectra whose generators
            have magnitudes from 2^4 to about 2^36 and are built from
            known prime factors, so every answer follows from those
            factors.  About a quarter of the queries repeat an earlier
            spectrum, and a fixed share must raise OverflowError.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import oracle
from worker import canon

HERE = Path(__file__).resolve().parent


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class Verify:
    name = "verify"

    def __init__(self, seed: int, expected_path: Path = HERE / "expected" / "verify.json"):
        self.expected_text = expected_path.read_text("utf-8")
        self.expected_checks = json.loads(self.expected_text)["checks"]
        self.check_ids = [c["id"] for c in self.expected_checks]

    def inputs(self):
        return None

    @property
    def op_count(self) -> int:
        return len(self.expected_checks)

    def expected(self, first_results):
        return None

    def failures(self, round_, expected) -> int:
        """Checks that fail or differ from the recorded report."""
        lines = round_.stdout.splitlines(keepends=True)
        kept = [ln for ln in lines if not ln.startswith('  "backend": ')]
        if round_.exit_code == 0 and len(kept) == len(lines) - 1:
            if "".join(kept) == self.expected_text:
                return 0
        try:
            got = json.loads("".join(kept))["checks"]
        except (ValueError, KeyError, TypeError):
            return self.op_count
        bad = sum(
            1
            for i, want in enumerate(self.expected_checks)
            if i >= len(got) or got[i] != want
        )
        # a report that differs only outside the check entries still fails
        return max(bad, 1)


# -- semidirect -------------------------------------------------------------

# (p, k, kernel order m, complement order c): the paper's 23:11 on GF(2^11),
# C17 on GF(3^16) and C5 on GF(3^4), then characteristics 2, 3, 5 and 7 at
# degrees 4 to 16 with a prime kernel order dividing p^k - 1.
SEMIDIRECT_CONFIGS = (
    (2, 11, 23, 11),
    (3, 16, 17, 1),
    (3, 4, 5, 1),
    (2, 8, 17, 8),
    (2, 10, 11, 10),
    (2, 12, 13, 12),
    (2, 16, 257, 2),
    (3, 8, 41, 8),
    (3, 12, 73, 4),
    (5, 4, 13, 4),
    (5, 6, 7, 6),
    (5, 10, 11, 5),
    (7, 4, 5, 4),
    (7, 6, 43, 6),
    (7, 9, 37, 3),
)

# queries per configuration and round
SEMIDIRECT_MIX = (("sdo", 20), ("eo", 16), ("ao", 16), ("fsd", 6), ("mp", 6))


def _vector(rng, p, k, nonzero=False):
    v = [rng.randrange(p) for _ in range(k)]
    if nonzero and not any(v):
        v[0] = 1
    return v


class Semidirect:
    name = "semidirect"

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        builds = [["build", ci] for ci in range(len(SEMIDIRECT_CONFIGS))]
        queries = []
        # A query's cost turns mostly on the Galois exponent of its map, so
        # every seed spreads the exponents evenly over their range and only
        # the field elements are random: the seeds differ in values, not in
        # the mix of costs (actions[i * c + e] is zeta^i * frobenius^e).
        for ci, (p, k, m, c) in enumerate(SEMIDIRECT_CONFIGS):
            for kind, count in SEMIDIRECT_MIX:
                for j in range(count):
                    if kind == "sdo":
                        index = rng.randrange(m) * c + j * c // count
                        queries.append([kind, ci, _vector(rng, p, k), index])
                    elif kind == "eo":
                        queries.append([kind, ci, _vector(rng, p, k, True)])
                    else:
                        queries.append([kind, ci, _vector(rng, p, k, True), j * k // count])
        rng.shuffle(queries)
        self.ops = builds + queries

    def inputs(self):
        return {"configs": [list(c) for c in SEMIDIRECT_CONFIGS], "ops": self.ops}

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def expected(self, first_results):
        """Oracle answers, over the fields the first round reported."""
        fields = {}
        out = []
        for i, op in enumerate(self.ops):
            if op[0] == "build":
                got = _loads(first_results[i])
                field = _checked_build(op[1], got)
                if field is not None:
                    fields[op[1]] = field
                out.append(first_results[i] if field is not None else "invalid build")
                continue
            field = fields.get(op[1])
            if field is None:
                out.append("no field")
                continue
            out.append(_semidirect_answer(field, op, _loads(first_results[i])))
        return out

    def failures(self, round_, expected) -> int:
        return _count_mismatches(round_.results, expected, self.op_count)


def _loads(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _checked_build(ci, got):
    """An oracle field for a reported build result that checks out, else None."""
    p, k, m, c = SEMIDIRECT_CONFIGS[ci]
    try:
        modulus, zeta, n_actions, fpf = got
        field = oracle.Field(p, k, modulus)
        zeta = tuple(zeta)
    except (TypeError, ValueError, IndexError):
        return None
    step = k // c
    want_fpf = c > 1 and all(
        math.gcd(p ** (step * e % k) - 1, m) == 1 for e in range(1, c)
    )
    if not field.is_valid_modulus() or len(zeta) != k or not any(zeta):
        return None
    if field.order_of(zeta) != m or n_actions != m * c or fpf != want_fpf:
        return None
    return field


def _semidirect_answer(field, op, got):
    kind, ci = op[0], op[1]
    p, k, m, c = SEMIDIRECT_CONFIGS[ci]
    if kind == "sdo":
        # the acting element is whichever member of the group gkspec picked;
        # it must lie in the group, and the order is then recomputed
        try:
            _, mult, gexp = got
            mult = tuple(mult)
        except (TypeError, ValueError):
            return "invalid action"
        if len(mult) != k or field.pow(mult, m) != field.one or gexp % (k // c):
            return "invalid action"
        return canon([field.semidirect_order(op[2], mult, gexp), list(mult), gexp])
    if kind == "eo":
        return canon(field.order_of(op[2]))
    u, e = op[2], op[3]
    if kind == "ao":
        return canon(field.action_order(u, e))
    if kind == "fsd":
        return canon(oracle.fixed_space_dim(field.action_matrix(u, e), p))
    return canon(list(oracle.minimal_polynomial(field.action_matrix(u, e), p)))


def _count_mismatches(results, expected, n) -> int:
    if results is None or expected is None or len(results) != len(expected):
        return n
    return sum(1 for got, want in zip(results, expected) if got != want)


# -- spectra ----------------------------------------------------------------

# queries per round; the *_overflow kinds must raise OverflowError
SPECTRA_MIX = (
    ("members", 200),
    ("pi", 300),
    ("sigma", 300),
    ("product", 300),
    ("wreath2", 200),
    ("gk", 200),
    ("cocliques_gk", 180),
    ("cocliques", 180),
    ("product_overflow", 80),
    ("wreath2_overflow", 40),
)
REPEAT_SHARE = 0.25  # of each kind's queries that take an earlier spectrum
MIN_BITS, MAX_BITS = 4, 36
MAX_COCLIQUES = 64  # spectrum graphs with more maximum cocliques are redrawn
GRAPH_VERTICES = 40
J4_GENERATORS = (16, 23, 24, 28, 29, 30, 31, 35, 37, 40, 42, 43, 44, 66)


def _strata(rng, n: int) -> list[tuple[float, float]]:
    """n pairs of quantiles in [0, 1), shuffled.

    Each coordinate takes one value from each of n equal strata, and the
    two are paired by a fixed permutation rather than at random, so every
    seed gets the same mix of (size, largest-prime share) and hence of
    trial-division costs.
    """
    step = next(a for a in range(round(0.618 * n), n + 1) if math.gcd(a, n) == 1)
    out = [((i + rng.random()) / n, ((i * step) % n + rng.random()) / n) for i in range(n)]
    rng.shuffle(out)
    return out


def _random_prime(rng, bits: int) -> int:
    """A random prime with exactly `bits` bits (bits >= 2)."""
    while True:
        n = _next_prime(rng.randrange(1 << (bits - 1), 1 << bits))
        if n < 1 << bits:
            return n


def _next_prime(n: int) -> int:
    while not oracle.is_prime(n):
        n += 1
    return n


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _generator(rng, bits: float, share: float) -> dict:
    """Factors of a number near 2^bits whose largest prime is near 2^(share*bits).

    Trial division costs about the square root of the number to list its
    divisors and of its largest prime to factor it, so these two sizes
    fix the cost of every query on the number.
    """
    smooth_target = 2 ** (bits * (1 - share))
    fac: dict = {}
    smooth = 1
    while True:
        q = rng.choice(SMALL_PRIMES)
        if smooth * q > smooth_target:
            break
        fac[q] = fac.get(q, 0) + 1
        smooth *= q
    while smooth * 2 <= smooth_target:
        fac[2] = fac.get(2, 0) + 1
        smooth *= 2
    large = _next_prime(max(2, -(-int(2**bits) // smooth)))
    fac[large] = fac.get(large, 0) + 1
    return fac


class _Spec:
    """A generated spectrum: generator factorizations plus cached sizes."""

    def __init__(self, facs):
        self.facs = facs
        self.values = [oracle.value(f) for f in facs]
        top = max(range(len(facs)), key=lambda i: self.values[i])
        self.top = math.log2(self.values[top])  # sets the cost of listing members
        self.prime = math.log2(max(facs[top]))  # sets the cost of factoring
        self._cocliques = None

    @property
    def cocliques(self):
        if self._cocliques is None:
            self._cocliques = oracle.max_cocliques(*oracle.prime_graph(self.facs))
        return self._cocliques


def _spectrum(rng, top_bits: float, share: float) -> _Spec:
    """2 to 6 generators; the largest, near 2^top_bits, sets the cost."""
    gens = [_generator(rng, top_bits, share)]
    smaller = max(MIN_BITS, top_bits - 10)
    for _ in range(rng.randint(1, 5)):
        gens.append(_generator(rng, rng.uniform(MIN_BITS, smaller), rng.uniform(0.5, 1)))
    return _Spec(gens)


def _small_factors(n: int) -> dict:
    fac: dict = {}
    for q in oracle.small_prime_factors(n):
        while n % q == 0:
            fac[q] = fac.get(q, 0) + 1
            n //= q
    return fac


class Spectra:
    name = "spectra"

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        kinds = [kind for kind, count in SPECTRA_MIX for _ in range(count)]
        rng.shuffle(kinds)
        self._rng = rng
        # sizes are stratified per draw key, so that every seed puts the same
        # spread of trial-division costs on each kind; a product draws its
        # second operand under the key "<kind>.b"
        draws = [(k, n) for k, n in SPECTRA_MIX] + [
            (k + ".b", n) for k, n in SPECTRA_MIX if k.startswith("product")
        ]
        self._strata = {key: _strata(rng, n) for key, n in draws}
        # repeats come after the first fifth, once earlier spectra of most
        # sizes exist to repeat
        self._repeat_at = {
            key: set(rng.sample(range(n // 5, n), round(REPEAT_SHARE * n)))
            for key, n in draws
        }
        self._seen = {key: 0 for key, _ in draws}
        self._used: list[_Spec] = []
        self.repeats = 0
        self.ops, self.expected_answers = [], []
        # the paper's spectra, J4 and J4 x J4, open every stream
        j4 = list(J4_GENERATORS)
        j4xj4 = oracle.product(j4, j4)
        for gens in (j4, j4xj4):
            spec = _Spec([_small_factors(n) for n in gens])
            for kind in ("members", "pi", "sigma", "gk", "cocliques_gk"):
                self._add_query(kind, spec)
        self._add(["product", j4, j4], j4xj4)
        self._add(["wreath2", j4], oracle.wreath2(j4))
        vertices = [n for n in range(2, 200) if oracle.is_prime(n)][:GRAPH_VERTICES]
        for kind in kinds:
            if kind == "cocliques":
                density = 0.2 + 0.6 * self._next(kind)[0]
                edges = [
                    [p, q]
                    for i, p in enumerate(vertices)
                    for q in vertices[i + 1:]
                    if rng.random() < density
                ]
                self._add([kind, vertices, edges], oracle.max_cocliques(vertices, edges))
            else:
                self._add_spectrum_query(kind)
        del self._rng, self._strata, self._repeat_at, self._seen, self._used

    def _next(self, key):
        """(size quantile, prime-share quantile, repeat?) for the next draw."""
        i = self._seen[key]
        self._seen[key] += 1
        size, share = self._strata[key][i]
        return size, share, i in self._repeat_at[key]

    def _draw(self, key, max_bits=MAX_BITS, accept=lambda s: True) -> _Spec:
        """A spectrum for the next draw under key, fresh or repeated.

        A repeat takes the earlier spectrum nearest in both sizes to the
        one a fresh draw would have had.
        """
        size, share, repeat = self._next(key)
        top = MIN_BITS + (max_bits - MIN_BITS) * size
        share = 0.5 + 0.5 * share
        if repeat:
            pool = [s for s in self._used if s.top < max_bits and accept(s)]
            if pool:
                self.repeats += 1
                return min(pool, key=lambda s: abs(s.top - top) + abs(s.prime - share * top))
        while True:
            spec = _spectrum(self._rng, top, share)
            if accept(spec):
                self._used.append(spec)
                return spec

    def _add(self, op, answer):
        self.ops.append(op)
        self.expected_answers.append(canon(answer))

    def _add_query(self, kind, spec: _Spec):
        if kind == "gk":
            verts, edges = oracle.prime_graph(spec.facs)
            answer = [verts, [list(e) for e in edges]]
        elif kind == "cocliques_gk":
            answer = spec.cocliques
        else:
            answer = getattr(oracle, kind)(spec.facs)
        self._add([kind, spec.values], answer)

    def _add_spectrum_query(self, kind):
        if kind == "product":
            a = self._draw(kind)
            b = self._draw(kind + ".b", max_bits=min(MAX_BITS, 61 - math.ceil(a.top)))
            self._add([kind, a.values, b.values], oracle.product(a.values, b.values))
        elif kind == "wreath2":
            a = self._draw(kind, max_bits=30).values
            self._add([kind, a], oracle.wreath2(a))
        elif kind.endswith("_overflow"):
            # two coprime generators above 2^32 force an lcm beyond 2^63 - 1
            rng = self._rng
            big = [_random_prime(rng, rng.randint(33, MAX_BITS)) for _ in range(2)]
            while big[0] == big[1]:
                big[1] = _random_prime(rng, MAX_BITS)
            a = self._draw(kind).values
            if kind == "product_overflow":
                op = ["product", a + big[:1], self._draw(kind + ".b").values + big[1:]]
            else:
                op = ["wreath2", a + big]
            self._add(op, {"raise": "OverflowError"})
        elif kind == "cocliques_gk":
            spec = self._draw(kind, accept=lambda s: len(s.cocliques) <= MAX_COCLIQUES)
            self._add_query(kind, spec)
        else:
            self._add_query(kind, self._draw(kind))

    def inputs(self):
        return {"ops": self.ops}

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def expected(self, first_results):
        return self.expected_answers

    def failures(self, round_, expected) -> int:
        return _count_mismatches(round_.results, expected, self.op_count)


WORKLOADS = {w.name: w for w in (Verify, Semidirect, Spectra)}
