"""Divisor-closed sets of positive integers (element-order spectra).

An OrderSet represents a set of positive integers that is closed under
taking divisors, stored by its maximal elements: the antichain of members
not dividing any other member.  All queries reduce to divisibility tests
against that antichain, so sets whose full expansion has thousands of
members stay cheap and exact.

Factorization strips the primes below 2^10 by division, tests what is
left with deterministic Miller-Rabin on the first twelve primes as bases
(exact far beyond 2^64; Sorenson and Webster, Math. Comp. 2017) and
splits composites with Pollard rho in Brent's variant (Brent, BIT 1980),
so every value below 2^63 is factored, tested and expanded into divisors
in bounded time.

Values are immutable after construction and safe for concurrent read-only
use.  All arithmetic is exact; any intermediate value that would exceed
the signed 64-bit range raises OverflowError instead of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count
from math import gcd, isqrt

INT64_MAX = 2**63 - 1


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below limit, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return tuple(i for i, flag in enumerate(flags) if flag)


# the 172 primes below 2^10: a number below 2^20 that none of them divides
# is prime
_SMALL_PRIMES = _primes_below(1 << 10)
_SMALL_SQUARE = 1 << 20
_MR_BASES = _SMALL_PRIMES[:12]  # 2, 3, ..., 37


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).pairs:
        divs = [d * p**i for i in range(e + 1) for d in divs]
    return sorted(divs)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes increasing."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.pairs:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    @classmethod
    def _trusted(cls, pairs) -> "Factorization":
        """A Factorization of pairs already known valid, without re-checking.

        For factorize, which has proved every prime it returns."""
        f = object.__new__(cls)
        object.__setattr__(f, "pairs", pairs)
        return f

    def value(self) -> int:
        n = 1
        for p, e in self.pairs:
            n *= p**e
        return n

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def exponent(self, p: int) -> int:
        for q, e in self.pairs:
            if q == p:
                return e
        return 0

    def __str__(self) -> str:
        return " ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.pairs) or "1"


def _is_prime(n: int) -> bool:
    """Primality by the small-prime table below 2^20, by Miller-Rabin above."""
    if n < _SMALL_SQUARE:
        if n < 2:
            return False
        for p in _SMALL_PRIMES:
            if p * p > n:
                return True
            if n % p == 0:
                return False
        return True
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's Pollard rho.

    The walk x -> x^2 + c mod n takes c = 1, 2, ... in turn until one
    splits n, so the result is deterministic.  Differences are multiplied
    together and tested with one gcd per batch of 128 steps.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Exact factorization; n must be in [1, 2^63).

    The primes below 2^10 are divided out, a cofactor below 2^20 is then
    prime, and a larger one is split by Pollard rho until Miller-Rabin
    passes every part, so the time is bounded for every n in range.  Each
    prime is tested once: the result skips the Factorization prime check.
    """
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    if n > INT64_MAX:
        raise OverflowError("input exceeds the 64-bit range")
    exps: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            exps[p] = e
    if n >= _SMALL_SQUARE:
        stack = [n]
        while stack:
            m = stack.pop()
            if _is_prime(m):
                exps[m] = exps.get(m, 0) + 1
            else:
                d = _rho_factor(m)
                stack += (d, m // d)
    elif n > 1:
        exps[n] = 1
    return Factorization._trusted(tuple(sorted(exps.items())))


def prime_divisors(n: int) -> tuple[int, ...]:
    """The set of primes dividing n, increasing."""
    return factorize(n).primes


@dataclass(frozen=True)
class OrderSet:
    """A divisor-closed set stored by its maximal-element antichain.

    The represented set is {d >= 1 : d divides some maximal element}; it
    always contains 1.  The antichain must be sorted strictly increasing
    with no element dividing another.
    """

    maximal_elements: tuple[int, ...]

    def __post_init__(self):
        elems = self.maximal_elements
        if not elems:
            raise ValueError("an OrderSet needs at least one element")
        last = 0
        for m in elems:
            if m < 1:
                raise ValueError("elements must be positive")
            if m <= last:
                raise ValueError("maximal elements must be strictly increasing")
            if m > INT64_MAX:
                raise OverflowError("element exceeds the 64-bit range")
            last = m
        for a in elems:
            for b in elems:
                if a != b and b % a == 0:
                    raise ValueError(f"{a} divides {b}: not an antichain")

    @classmethod
    def from_generators(cls, gens) -> "OrderSet":
        """The divisor closure of the given integers.

        Duplicates and elements dividing another generator are dropped, so
        the stored antichain is canonical regardless of input order.
        """
        gens = list(gens)
        if not gens:
            raise ValueError("at least one generator is required")
        for g in gens:
            if g < 1:
                raise ValueError("generators must be positive")
            if g > INT64_MAX:
                raise OverflowError("generator exceeds the 64-bit range")
        uniq = sorted(set(gens))
        keep = [g for g in uniq if not any(h != g and h % g == 0 for h in uniq)]
        return cls(tuple(keep))

    def contains(self, n: int) -> bool:
        """True iff n divides some maximal element."""
        if n < 1:
            raise ValueError("membership is defined for positive integers")
        return any(m % n == 0 for m in self.maximal_elements)

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def members(self) -> list[int]:
        """The full represented set, sorted.  Cost grows with the expansion."""
        out: set[int] = set()
        for m in self.maximal_elements:
            out.update(_divisors(m))
        return sorted(out)

    def member_count(self) -> int:
        return len(self.members())

    def pi(self) -> tuple[int, ...]:
        """Union of prime divisors of all members, increasing."""
        out: set[int] = set()
        for m in self.maximal_elements:
            out.update(prime_divisors(m))
        return tuple(sorted(out))

    def sigma(self) -> int:
        """Largest number of distinct primes dividing a single member."""
        return max(len(prime_divisors(m)) for m in self.maximal_elements)

    def restricted_sigma(self, primes) -> int:
        """Largest |pi(x) & primes| over members x.

        Attained on maximal elements, since pi of a divisor is a subset of
        pi of the element it divides.
        """
        pset = set(primes)
        return max(len(set(prime_divisors(m)) & pset) for m in self.maximal_elements)

    def issubset(self, other: "OrderSet") -> bool:
        return all(other.contains(m) for m in self.maximal_elements)

    def serialize(self) -> str:
        """Comma-separated maximal elements in increasing order."""
        return ",".join(str(m) for m in self.maximal_elements)

    @classmethod
    def parse(cls, text: str) -> "OrderSet":
        try:
            gens = [int(part) for part in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad order-set text {text!r}") from exc
        return cls.from_generators(gens)

    def __str__(self) -> str:
        return "{" + self.serialize() + "}"


def _lcm_checked(a: int, b: int) -> int:
    v = a // gcd(a, b) * b
    if v > INT64_MAX:
        raise OverflowError(f"lcm({a},{b}) exceeds the 64-bit range")
    return v


def product_spectrum(a: OrderSet, b: OrderSet) -> OrderSet:
    """Spectrum of a direct product: divisor closure of pairwise lcms.

    Commutative; product with the trivial set {1} is the identity.
    """
    lcms = {_lcm_checked(x, y) for x in a.maximal_elements for y in b.maximal_elements}
    return OrderSet.from_generators(lcms)


def wreath2_spectrum(a: OrderSet) -> OrderSet:
    """Spectrum of the wreath product by a swapping pair of copies.

    Elements preserving the two coordinates contribute product_spectrum(a, a);
    a coordinate-swapping element (g,h)t squares to (gh, hg), so its order
    is exactly 2|gh| with gh ranging over everything, contributing the
    closure of {2m : m maximal in a}.
    """
    gens = set(product_spectrum(a, a).maximal_elements)
    gens.update(2 * m for m in a.maximal_elements)
    return OrderSet.from_generators(gens)


# Generators of the element-order spectrum of the largest Janko group, and
# its order; both are standard ATLAS data used across the toolkit.
J4_SPECTRUM_GENERATORS = (16, 23, 24, 28, 29, 30, 31, 35, 37, 40, 42, 43, 44, 66)

J4_ORDER = Factorization(
    ((2, 21), (3, 3), (5, 1), (7, 1), (11, 3), (23, 1), (29, 1), (31, 1), (37, 1), (43, 1))
)


@cache
def j4_spectrum() -> OrderSet:
    """The element-order spectrum of J4."""
    return OrderSet.from_generators(J4_SPECTRUM_GENERATORS)


@cache
def j4xj4_spectrum() -> OrderSet:
    """The element-order spectrum of J4 x J4 (lcm closure of the above)."""
    s = j4_spectrum()
    return product_spectrum(s, s)
