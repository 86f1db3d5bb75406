"""Divisor-closed sets of positive integers (element-order spectra).

An OrderSet represents a set of positive integers that is closed under
taking divisors, stored by its maximal elements: the antichain of members
not dividing any other member.  All queries work on that antichain, so
sets whose full expansion has thousands of members stay cheap and exact.
Membership and inclusion are divisibility tests against it; the prime and
member queries (pi, sigma, restricted_sigma, members) read its
factorization, which an OrderSet computes once, on the first such query,
and keeps as derived state that equality, hash and repr never see.  One
factorization thus serves verify's repeated queries on J4's spectrum and
its square, and the CLI's spectrum, product and wreath2, which ask pi,
members and sigma of one set.

Factorization strips the primes below 2^10 by division, tests what is
left with deterministic Miller-Rabin on the first twelve primes as bases
and splits composites with Pollard rho in Floyd's form (Pollard, BIT
1975), so every value below 2^63 is factored, tested and expanded into
divisors in bounded time.  The primality test is exact below the least
composite passing all twelve bases, psi_12 = 318665857834031151167461
(Sorenson and Webster, Math. Comp. 2017), and answers only below 2^63.

Values are immutable after construction and safe for concurrent read-only
use.  All arithmetic is exact; any intermediate value that would exceed
the signed 64-bit range raises OverflowError instead of wrapping.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

from ._record import Record, _set, derived

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
# is prime (factorize's cofactor rule)
_SMALL_PRIMES = _primes_below(1 << 10)
_SMALL_SQUARE = 1 << 20
_MR_BASES = _SMALL_PRIMES[:12]  # 2, 3, ..., 37


def _numeral(token: str) -> int:
    """A numeral's value: ASCII digits, blanks around them allowed (int alone
    also takes a sign, 2_3 as 23 and non-ASCII digits)."""
    digits = token.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad numeral {token!r}")
    return int(digits)


def _divisors(pairs) -> list[int]:
    """The divisors, sorted, of the number with these (prime, exponent) pairs."""
    divs = [1]
    for p, e in pairs:
        divs = [d * p**i for i in range(e + 1) for d in divs]
    return sorted(divs)


class Factorization(Record):
    """Prime factorization as (prime, exponent) pairs, primes increasing."""

    _fields = ("pairs",)

    def _post_init(self):
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
        _set(f, "pairs", pairs)
        return f

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def exponent(self, p: int) -> int:
        for q, e in self.pairs:
            if q == p:
                return e
        return 0


def _is_prime(n: int) -> bool:
    """Exact primality for n <= INT64_MAX: division by the twelve bases, then
    Miller-Rabin on them from 37^2 on; OverflowError above INT64_MAX."""
    if n > INT64_MAX:
        raise OverflowError(f"{n} exceeds the 64-bit range")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 1369:  # 37^2: a composite here has a prime factor below 37
        return n > 1
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
    """A proper factor of the odd composite n, by Pollard rho in Floyd's form.

    Two walks of x -> x^2 + c mod n, the second at twice the pace of the
    first, are compared by one gcd per step.  c takes 1, 2, ... in turn
    until that gcd is a proper factor rather than n itself, so the result
    is deterministic.
    """
    for c in count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
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


class OrderSet(Record):
    """A divisor-closed set stored by its maximal-element antichain.

    The represented set is {d >= 1 : d divides some maximal element}; it
    always contains 1.  The antichain must be the tuple from_generators
    builds from it: sorted strictly increasing, with no element dividing
    another.
    """

    _fields = ("maximal_elements",)

    def _post_init(self):
        antichain = self.maximal_elements
        if antichain != OrderSet.from_generators(antichain).maximal_elements:
            raise ValueError(f"{antichain} is not an antichain in increasing order")

    @classmethod
    def _trusted(cls, maximal_elements) -> "OrderSet":
        """An OrderSet of an antichain already known valid, without re-checking.

        For from_generators, which builds the antichain itself."""
        s = object.__new__(cls)
        _set(s, "maximal_elements", maximal_elements)
        return s

    @classmethod
    def from_generators(cls, gens) -> "OrderSet":
        """The divisor closure of the given integers.

        The distinct generators are swept from largest to smallest, and g is
        kept unless a kept element is a multiple of it.  Testing the kept
        maxima alone is enough: a dropped generator divides a kept one, so
        by transitivity so does each of its divisors.  The antichain is
        canonical regardless of input order, and is stored by the trusted
        constructor without a second antichain check.
        """
        gens = list(gens)
        if not gens:
            raise ValueError("at least one generator is required")
        for g in gens:
            if g < 1:
                raise ValueError("generators must be positive")
            if g > INT64_MAX:
                raise OverflowError("generator exceeds the 64-bit range")
        keep: list[int] = []
        for g in sorted(set(gens), reverse=True):
            for h in keep:
                if h % g == 0:
                    break
            else:
                keep.append(g)
        return cls._trusted(tuple(reversed(keep)))

    def contains(self, n: int) -> bool:
        """True iff n divides some maximal element."""
        if n < 1:
            raise ValueError("membership is defined for positive integers")
        return any(m % n == 0 for m in self.maximal_elements)

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    @derived
    def _factored(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each maximal element's (prime, exponent) pairs, in antichain order."""
        return tuple(factorize(m).pairs for m in self.maximal_elements)

    def members(self) -> list[int]:
        """The full represented set, sorted.  Cost grows with the expansion."""
        out: set[int] = set()
        for pairs in self._factored:
            out.update(_divisors(pairs))
        return sorted(out)

    def pi(self) -> tuple[int, ...]:
        """Union of prime divisors of all members, increasing."""
        return tuple(sorted({p for pairs in self._factored for p, _ in pairs}))

    def sigma(self) -> int:
        """Largest number of distinct primes dividing a single member."""
        return max(map(len, self._factored))

    def restricted_sigma(self, primes) -> int:
        """Largest |pi(x) & primes| over members x.

        Attained on maximal elements, since pi of a divisor is a subset of
        pi of the element it divides.
        """
        pset = set(primes)
        return max(sum(p in pset for p, _ in pairs) for pairs in self._factored)

    def issubset(self, other: "OrderSet") -> bool:
        return all(other.contains(m) for m in self.maximal_elements)

    def serialize(self) -> str:
        """Comma-separated maximal elements in increasing order."""
        return ",".join(str(m) for m in self.maximal_elements)

    @classmethod
    def parse(cls, text: str) -> "OrderSet":
        try:
            gens = [_numeral(part) for part in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad order-set text {text!r}") from exc
        return cls.from_generators(gens)


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
    top = a.maximal_elements[-1]
    if 2 * top > INT64_MAX:
        raise OverflowError(f"2*{top} exceeds the 64-bit range")
    gens.update(2 * m for m in a.maximal_elements)
    return OrderSet.from_generators(gens)

