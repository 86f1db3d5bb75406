"""Exact finite-field arithmetic GF(p^k) in polynomial basis.

A field is a prime p, a degree k and a monic irreducible modulus of degree
k over GF(p); elements are coefficient tuples of length k (ascending
degree).  The modulus is chosen deterministically: the lexicographically
smallest irreducible on the coefficient vector (c0, c1, ..., c_{k-1}, 1),
so repeated construction always yields the same field.  Nothing downstream
depends on the particular modulus, only on the isomorphism type.

Coefficients are Python integers, so arithmetic is exact for every p;
multiplication and powering are gkspec._poly.mulmod and powmod.  Fields
and elements are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _poly
from .orderset import INT64_MAX, factorize, _is_prime


@dataclass(frozen=True)
class FiniteField:
    p: int
    k: int
    modulus: tuple[int, ...]  # length k+1, ascending, monic

    @property
    def order(self) -> int:
        return self.p**self.k

    # -- element constructors -------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(c)}")
        return FieldElement(self, c)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def scalar(self, n: int) -> "FieldElement":
        """The prime-subfield element n * 1."""
        return FieldElement(self, (n % self.p,) + (0,) * (self.k - 1))

    def element_at(self, n: int) -> "FieldElement":
        """n-th element in lexicographic coefficient order (0 <= n < order)."""
        if not 0 <= n < self.order:
            raise ValueError("index out of range")
        coeffs = [0] * self.k
        for i in range(self.k - 1, -1, -1):
            coeffs[i] = n % self.p
            n //= self.p
        return FieldElement(self, tuple(coeffs))

    def basis(self):
        """The polynomial basis 1, x, ..., x^(k-1)."""
        for j in range(self.k):
            yield FieldElement(self, tuple(1 if i == j else 0 for i in range(self.k)))

    def frobenius(self, x: "FieldElement", times: int = 1) -> "FieldElement":
        """x raised to the p^times power (a GF(p)-linear field automorphism)."""
        out = x
        for _ in range(times % self.k if self.k > 1 else 0):
            out = out ** self.p
        return out

    def parse_element(self, text: str) -> "FieldElement":
        """Inverse of FieldElement.serialize."""
        try:
            head, _, body = text.partition(":")
            p_s, k_s = head.split(",")
            if int(p_s) != self.p or int(k_s) != self.k:
                raise ValueError
            coeffs = [int(t) for t in body.strip("[]").split(",")]
        except ValueError as exc:
            raise ValueError(f"bad element text {text!r} for {self}") from exc
        return self.element(coeffs)

    def __str__(self) -> str:
        return f"GF({self.p}^{self.k})/modulus=[{','.join(map(str, self.modulus))}]"


@dataclass(frozen=True)
class FieldElement:
    field: FiniteField
    coeffs: tuple[int, ...]

    def _check_same(self, other: "FieldElement"):
        if self.field != other.field:
            raise ValueError("elements belong to different fields")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        f = self.field
        return FieldElement(f, _poly.mulmod(self.coeffs, other.coeffs, f.modulus, f.p))

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(f, _poly.powmod(self.coeffs, e, f.modulus, f.p))

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        f = self.field
        inv = _poly.invmod(list(self.coeffs), list(f.modulus), f.p)
        return FieldElement(f, tuple(inv))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def serialize(self) -> str:
        """Text form p,k:[c0,c1,...,c_{k-1}]."""
        f = self.field
        return f"{f.p},{f.k}:[{','.join(map(str, self.coeffs))}]"

    def __str__(self) -> str:
        return self.serialize()


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """GF(p^k) with the deterministic smallest irreducible modulus.

    Requires p prime, k >= 1 and p^k within the 64-bit range.  The search
    walks monic degree-k polynomials in lexicographic coefficient order and
    keeps the first irreducible one (for k = 1 this is the polynomial x).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p**k > INT64_MAX:
        raise OverflowError("field size exceeds the 64-bit range")
    if k == 1:
        return FiniteField(p, 1, (0, 1))
    # a zero constant term means a root at zero, so lex order effectively
    # starts at the first candidate with c0 = 1
    for n in range(p ** (k - 1), p**k):
        coeffs = [0] * k
        m = n
        for i in range(k - 1, -1, -1):
            coeffs[i] = m % p
            m //= p
        candidate = coeffs + [1]
        if _poly.is_irreducible(candidate, p):
            return FiniteField(p, k, tuple(candidate))
    raise RuntimeError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=8192)
def element_order(x: FieldElement) -> int:
    """Multiplicative order of a nonzero element.

    Computed by factoring q-1 and descending through its prime divisors,
    so the result is exact: x^m = 1 and x^(m/r) != 1 for every prime r | m.
    """
    if x.is_zero:
        raise ValueError("zero has no multiplicative order")
    f = x.field
    m = f.order - 1
    if m == 0:
        return 1
    one = f.one
    for r in factorize(m).primes:
        while m % r == 0 and x ** (m // r) == one:
            m //= r
    return m


def subgroup_generator(field: FiniteField, m: int) -> FieldElement:
    """An element of exact multiplicative order m, chosen deterministically.

    m must divide q-1.  Candidates g run through the field in lexicographic
    coefficient order; the first g whose power g^((q-1)/m) has exact order m
    is used, so repeated calls always return the same element.
    """
    q1 = field.order - 1
    if m < 1 or q1 % m != 0:
        raise ValueError(f"{m} does not divide {field.order}-1")
    if m == 1:
        return field.one
    cofactor = q1 // m
    for n in range(1, field.order):
        g = field.element_at(n)
        h = g**cofactor
        if not h.is_zero and element_order(h) == m:
            return h
    raise RuntimeError("no element of the requested order")  # unreachable
