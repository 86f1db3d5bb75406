"""Exact finite-field arithmetic GF(p^k) in polynomial basis.

A field is a prime p, a degree k and a monic irreducible modulus of degree
k over GF(p).  The modulus is chosen deterministically: the
lexicographically smallest irreducible on the coefficient vector
(c0, c1, ..., c_{k-1}, 1), so repeated construction always yields the same
field.  Nothing downstream depends on the particular modulus, only on the
isomorphism type.

Elements are packed integers (Kronecker substitution, von zur Gathen and
Gerhard, Modern Computer Algebra, section 8.4): coefficient c_i of x^i, a
residue in [0, p), sits in bits [i*w, (i+1)*w) of one Python int, so an
element is the value of its polynomial at x = 2^w.  The slot width is
w = bit_length(2k(p-1)^2), which leaves room for every intermediate sum:

- a product of two elements is one big-int product; each of its 2k-1
  slots holds at most k(p-1)^2;
- reduction adds (h_i mod p) * (x^(k+i) mod f) for the k-1 high slots h_i,
  which adds at most (k-1)(p-1)^2 to each low slot;
- a Frobenius image sum_i c_i * (x^(ip) mod f) holds at most k(p-1)^2
  per slot;
- a sum or difference holds at most 2p-1 per slot.

Nothing carries from one slot into the next, and one mod-p pass over the
slots brings each back into [0, p); a sum needs only a slot-parallel
conditional subtraction of p (FiniteField._sub_p).  The ints are
unbounded, so arithmetic is exact for every p.

Each field computes two tables once, when it is built: the k-1 packed
reductions x^(k+i) mod f and the k packed Frobenius images x^(ip) mod f.
The Frobenius map x -> x^p is GF(p)-linear, so it is the sum of the
images of the element's coefficients followed by one mod-p pass.  Fields
and elements are immutable and safe to share between threads; the
coefficient tuple of an element is derived on demand (FieldElement.coeffs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _poly
from .orderset import INT64_MAX, factorize, _is_prime, prime_divisors


@dataclass(frozen=True)
class FiniteField:
    p: int
    k: int
    modulus: tuple[int, ...]  # length k+1, ascending, monic

    def __post_init__(self):
        # Kernel constants, tables and the hash: derived from (p, k, modulus),
        # so they take no part in equality or repr.  Every FieldElement hash
        # hashes its field, so the field's hash is computed once.
        p, k = self.p, self.k
        w = (2 * k * (p - 1) ** 2).bit_length()
        ones = sum(1 << (w * i) for i in range(k))
        constants = {
            "_hash": hash((p, k, self.modulus)),
            "_w": w,
            "_mask": (1 << w) - 1,  # one slot
            "_low": (1 << (w * k)) - 1,  # the k slots of a reduced element
            "_ones": ones,  # 1 in every slot
            "_p_ones": p * ones,  # p in every slot
            "_bias": ((1 << (w - 1)) - p) * ones,  # see _sub_p
            "_reductions": (),
            "_frobenius_images": (1,),
        }
        for name, value in constants.items():
            object.__setattr__(self, name, value)
        if k == 1:
            return
        # x^k = -(c_0 + ... + c_{k-1} x^(k-1)); x^(k+i+1) = x * x^(k+i)
        r = self._pack((-c) % p for c in self.modulus[:k])
        reductions = [r]
        for _ in range(k - 2):
            r <<= w
            r = self._fold((r & self._low) + (r >> (w * k)) * reductions[0])
            reductions.append(r)
        object.__setattr__(self, "_reductions", tuple(reductions))
        xp = self._pow(1 << w, p)
        images = [1, xp]
        for _ in range(k - 2):
            images.append(self._mul(images[-1], xp))
        object.__setattr__(self, "_frobenius_images", tuple(images))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return self.p**self.k

    # -- packed kernel ----------------------------------------------------------

    def _pack(self, coeffs) -> int:
        w = self._w
        return sum(c << (w * i) for i, c in enumerate(coeffs))

    def _unpack(self, v: int) -> tuple[int, ...]:
        w, mask = self._w, self._mask
        return tuple((v >> (w * i)) & mask for i in range(self.k))

    def _fold(self, t: int) -> int:
        """Every slot of t reduced mod p (the mod-p pass)."""
        p, w, mask = self.p, self._w, self._mask
        out = 0
        shift = 0
        while t:
            out |= ((t & mask) % p) << shift
            t >>= w
            shift += w
        return out

    def _sub_p(self, t: int) -> int:
        """t with p subtracted from every slot holding p or more.

        Slots must hold at most 2p-1.  Adding 2^(w-1) - p (not negative, by
        the width rule) to a slot sets its top bit exactly when the slot
        holds p or more, and never carries.
        """
        w = self._w
        return t - self.p * (((t + self._bias) >> (w - 1)) & self._ones)

    def _mul(self, a: int, b: int) -> int:
        t = a * b
        hi = t >> (self._w * self.k)
        t &= self._low
        p, w, mask = self.p, self._w, self._mask
        for r in self._reductions:
            if not hi:
                break
            c = (hi & mask) % p
            if c:
                t += c * r
            hi >>= w
        return self._fold(t)

    def _pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul(result, a)
            e >>= 1
            if e:
                a = self._mul(a, a)
        return result

    def _frobenius(self, v: int) -> int:
        """v^p: the GF(p)-linear sum of the images of v's coefficients."""
        w, mask = self._w, self._mask
        acc = 0
        for image in self._frobenius_images:
            if not v:
                break
            c = v & mask
            if c:
                acc += c * image
            v >>= w
        return self._fold(acc)

    def _is_irreducible(self) -> bool:
        """Rabin's test: x^(p^k) = x and gcd(x^(p^(k/r)) - x, f) = 1 for each
        prime r dividing k, with x^p computed by the Frobenius tables."""
        if self.k == 1:
            return True
        x = 1 << self._w
        t = x
        for _ in range(self.k):
            t = self._frobenius(t)
        if t != x:
            return False
        for r in prime_divisors(self.k):
            t = x
            for _ in range(self.k // r):
                t = self._frobenius(t)
            diff = FieldElement(self, t) - FieldElement(self, x)
            if len(_poly.gcd(diff.coeffs, self.modulus, self.p)) > 1:
                return False
        return True

    # -- element constructors -------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(c)}")
        return FieldElement(self, self._pack(c))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def scalar(self, n: int) -> "FieldElement":
        """The prime-subfield element n * 1."""
        return FieldElement(self, n % self.p)

    def element_at(self, n: int) -> "FieldElement":
        """n-th element in lexicographic coefficient order (0 <= n < order)."""
        if not 0 <= n < self.order:
            raise ValueError("index out of range")
        v = 0
        for i in range(self.k - 1, -1, -1):
            n, c = divmod(n, self.p)
            v |= c << (self._w * i)
        return FieldElement(self, v)

    def basis(self):
        """The polynomial basis 1, x, ..., x^(k-1)."""
        for j in range(self.k):
            yield FieldElement(self, 1 << (self._w * j))

    def frobenius(self, x: "FieldElement", times: int = 1) -> "FieldElement":
        """x raised to the p^times power (a GF(p)-linear field automorphism)."""
        if x.field is not self and x.field != self:
            raise ValueError("element belongs to a different field")
        v = x.value
        for _ in range(times % self.k):
            v = self._frobenius(v)
        return FieldElement(self, v)

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
    value: int  # packed coefficients, see the module docstring

    def _check_same(self, other: "FieldElement"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("elements belong to different fields")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients c_0, ..., c_{k-1} in the polynomial basis."""
        return self.field._unpack(self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        f = self.field
        return FieldElement(f, f._sub_p(self.value + other.value))

    def __neg__(self) -> "FieldElement":
        f = self.field
        return FieldElement(f, f._sub_p(f._p_ones - self.value))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        f = self.field
        return FieldElement(f, f._mul(self.value, other.value))

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(f, f._pow(self.value, e))

    def inverse(self) -> "FieldElement":
        """x^(q-2), as x^(q-1) = 1 for nonzero x."""
        if self.is_zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self ** (self.field.order - 2)

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
    walks monic degree-k polynomials in lexicographic coefficient order,
    builds each candidate's field and keeps the first one that its own
    Frobenius map proves irreducible (for k = 1 this is the polynomial x).
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
        candidate = FiniteField(p, k, tuple(coeffs) + (1,))
        if candidate._is_irreducible():
            return candidate
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
