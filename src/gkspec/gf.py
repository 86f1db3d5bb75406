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
slots brings each back into [0, p).  That pass reduces every slot at once
(FiniteField._fold): a mask for p = 2, and otherwise a quotient by p per
slot from one multiply and one shift, in three groups of lanes spaced far
enough apart that no two products meet.  A sum needs only a slot-parallel
conditional subtraction of p (FiniteField._sub_p).  The ints are
unbounded, so arithmetic is exact for every p.

Each field computes two tables once, when it is built: the k-1 packed
reductions x^(k+i) mod f and the k packed Frobenius images x^(ip) mod f.
The Frobenius map x -> x^p is GF(p)-linear, so it is the sum of the
images of the element's coefficients followed by one mod-p pass.  The
digit table behind element_at is not a field's: fields with the same p and
slot width share it, and it is built on first use (_digit_chunks).  A
field fixes only the shifts that place the table's chunks, when it is
built.  Fields and elements are immutable and safe to share between
threads; the coefficient tuple of an element is derived on demand
(FieldElement.coeffs).

A multiplicative order (element_order) is found in the element's own
subfield GF(p^d), d the length of its orbit under the Frobenius map, by
prime powers of p^d - 1.  Each cofactor power is a product of the
element's conjugates x^(p^j) raised to the cofactor's base-p digits, with
the squarings shared among them (Straus's simultaneous exponentiation).
The factorization of p^d - 1 and the digit rows of its cofactors are built
once per (p, d), on first use (_order_plan).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .orderset import INT64_MAX, factorize, _is_prime, prime_divisors


@dataclass(frozen=True)
class FiniteField:
    p: int
    k: int
    modulus: tuple[int, ...]  # length k+1, ascending, monic

    def __post_init__(self):
        # The order p^k, kernel constants, tables and the hash: derived from
        # (p, k, modulus), so they take no part in equality or repr.  Every
        # FieldElement hash hashes its field, so the field's hash is computed
        # once.
        p, k = self.p, self.k
        w = (2 * k * (p - 1) ** 2).bit_length()
        mask, low = (1 << w) - 1, (1 << (w * k)) - 1
        ones = low // mask
        c = _chunk_length(p)
        padded = c * -(-k // c)
        lanes = None
        if p != 2 and k != 1:  # see _fold
            s = w + p.bit_length()
            # a full slot in slots 0, 3, 6, ...: the lane group G_0
            g0 = mask * (((1 << (3 * w * -(-k // 3))) - 1) // ((1 << (3 * w)) - 1))
            lanes = (-(-(1 << s) // p), s, g0, (g0 << w) & low, (g0 << (2 * w)) & low)
        constants = {
            "order": p**k,
            "_hash": hash((p, k, self.modulus)),
            "_w": w,
            "_mask": mask,  # one slot
            "_low": low,  # the k slots of a reduced element
            "_ones": ones,  # 1 in every slot
            "_p_ones": p * ones,  # p in every slot
            "_bias": ((1 << (w - 1)) - p) * ones,  # see _sub_p
            "_lanes": lanes,
            # element_at: first chunk's shift, shift per chunk, final shift
            "_chunk_shifts": (w * (padded - c), w * c, w * (padded - k)),
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

    # -- packed kernel ----------------------------------------------------------

    def _pack(self, coeffs) -> int:
        w = self._w
        return sum(c << (w * i) for i, c in enumerate(coeffs))

    def _unpack(self, v: int) -> tuple[int, ...]:
        w, mask = self._w, self._mask
        return tuple((v >> (w * i)) & mask for i in range(self.k))

    def _fold(self, t: int) -> int:
        """Every slot of t reduced mod p at once (the mod-p pass).

        Domain: t has at most k slots, each below 2^w.  For p = 2 a slot's
        residue is its low bit, so the pass is one mask; for k = 1 it is
        t % p.  Otherwise, with l = bit_length(p), s = w + l and
        m = ceil(2^s / p), floor(x * m / 2^s) = floor(x / p) for every
        x < 2^w, as m*p - 2^s < p < 2^l (Granlund and Montgomery, Division
        by invariant integers using multiplication, 1994).  The slots are
        split into three lane groups G_j, the slots i = j mod 3, so lanes of
        a group are 3w >= 2w + l bits apart.  A lane's product x * m is
        floor(x / p) * 2^s plus a remainder below 2^s; shifted right by s,
        the quotient (below 2^w) lands in the lane's own slot and the
        remainder in the two slots below it, outside G_j.  Masking with G_j
        keeps exactly the group's quotients, and t minus p times all the
        quotients borrows from no slot.
        """
        p = self.p
        if p == 2:
            return t & self._ones
        lanes = self._lanes
        if lanes is None:
            return t % p
        m, s, g0, g1, g2 = lanes
        q = (
            ((((t & g0) * m) >> s) & g0)
            | ((((t & g1) * m) >> s) & g1)
            | ((((t & g2) * m) >> s) & g2)
        )
        return t - p * q

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
        prime r dividing k, with x^p computed by the Frobenius tables.

        Once x^(p^k) = x, f is squarefree and each of its irreducible
        factors has a degree dividing k, so this ring GF(p)[x]/(f) is a
        product of fields GF(p^d) (by the CRT), in which a^(p^k - 1) = 1
        holds exactly for the units.  So each gcd is 1 exactly when
        d^(p^k - 1) is 1 for d = x^(p^(k/r)) - x.  That power is the norm
        b * b^p * ... * b^(p^(k-1)) of b = d^(p-1), as
        (p^k - 1) = (p - 1)(1 + p + ... + p^(k-1)): k - 1 Frobenius maps
        and k - 1 products.
        """
        k = self.k
        if k == 1:
            return True
        x = 1 << self._w
        t = x
        for _ in range(k):
            t = self._frobenius(t)
        if t != x:
            return False
        for r in prime_divisors(k):
            t = x
            for _ in range(k // r):
                t = self._frobenius(t)
            b = self._pow(self._sub_p(t + self._p_ones - x), self.p - 1)
            norm = b
            for _ in range(k - 1):
                b = self._frobenius(b)
                norm = self._mul(norm, b)
            if norm != 1:
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
        """n-th element in lexicographic coefficient order (0 <= n < order).

        The base-p digits of n, most significant first, are c_0, ..., c_{k-1}.
        They are read c at a time (see _digit_chunks), least significant
        chunk first, into the top slots of a layout of c * ceil(k/c) slots;
        the slots below the k real ones hold leading zero digits and are
        shifted out at the end.
        """
        if not 0 <= n < self.order:
            raise ValueError("index out of range")
        base, table, _ = _digit_chunks(self.p, self._w)
        shift, step, drop = self._chunk_shifts
        v = 0
        while n:
            n, r = divmod(n, base)
            v |= table[r] << shift
            shift -= step
        return FieldElement(self, v >> drop)

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

    def __str__(self) -> str:
        return f"GF({self.p}^{self.k})/modulus=[{','.join(map(str, self.modulus))}]"


class FieldElement:
    """An element of a field: the field and the packed coefficients (see the
    module docstring).

    Immutable, with the equality, hash and repr a frozen dataclass of the
    two would have.  The constructor stores through the slot descriptors,
    which is cheaper than a frozen dataclass's object.__setattr__.
    """

    __slots__ = ("field", "value")
    field: FiniteField
    value: int

    def __init__(self, field: FiniteField, value: int):
        _set_field(self, field)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return FieldElement, (self.field, self.value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.value) == (other.field, other.value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return f"FieldElement(field={self.field!r}, value={self.value!r})"

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


_set_field = FieldElement.field.__set__
_set_value = FieldElement.value.__set__


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """GF(p^k) with the deterministic smallest irreducible modulus.

    Requires p prime, k >= 1 and p^k within the 64-bit range.  The search
    walks monic degree-k polynomials in lexicographic coefficient order,
    builds each candidate's field and keeps the first one that
    FiniteField._is_irreducible accepts, a test run in the candidate's own
    ring (for k = 1 the modulus is the polynomial x).
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


def _chunk_length(p: int) -> int:
    """c, the base-p digits element_at reads at once: the largest c with
    p^c <= 256, at least 1."""
    c = 1
    while p ** (c + 1) <= 256:
        c += 1
    return c


@lru_cache(maxsize=None)
def _digit_chunks(p: int, w: int) -> tuple[int, range | list[int], int]:
    """(p^c, table, c) for reading c = _chunk_length(p) base-p digits at once.

    table[r] packs the c digits of r into c slots of width w, the most
    significant digit in slot 0.  For c = 1 that is r itself, so the table
    is range(p) and costs nothing however large p is.  Built on the first
    element_at call for a (p, w), never when a field is constructed; the
    field fixes only the slot layout (FiniteField._chunk_shifts).
    """
    c = _chunk_length(p)
    if c == 1:
        return p, range(p), 1
    table = [0]
    for i in range(c):
        table = [t | (d << (w * i)) for t in table for d in range(p)]
    return p**c, table, c


def _digit_rows(p: int, n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(width, rows) for n >= 1: n has width base-p digits n_j
    (n = sum_j n_j p^j), and rows[i] lists the j whose digit has bit b - i
    set, from the top bit b of the largest digit down to bit 0; the
    exponent layout _conjugate_power reads.
    """
    digits = []
    while n:
        n, c = divmod(n, p)
        digits.append(c)
    rows = tuple(
        tuple(j for j, c in enumerate(digits) if c >> b & 1)
        for b in range(max(digits).bit_length() - 1, -1, -1)
    )
    return len(digits), rows


@lru_cache(maxsize=None)
def _order_plan(p: int, d: int) -> tuple[int, tuple[tuple[int, int, int, tuple], ...]]:
    """(reach, entries) for the orders dividing p^d - 1.

    entries holds (r, e, n, rows) for each r^e exactly dividing p^d - 1,
    primes increasing, with the cofactor n = (p^d - 1) / r^e and its digit
    rows (_digit_rows).  reach is the most digits a cofactor has, so the
    conjugates x^(p^j) with j < reach are all the powers need.  The plan
    depends on (p, d) alone, so it and the factorization of p^d - 1 are
    computed on the first element_order call that needs them.
    """
    q1 = p**d - 1
    reach, entries = 1, []
    for r, e in factorize(q1).pairs:
        n = q1 // r**e
        width, rows = _digit_rows(p, n)
        reach = max(reach, width)
        entries.append((r, e, n, rows))
    return reach, tuple(entries)


def _conjugate_power(f: FiniteField, conjugates, rows) -> int:
    """x^n for the packed conjugates x, x^p, x^(p^2), ... of an element x
    and the digit rows of n (see _digit_rows).

    x^n = prod_j (x^(p^j))^(n_j), and Straus's simultaneous exponentiation
    (Addition chains of vectors, 1964) shares the squarings among the
    factors: square once per row after the first and multiply in the
    conjugates the row lists.  That is at most bit_length(p - 1) - 1
    squarings plus one product per set digit bit.
    """
    y = 1
    for row in rows:
        if y != 1:
            y = f._mul(y, y)
        for j in row:
            y = conjugates[j] if y == 1 else f._mul(y, conjugates[j])
    return y


@lru_cache(maxsize=8192)
def element_order(x: FieldElement) -> int:
    """Multiplicative order of a nonzero element.

    First the subfield: x lies in GF(p^d) for d the length of its orbit
    x, x^p, x^(p^2), ... under the Frobenius map, which divides k.  A
    proper divisor of k is at most k/2, so if the orbit has not closed
    after k/2 maps, d = k.  The order of x divides p^d - 1.  Then by prime
    powers (Cohen, A Course in Computational Algebraic Number Theory,
    Algorithm 1.4.3): for each r^e exactly dividing p^d - 1,
    y = x^((p^d - 1) / r^e) has order r^(v_r(ord x)), and while y != 1
    the order gains one r and y becomes y^r.  After e steps y is 1 by
    Lagrange, so that last power is skipped.  Each cofactor power is a
    product of conjugates (_conjugate_power), never a full-length
    square-and-multiply.  For d = 1 the element is a residue mod p and
    every power is pow(v, n, p).  In all: at most k - 1 Frobenius maps,
    and per prime r at most bit_length(p - 1) - 1 squarings, one product
    per set bit of the cofactor's digits and e - 1 powers by r.
    """
    if x.is_zero:
        raise ValueError("zero has no multiplicative order")
    f = x.field
    p, v, d = f.p, x.value, f.k
    conjugates = [v]
    for j in range(1, d // 2 + 1):
        w = f._frobenius(conjugates[-1])
        if w == v:
            d = j
            break
        conjugates.append(w)
    reach, entries = _order_plan(p, d)
    while len(conjugates) < reach:
        conjugates.append(f._frobenius(conjugates[-1]))
    order = 1
    for r, e, n, rows in entries:
        y = pow(v, n, p) if d == 1 else _conjugate_power(f, conjugates, rows)
        while y != 1:
            order *= r
            e -= 1
            if not e:
                break
            y = pow(y, r, p) if d == 1 else f._pow(y, r)
    return order


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
