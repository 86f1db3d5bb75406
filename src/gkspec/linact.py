"""Semilinear actions on the additive group of a finite field.

Every action in scope has the shape x -> u * x^(p^e) for a nonzero field
element u and a Galois exponent e; that family is closed under composition
and inversion, so actions are kept in this normal form and only realized
as k x k matrices over GF(p) when a kernel or minimal-polynomial
computation needs them.

On top of single-field actions sit tuples of them acting componentwise on
a direct sum of field summands, and the exact order formula for elements
(v, h) of the corresponding semidirect product: (v, h)^m = (T_m(v), 1)
for m the order of h and T_m = 1 + h + ... + h^(m-1), so the order is m
when T_m kills v and p*m otherwise.

Whether T_m kills v is read off the order of h, for any multiple m of it.
With t = k / gcd(e, k), h^t is multiplication by some c, and
T_m = (1 + c + ... + c^(m/t - 1)) * T_t.  As c^(m/t) = 1, the factor is 0
when c != 1, which is exactly when the order of h is not t, and (m/t) * 1
when c = 1.  So T_m kills v when the order of h is not t, or p divides
m/t, or T_t(v) = 0, a sum of at most k terms.

Everything here is immutable and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import _poly
from .gf import FieldElement, FiniteField, element_order
from .orderset import OrderSet, _is_prime

_ORDER_SCAN_LIMIT = 10**4


@dataclass(frozen=True)
class GFMatrix:
    """Dense matrix over GF(p), rows of residues.  Printable row-major."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(cls, p: int, k: int) -> "GFMatrix":
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.rows)

    @property
    def is_identity(self) -> bool:
        return self == GFMatrix.identity(self.p, self.size)

    def add(self, other: "GFMatrix") -> "GFMatrix":
        p = self.p
        return GFMatrix(
            p,
            tuple(
                tuple((a + b) % p for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def sub(self, other: "GFMatrix") -> "GFMatrix":
        p = self.p
        return GFMatrix(
            p,
            tuple(
                tuple((a - b) % p for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def mul(self, other: "GFMatrix") -> "GFMatrix":
        p = self.p
        k = self.size
        cols = list(zip(*other.rows))
        return GFMatrix(
            p,
            tuple(
                tuple(sum(r[t] * c[t] for t in range(k)) % p for c in cols)
                for r in self.rows
            ),
        )

    def pow(self, e: int) -> "GFMatrix":
        result = GFMatrix.identity(self.p, self.size)
        base = self
        while e:
            if e & 1:
                result = result.mul(base)
            base = base.mul(base)
            e >>= 1
        return result

    def matvec(self, v) -> list[int]:
        p = self.p
        return [sum(r[j] * v[j] for j in range(self.size)) % p for r in self.rows]

    def rank(self) -> int:
        p = self.p
        m = [list(row) for row in self.rows]
        k = self.size
        r = 0
        for c in range(k):
            pivot = next((i for i in range(r, k) if m[i][c] % p), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = pow(m[r][c], p - 2, p)
            m[r] = [(x * inv) % p for x in m[r]]
            for i in range(k):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [(m[i][j] - f * m[r][j]) % p for j in range(k)]
            r += 1
        return r

    def kernel_dim(self) -> int:
        return self.size - self.rank()

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


@dataclass(frozen=True)
class LinearAction:
    """Invertible GF(p)-linear map x -> mult * x^(p^galois_exp) on GF(p^k)."""

    field: FiniteField
    mult: FieldElement
    galois_exp: int = 0

    def __post_init__(self):
        if self.mult.field != self.field:
            raise ValueError("multiplier must live in the acted-on field")
        if self.mult.is_zero:
            raise ValueError("action must be invertible: zero multiplier")
        if not 0 <= self.galois_exp < self.field.k:
            raise ValueError("Galois exponent out of range")

    @classmethod
    def identity(cls, field: FiniteField) -> "LinearAction":
        return cls(field, field.one, 0)

    @classmethod
    def multiplication(cls, u: FieldElement) -> "LinearAction":
        return cls(u.field, u, 0)

    @classmethod
    def galois(cls, field: FiniteField, e: int = 1) -> "LinearAction":
        return cls(field, field.one, e % field.k)

    @property
    def is_identity(self) -> bool:
        return self.galois_exp == 0 and self.mult == self.field.one

    def apply(self, x: FieldElement) -> FieldElement:
        return self.mult * self.field.frobenius(x, self.galois_exp)

    def compose(self, other: "LinearAction") -> "LinearAction":
        """self after other; the normal form is closed under composition."""
        if self.field != other.field:
            raise ValueError("actions on different fields")
        f = self.field
        u = self.mult * f.frobenius(other.mult, self.galois_exp)
        return LinearAction(f, u, (self.galois_exp + other.galois_exp) % f.k)

    def __mul__(self, other: "LinearAction") -> "LinearAction":
        return self.compose(other)

    def inverse(self) -> "LinearAction":
        f = self.field
        e_inv = (-self.galois_exp) % f.k
        w = f.frobenius(self.mult, e_inv).inverse()
        return LinearAction(f, w, e_inv)

    def power(self, j: int) -> "LinearAction":
        if j < 0:
            return self.inverse().power(-j)
        result = LinearAction.identity(self.field)
        base = self
        while j:
            if j & 1:
                result = result.compose(base)
            base = base.compose(base)
            j >>= 1
        return result

    def matrix(self) -> GFMatrix:
        """The k x k matrix over GF(p) in the polynomial basis."""
        return _basis_matrix(self.field, self.apply)


def _basis_matrix(field: FiniteField, linear_map) -> GFMatrix:
    """Matrix of a GF(p)-linear map on the field: column j is the image of x^j."""
    cols = [linear_map(b).coeffs for b in field.basis()]
    return GFMatrix(field.p, tuple(zip(*cols)))


def action_order(h: LinearAction) -> int:
    """Least m >= 1 with h^m the identity.

    For a pure multiplication this is the multiplicative order of the
    multiplier.  Otherwise the Galois part must first close up (after
    t = k / gcd(e, k) steps), leaving a pure multiplication whose order
    finishes the count.
    """
    if h.galois_exp == 0:
        return element_order(h.mult) if h.mult != h.field.one else 1
    t = h.field.k // gcd(h.galois_exp, h.field.k)
    closed = h.power(t)
    if closed.galois_exp != 0:
        raise AssertionError("Galois part failed to close")
    if closed.mult == h.field.one:
        return t
    return t * element_order(closed.mult)


def fixed_space_dim(h: LinearAction) -> int:
    """GF(p)-dimension of the fixed space of h (kernel of h - identity)."""
    m = h.matrix()
    return m.sub(GFMatrix.identity(m.p, m.size)).kernel_dim()


def minimal_polynomial(m: GFMatrix) -> tuple[int, ...]:
    """Monic minimal polynomial of a matrix over GF(p), ascending coefficients.

    Krylov method: for each basis vector, row-reduce the iterated images
    until a dependency appears, giving that vector's monic annihilator; the
    minimal polynomial is the lcm of the annihilators.  That lcm divides
    the minimal polynomial, whose degree is at most k, so the scan stops
    as soon as the lcm reaches degree k.
    """
    p = m.p
    k = m.size
    minpoly: list[int] = [1]
    for j0 in range(k):
        if len(minpoly) > k:
            break
        v = [1 if i == j0 else 0 for i in range(k)]
        rows: list[tuple[list[int], list[int]]] = []  # (echelon vector, combo)

        def reduce(w, combo):
            w = list(w)
            combo = list(combo)
            for rv, rc in rows:
                lead = next(i for i, x in enumerate(rv) if x)
                if w[lead]:
                    c = w[lead]
                    w = [(w[i] - c * rv[i]) % p for i in range(k)]
                    combo = [(combo[i] - c * rc[i]) % p for i in range(len(combo))]
            return w, combo

        w = v
        deg = 0
        while True:
            combo = [0] * (k + 1)
            combo[deg] = 1
            rw, rcombo = reduce(w, combo)
            if all(x == 0 for x in rw):
                ann = _poly.trim(rcombo)
                inv = pow(ann[-1], p - 2, p)
                ann = [(x * inv) % p for x in ann]
                minpoly = _poly.lcm(minpoly, ann, p)
                break
            lead = next(i for i, x in enumerate(rw) if x)
            c = pow(rw[lead], p - 2, p)
            rows.append(([x * c % p for x in rw], [x * c % p for x in rcombo]))
            w = m.matvec(w)
            deg += 1
    return tuple(minpoly)


def minpoly_equals_xs_minus_1(h: LinearAction, s: int) -> bool:
    """Whether the minimal polynomial of h is exactly x^s - 1.

    Requires s prime and the order of h equal to s.  The minimal polynomial
    always divides x^s - 1 here; equality holds exactly when its degree
    reaches s, which in particular needs s <= k.
    """
    if not _is_prime(s):
        raise ValueError("s must be prime")
    if action_order(h) != s:
        raise ValueError("action order must equal s")
    p = h.field.p
    target = tuple([(-1) % p] + [0] * (s - 1) + [1])
    return minimal_polynomial(h.matrix()) == target


def t_sum_map(h: LinearAction, m: int) -> GFMatrix:
    """Matrix of the truncated sum 1 + h + h^2 + ... + h^(m-1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _basis_matrix(h.field, lambda b: _t_sum_on(h, m, b))


def _t_sum_on(h: LinearAction, m: int, v: FieldElement) -> FieldElement:
    """T_m applied to a single vector, by its defining sum."""
    acc = h.field.zero
    for _ in range(m):
        acc = acc + v
        v = h.apply(v)
    return acc


def _t_sum_kills(h: LinearAction, order: int, m: int, vectors) -> bool:
    """Whether T_m kills every one of the vectors.

    order is action_order(h) and m a multiple of it; the rule is the one in
    the module docstring.
    """
    f = h.field
    t = f.k // gcd(h.galois_exp, f.k)
    if order != t or (m // t) % f.p == 0:
        return True
    return all(_t_sum_on(h, t, v).is_zero for v in vectors)


@dataclass(frozen=True)
class ActionGroupElement:
    """Componentwise action on a direct sum of field summands.

    Every summand must share the characteristic; the element's order is the
    lcm of the component orders.
    """

    components: tuple[LinearAction, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("at least one component is required")
        chars = {c.field.p for c in self.components}
        if len(chars) != 1:
            raise ValueError("summands must share the characteristic")

    @property
    def characteristic(self) -> int:
        return self.components[0].field.p

    @property
    def is_identity(self) -> bool:
        return all(c.is_identity for c in self.components)

    def order(self) -> int:
        return lcm(*(action_order(c) for c in self.components))

    def compose(self, other: "ActionGroupElement") -> "ActionGroupElement":
        return ActionGroupElement(
            tuple(a.compose(b) for a, b in zip(self.components, other.components))
        )

    def apply(self, v: tuple[FieldElement, ...]) -> tuple[FieldElement, ...]:
        return tuple(c.apply(x) for c, x in zip(self.components, v))


def _as_group_element(h) -> ActionGroupElement:
    return h if isinstance(h, ActionGroupElement) else ActionGroupElement((h,))


def _as_vector(v) -> tuple[FieldElement, ...]:
    return v if isinstance(v, tuple) else (v,)


def semidirect_element_order(v, h) -> int:
    """Order of the pair (v, h) in (sum of summands) x| (acting group).

    With m the order of h, (v, h)^m = (T_m(v), 1); the pair has order m
    when T_m(v) = 0 and p*m otherwise, p the common characteristic.
    """
    hh = _as_group_element(h)
    vv = _as_vector(v)
    if len(vv) != len(hh.components):
        raise ValueError("vector and action have different numbers of summands")
    for x, c in zip(vv, hh.components):
        if x.field != c.field:
            raise ValueError("vector summand does not match the acted-on field")
    orders = [action_order(c) for c in hh.components]
    m = lcm(*orders)
    if all(
        _t_sum_kills(c, o, m, (x,)) for c, o, x in zip(hh.components, orders, vv)
    ):
        return m
    return hh.characteristic * m


def semidirect_spectrum(summands, elements) -> OrderSet:
    """Exact element-order spectrum of V x| H.

    summands lists the field summands of V and elements every member of the
    (abelian) acting group H as ActionGroupElement values.  The spectrum is
    {1} with, when V is nonzero, the characteristic p, together with every
    acting order m and p*m for each h whose T-sum is not the zero map.

    With no summands the group is H alone; pass the element orders of H as
    plain integers in that case.
    """
    summands = tuple(summands)
    elements = list(elements)
    if len(elements) > 10**5:
        raise ValueError("acting group too large to enumerate")
    if not summands:
        orders = [int(x) for x in elements]
        return OrderSet.from_generators(orders + [1])
    p = summands[0].p
    if any(f.p != p for f in summands):
        raise ValueError("summands must share the characteristic")
    gens = {1, p}
    for h in elements:
        hh = _as_group_element(h)
        if len(hh.components) != len(summands):
            raise ValueError("acting element does not match the summand list")
        if any(c.field != f for c, f in zip(hh.components, summands)):
            raise ValueError("acting element does not match the summand list")
        orders = [action_order(c) for c in hh.components]
        m = lcm(*orders)
        gens.add(m)
        if not all(
            _t_sum_kills(c, o, m, c.field.basis())
            for c, o in zip(hh.components, orders)
        ):
            gens.add(p * m)
    return OrderSet.from_generators(gens)


def is_fixed_point_free(h) -> bool:
    """Whether every nontrivial power of h fixes only zero.

    This is the defining property of the acting side of a Frobenius
    configuration.  Exhaustive over the order of h, so the order must stay
    within a scan limit.
    """
    hh = _as_group_element(h)
    if hh.is_identity:
        raise ValueError("the identity has the whole space as fixed points")
    n = hh.order()
    if n > _ORDER_SCAN_LIMIT:
        raise ValueError("order too large for the exhaustive fixed-point scan")
    current = hh
    for _ in range(1, n):
        # fixed space of a componentwise action is the sum of the
        # component fixed spaces
        if any(fixed_space_dim(c) > 0 for c in current.components):
            return False
        current = current.compose(hh)
    return True


def frobenius_arith_check(kernel_order: int, complement_order: int) -> bool:
    """Whether the complement order divides kernel order minus one."""
    if kernel_order < 1 or complement_order < 1:
        raise ValueError("orders must be positive")
    return (kernel_order - 1) % complement_order == 0
