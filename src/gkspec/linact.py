"""Semilinear actions on the additive group of a finite field.

Every action in scope has the shape x -> u * x^(p^e) for a nonzero field
element u and a Galois exponent e; that family is closed under composition
and inversion, so actions are kept in this normal form.  LinearAction.matrix
and minimal_polynomial realize an action as a k x k matrix over GF(p) for
callers that want one; nothing else here builds a matrix, and verify's
linear-action checks read every fact off the closure below.

On top of single-field actions sit tuples of them acting componentwise on
a direct sum of field summands, and the exact order formula for elements
(v, h) of the corresponding semidirect product: (v, h)^m = (T_m(v), 1)
for m the order of h and T_m = 1 + h + ... + h^(m-1), so the order is m
when T_m kills v and p*m otherwise.

Every fact about h used here is read off one closure (Lidl and
Niederreiter, Finite Fields, on norms and Hilbert's Theorem 90).  With
g = gcd(e, k) and t = k / g, h^t is multiplication by the norm
c = u * u^(p^g) * ... * u^(p^((t-1)g)) of u down to GF(p^g), and no
smaller positive power of h is a multiplication.  So:

- the order of h is t * ord(c);
- for m a multiple of that order, T_m = (1 + c + ... + c^(m/t - 1)) * T_t,
  and the factor is 0 when c != 1 (as c^(m/t) = 1) and m/t when c = 1;
  so T_m kills v when c != 1, or p divides m/t, or T_t(v) = 0, a sum of
  at most k terms;
- the fixed space of h is x0 * GF(p^g) for some x0 != 0 when c = 1
  (Hilbert 90), of dimension g over GF(p), and 0 otherwise;
- h^j has closure c^(j / gcd(j, t)), so a componentwise action of order n
  is fixed-point-free (no nontrivial power fixes a nonzero vector) exactly
  when every component has order n and, for each component, every prime
  of its t divides ord(c).

The part of this that depends on h alone is an acting element's plan
(_order_plan): its order m and the components whose T_t must still be
evaluated (c = 1 and p not dividing m/t).  T_m is the zero map exactly
when no component is pending.  For a pending one T_m = (m/t) * T_t with
m/t a unit mod p, and T_t is never zero: its t terms h^i = u_i * x^(p^(ie)),
i < t, carry t distinct field automorphisms, so by Artin's independence of
characters (Lang, Algebra, VI 4) no sum of them with nonzero u_i vanishes.
So a semidirect spectrum is read off the plans alone, and a single element
order evaluates the pending T_t on its one vector, a sum of at most k terms.

A LinearAction is its own one-component element (components == (self,)).
It and an ActionGroupElement each compute the plan once, on first use, and
keep it outside the dataclass fields: equality, hashing and repr never see
it, and threads racing to fill it store the same value.  The plan is a
pure function of the element, so everything here stays immutable in value
and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter, mul

from .gf import FieldElement, FiniteField, element_order
from .orderset import OrderSet, _is_prime, prime_divisors

# The most acting elements semidirect_spectrum enumerates.
ENUMERATION_LIMIT = 10**5


@dataclass(frozen=True)
class GFMatrix:
    """Dense matrix over GF(p), rows of residues."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    def matvec(self, v) -> list[int]:
        p = self.p
        return [sum(map(mul, r, v)) % p for r in self.rows]


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

    @property
    def components(self) -> tuple["LinearAction"]:
        return (self,)

    @cached_property
    def _plan(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        return _order_plan(self.components)

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
        """The k x k matrix over GF(p): column j is the image of x^j."""
        cols = [self.apply(b).coeffs for b in self.field.basis()]
        return GFMatrix(self.field.p, tuple(zip(*cols)))


def _closure(h: LinearAction) -> tuple[int, FieldElement]:
    """(t, c) with t = k / gcd(e, k) and h^t multiplication by c.

    c is the norm u * u^(p^g) * ... * u^(p^((t-1)g)), g = gcd(e, k); see
    the module docstring.  A multiplication (t = 1) costs nothing.
    """
    f = h.field
    g = gcd(h.galois_exp, f.k)
    c = conjugate = h.mult
    for _ in range(f.k // g - 1):
        conjugate = f.frobenius(conjugate, g)
        c = c * conjugate
    return f.k // g, c


def action_order(h: LinearAction) -> int:
    """Least m >= 1 with h^m the identity: t * ord(c) for the closure (t, c)."""
    t, c = _closure(h)
    return t * element_order(c)


def fixed_space_dim(h: LinearAction) -> int:
    """GF(p)-dimension of the fixed space of h: gcd(e, k) when the closure
    c is 1, else 0 (module docstring)."""
    t, c = _closure(h)
    return h.field.k // t if c.is_one else 0


def minimal_polynomial(m: GFMatrix) -> tuple[int, ...]:
    """Monic minimal polynomial of a matrix A over GF(p), ascending coefficients.

    The minimal polynomial is the lcm of the annihilators of the basis
    vectors, built up one vector at a time without a gcd: for P monic,
    lcm(P, ann(v)) = P * ann(P(A) v).  So P starts at 1 and, for each basis
    vector v, P(A) v is computed by Horner and its annihilator Q by row
    reduction of its Krylov iterates until a dependency appears; then P
    becomes P * Q.  P divides the minimal polynomial, whose degree is at
    most k, so the scan stops as soon as P reaches degree k.
    """
    p = m.p
    k = len(m.rows)
    minpoly: list[int] = [1]
    for j0 in range(k):
        if len(minpoly) > k:
            break
        v = [1 if i == j0 else 0 for i in range(k)]
        w = v  # P(A) v by Horner; P is monic
        for c in reversed(minpoly[:-1]):
            w = [(x + c * y) % p for x, y in zip(m.matvec(w), v)]
        rows: list[tuple[int, list[int], list[int]]] = []  # (lead, echelon vector, combo)
        deg = 0
        while True:
            r = w  # A^deg P(A) v, reduced against the earlier iterates
            combo = [0] * (k + 1)
            combo[deg] = 1
            for lead, rv, rc in rows:
                c = r[lead]
                if c:
                    r = [(x - c * y) % p for x, y in zip(r, rv)]
                    combo = [(x - c * y) % p for x, y in zip(combo, rc)]
            if not any(r):
                # monic already: combo[deg] = 1, and every echelon row is of lower degree
                break
            lead = next(i for i, x in enumerate(r) if x)
            c = pow(r[lead], p - 2, p)
            rows.append((lead, [x * c % p for x in r], [x * c % p for x in combo]))
            w = m.matvec(w)
            deg += 1
        product = [0] * (len(minpoly) + deg)
        for i, a in enumerate(minpoly):
            for j, b in enumerate(combo[: deg + 1]):
                product[i + j] = (product[i + j] + a * b) % p
        minpoly = product
    return tuple(minpoly)


def minpoly_equals_xs_minus_1(h: LinearAction, s: int) -> bool:
    """Whether the minimal polynomial of h is exactly x^s - 1.

    Requires s prime and the order of h equal to s.  The answer is read off
    the closure (t, c): s = t * ord(c) is prime, so either t = s and c = 1,
    or t = 1.  When t = s, h^s is the identity while 1, h, ..., h^(s-1)
    carry s distinct field automorphisms, so by Artin's independence of
    characters no polynomial of degree below s kills h: the minimal
    polynomial is x^s - 1.  When t = 1, h is multiplication by c, whose
    minimal polynomial is the irreducible one of c over GF(p), never x^s - 1
    (that has the factor x - 1 and degree s >= 2).
    """
    if not _is_prime(s):
        raise ValueError("s must be prime")
    if action_order(h) != s:
        raise ValueError("action order must equal s")
    return _closure(h)[0] == s


def _t_sum_on(h: LinearAction, m: int, v: FieldElement) -> FieldElement:
    """T_m applied to a single vector, by its defining sum (m >= 1)."""
    acc = v
    for _ in range(m - 1):
        v = h.apply(v)
        acc = acc + v
    return acc


def _order_plan(components) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(m, pending): the order m of a componentwise action, the lcm of the
    t_j * ord(c_j), and the pairs (j, t_j) with c_j = 1 and p not dividing
    m / t_j.  T_m kills summand j unless j is pending, and then it kills v
    exactly when T_(t_j)(v) = 0 (module docstring)."""
    closures = [_closure(c) for c in components]
    m = lcm(*(t * element_order(c) for t, c in closures))
    p = components[0].field.p
    return m, tuple(
        (j, t) for j, (t, c) in enumerate(closures) if c.is_one and (m // t) % p
    )


@dataclass(frozen=True)
class ActionGroupElement:
    """Componentwise action on a direct sum of field summands.

    Every summand must share the characteristic; the element's order is the
    lcm of the component orders.  The order and the T-sum plan (_plan) are
    kept as for a LinearAction (module docstring).
    """

    components: tuple[LinearAction, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("at least one component is required")
        chars = {c.field.p for c in self.components}
        if len(chars) != 1:
            raise ValueError("summands must share the characteristic")

    @property
    def is_identity(self) -> bool:
        return all(c.is_identity for c in self.components)

    @cached_property
    def _plan(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        return _order_plan(self.components)

    def order(self) -> int:
        return self._plan[0]


_field_of = attrgetter("field")


def _plan_on(h, summands) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The plan of an acting element h whose components act on summands."""
    if tuple(map(_field_of, h.components)) != tuple(summands):
        raise ValueError("acting element does not match the summands")
    return h._plan


def semidirect_element_order(v, h) -> int:
    """Order of the pair (v, h) in (sum of summands) x| (acting group).

    With m the order of h, (v, h)^m = (T_m(v), 1); the pair has order m
    when T_m(v) = 0 and p*m otherwise, p the common characteristic.  A
    pending component with t = 1 has T_t the identity, so its vector is
    tested as it is.
    """
    vv = v if isinstance(v, tuple) else (v,)
    m, pending = _plan_on(h, tuple(map(_field_of, vv)))
    for j, t in pending:
        x = vv[j] if t == 1 else _t_sum_on(h.components[j], t, vv[j])
        if x.value:
            return vv[0].field.p * m
    return m


def semidirect_spectrum(summands, elements) -> OrderSet:
    """Exact element-order spectrum of V x| H.

    summands lists the field summands of V and elements every member of the
    (abelian) acting group H, as ActionGroupElement or LinearAction values;
    V must be nonzero.  The spectrum is the closure of {1, p}, p the
    characteristic, with every acting order m, or p*m for each h whose T_m
    is not the zero map, that is each h whose plan has a pending pair
    (module docstring); no T-sum is evaluated.
    """
    summands = tuple(summands)
    if not summands:
        raise ValueError("at least one summand is required")
    elements = list(elements)
    if len(elements) > ENUMERATION_LIMIT:
        raise ValueError("acting group too large to enumerate")
    p = summands[0].p
    if any(f.p != p for f in summands):
        raise ValueError("summands must share the characteristic")
    gens = {1, p}
    for h in elements:
        m, pending = _plan_on(h, summands)
        gens.add(p * m if pending else m)
    return OrderSet.from_generators(gens)


def is_fixed_point_free(h) -> bool:
    """Whether every nontrivial power of h fixes only zero.

    This is the defining property of the acting side of a Frobenius
    configuration.  It is read off the closures (t, c) of the components
    (module docstring): every component must have the order n of h, and
    every prime of each t must divide the order of its c.  The cost does
    not grow with n.
    """
    if h.is_identity:
        raise ValueError("the identity has the whole space as fixed points")
    orders = [(t, element_order(c)) for t, c in map(_closure, h.components)]
    n = lcm(*(t * d for t, d in orders))
    return all(
        t * d == n and all(d % r == 0 for r in prime_divisors(t)) for t, d in orders
    )


def frobenius_arith_check(kernel_order: int, complement_order: int) -> bool:
    """Whether the complement order divides kernel order minus one."""
    if kernel_order < 1 or complement_order < 1:
        raise ValueError("orders must be positive")
    return (kernel_order - 1) % complement_order == 0
