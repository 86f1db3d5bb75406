"""Semilinear actions on the additive group of a finite field.

Every action in scope has the shape x -> u * x^(p^e) for a nonzero field
element u and a Galois exponent e; that family is closed under composition
and inversion, so actions are kept in this normal form and only realized
as k x k matrices over GF(p) by minimal_polynomial and t_sum_map, which
back verify's linact.galois and linact.kernel checks.

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

Everything here is immutable and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import _poly
from .gf import FieldElement, FiniteField, element_order
from .orderset import OrderSet, _is_prime, prime_divisors

# The most acting elements semidirect_spectrum enumerates.
ENUMERATION_LIMIT = 10**5


@dataclass(frozen=True)
class GFMatrix:
    """Dense matrix over GF(p), rows of residues."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.rows)

    def matvec(self, v) -> list[int]:
        p = self.p
        return [sum(r[j] * v[j] for j in range(self.size)) % p for r in self.rows]


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
                # monic already: combo[deg] = 1, and every echelon row is of lower degree
                minpoly = _poly.lcm(minpoly, _poly.trim(rcombo), p)
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


def _t_sum_kills(h: LinearAction, closure, m: int, vectors) -> bool:
    """Whether T_m kills every one of the vectors.

    closure is _closure(h) and m a multiple of the order of h; the rule is
    the one in the module docstring.
    """
    t, c = closure
    if not c.is_one or (m // t) % h.field.p == 0:
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


def _order_and_t_sum(h, summands, vectors) -> tuple[int, bool]:
    """The order m of an acting element and whether T_m kills the vectors.

    summands lists the fields acted on and vectors, one iterable per
    summand, the vectors of each; every component's closure is computed
    once.
    """
    hh = _as_group_element(h)
    if len(hh.components) != len(summands) or any(
        c.field != f for c, f in zip(hh.components, summands)
    ):
        raise ValueError("acting element does not match the summands")
    closures = [_closure(c) for c in hh.components]
    m = lcm(*(t * element_order(c) for t, c in closures))
    kills = all(
        _t_sum_kills(c, closure, m, vs)
        for c, closure, vs in zip(hh.components, closures, vectors)
    )
    return m, kills


def semidirect_element_order(v, h) -> int:
    """Order of the pair (v, h) in (sum of summands) x| (acting group).

    With m the order of h, (v, h)^m = (T_m(v), 1); the pair has order m
    when T_m(v) = 0 and p*m otherwise, p the common characteristic.
    """
    vv = _as_vector(v)
    m, kills = _order_and_t_sum(h, [x.field for x in vv], [(x,) for x in vv])
    return m if kills else vv[0].field.p * m


def semidirect_spectrum(summands, elements) -> OrderSet:
    """Exact element-order spectrum of V x| H.

    summands lists the field summands of V and elements every member of the
    (abelian) acting group H as ActionGroupElement values; V must be
    nonzero.  The spectrum is the closure of {1, p}, p the characteristic,
    with every acting order m, or p*m for each h whose T-sum is not the
    zero map.
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
    bases = [tuple(f.basis()) for f in summands]
    gens = {1, p}
    for h in elements:
        m, kills = _order_and_t_sum(h, summands, bases)
        gens.add(m if kills else p * m)
    return OrderSet.from_generators(gens)


def is_fixed_point_free(h) -> bool:
    """Whether every nontrivial power of h fixes only zero.

    This is the defining property of the acting side of a Frobenius
    configuration.  It is read off the closures (t, c) of the components
    (module docstring): every component must have the order n of h, and
    every prime of each t must divide the order of its c.  The cost does
    not grow with n.
    """
    hh = _as_group_element(h)
    if hh.is_identity:
        raise ValueError("the identity has the whole space as fixed points")
    orders = [(t, element_order(c)) for t, c in map(_closure, hh.components)]
    n = lcm(*(t * d for t, d in orders))
    return all(
        t * d == n and all(d % r == 0 for r in prime_divisors(t)) for t, d in orders
    )


def frobenius_arith_check(kernel_order: int, complement_order: int) -> bool:
    """Whether the complement order divides kernel order minus one."""
    if kernel_order < 1 or complement_order < 1:
        raise ValueError("orders must be positive")
    return (kernel_order - 1) % complement_order == 0
