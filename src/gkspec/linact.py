"""Semilinear actions on the additive group of a finite field.

Every action in scope has the shape x -> u * x^(p^e) for a nonzero field
element u and a Galois exponent e, so an action is kept as that pair.  No
power or composite of an action is ever formed: every fact used here is
read off one closure of (u, e), below.  LinearAction.matrix and
minimal_polynomial realize an action as a k x k matrix over GF(p) for
callers that want one.  Column j of the matrix is the image u * (x^(p^e))^j
of x^j, read off the field's table of x -> x^(p^e) (gf.FiniteField._images)
with one product per column and no Frobenius pass.  Nothing else here
builds a matrix.

On top of them sits the exact order formula for elements (v, h) of the
semidirect product of the field by the cyclic group <h>:
(v, h)^m = (T_m(v), 1) for m the order of h and
T_m = 1 + h + ... + h^(m-1), so the order is m when T_m kills v and p*m
otherwise.  A group acting on several summands, each multiplied by its
own factor, is the direct product of one such semidirect product per
summand; its spectrum is the lcm closure of theirs
(orderset.product_spectrum).

Every fact about h used here is read off one closure (Lidl and
Niederreiter, Finite Fields, on norms and Hilbert's Theorem 90).  With
g = gcd(e, k) and t = k / g, h^t is multiplication by the norm
c = u * u^(p^g) * ... * u^(p^((t-1)g)) of u down to GF(p^g), and no
smaller positive power of h is a multiplication.  So:

- the order of h is m = t * ord(c);
- T_m = (1 + c + ... + c^(m/t - 1)) * T_t, and the factor is 0 when
  c != 1 (as c^(m/t) = 1) and 1 when c = 1 (then m = t); so T_m is the
  zero map when c != 1, and T_m = T_t when c = 1, a sum of t <= k terms;
- the fixed space of h is x0 * GF(p^g) for some x0 != 0 when c = 1
  (Hilbert 90), of dimension g over GF(p), and 0 otherwise;
- h^j has closure c^(j / gcd(j, t)), so h is fixed-point-free (no
  nontrivial power fixes a nonzero vector) exactly when every prime of t
  divides ord(c).

The part of this that depends on h alone is its plan (m, t): T_m is the
zero map exactly when m != t.  When m = t, T_t is never zero: its t terms
h^i = u_i * x^(p^(ie)), i < t, carry t distinct field automorphisms, so
by Artin's independence of characters (Lang, Algebra, VI 4) no sum of them
with nonzero u_i vanishes.  So a single element order evaluates T_t on
its one vector.  With s = ord(c), the h^j of order d are those with
gcd(j, m) = m/d, of closure length t / gcd(m/d, t) as t | m; so some
(v, h^j) has order p*d exactly when d | t and gcd(d, s) = 1, and the
spectrum of GF(p^k) x| <h> is the closure of {m, p*t'}, t' the largest
divisor of t prime to s.

A LinearAction computes its plan once, on first use, and keeps it outside
the value fields (_record.derived): equality, hashing and repr never see
it, and threads racing to fill it store the same value.  The plan is a
pure function of the action, so everything here stays immutable in value
and reentrant.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from ._record import Record, _set, derived
from .gf import FieldElement, FiniteField, element_order
from .orderset import OrderSet, _is_prime


class GFMatrix(Record):
    """Dense matrix over GF(p), rows of residues."""

    _fields = ("p", "rows")

    def matvec(self, v) -> list[int]:
        p = self.p
        return [sum(map(mul, r, v)) % p for r in self.rows]


class LinearAction(Record):
    """Invertible GF(p)-linear map x -> mult * x^(p^galois_exp) on GF(p^k),
    in the normal form every action in scope has."""

    _fields = ("field", "mult", "galois_exp")

    # own __init__: 2,769 in a semidirect round (seed 901), 2,349 of them for
    # build_gamma_frobenius's actions, 1.04 against 2.05 us through Record's
    # (timeit, 2 vCPUs), about 2.8 ms of its 97 ms of operations
    def __init__(self, field: FiniteField, mult: FieldElement, galois_exp: int):
        _set(self, "field", field)
        _set(self, "mult", mult)
        _set(self, "galois_exp", galois_exp)
        if mult.field != field:
            raise ValueError("multiplier must live in the acted-on field")
        if mult.is_zero:
            raise ValueError("action must be invertible: zero multiplier")
        if not 0 <= galois_exp < field.k:
            raise ValueError("Galois exponent out of range")

    @classmethod
    def multiplication(cls, u: FieldElement) -> "LinearAction":
        return cls(u.field, u, 0)

    @classmethod
    def galois(cls, field: FiniteField, e: int = 1) -> "LinearAction":
        return cls(field, field.one, e % field.k)

    @property
    def is_identity(self) -> bool:
        return self.galois_exp == 0 and self.mult == self.field.one

    @derived
    def _plan(self) -> tuple[int, int]:
        """(m, t): the order m = t * ord(c) and the closure length t; T_m is
        not the zero map exactly when m == t (module docstring)."""
        t, c = _closure(self)
        return t * element_order(c), t

    def apply(self, x: FieldElement) -> FieldElement:
        return self.mult * self.field.frobenius(x, self.galois_exp)

    def matrix(self) -> GFMatrix:
        """The k x k matrix over GF(p): column j is the image
        u * (x^(p^e))^j of x^j, one product with the field's table entry."""
        f, u = self.field, self.mult.value
        cols = [f._unpack(f._mul(u, image)) for image in f._images(self.galois_exp)]
        return GFMatrix(f.p, tuple(zip(*cols)))


def _closure(h: LinearAction) -> tuple[int, FieldElement]:
    """(t, c) with t = k / gcd(e, k) and h^t multiplication by c.

    c is the norm u * u^(p^g) * ... * u^(p^((t-1)g)), g = gcd(e, k), by
    FiniteField._norm, which costs nothing for a multiplication (t = 1).
    """
    f = h.field
    g = gcd(h.galois_exp, f.k)
    return f.k // g, FieldElement(f, f._norm(h.mult.value, g))


def action_order(h: LinearAction) -> int:
    """Least m >= 1 with h^m the identity: t * ord(c) for the closure (t, c)."""
    return h._plan[0]


def _free_part(h: LinearAction) -> int:
    """t': the largest divisor of t prime to m / t, for the plan (m, t)."""
    m, t = h._plan
    g = gcd(t, m // t)
    while g > 1:
        t //= g
        g = gcd(t, g)
    return t


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
    the plan (m, t) of the closure (t, c): m = s = t * ord(c) is prime, so
    either t = s and c = 1, or t = 1.  When t = s, h^s is the identity
    while 1, h, ..., h^(s-1) carry s distinct field automorphisms, so by
    Artin's independence of characters no polynomial of degree below s
    kills h: the minimal polynomial is x^s - 1.  When t = 1, h is
    multiplication by c, whose minimal polynomial is the irreducible one of
    c over GF(p), never x^s - 1 (that has the factor x - 1 and degree
    s >= 2).
    """
    if not _is_prime(s):
        raise ValueError("s must be prime")
    m, t = h._plan
    if m != s:
        raise ValueError("action order must equal s")
    return t == s


def _t_sum_on(h: LinearAction, m: int, v: FieldElement) -> FieldElement:
    """T_m applied to a single vector, by its defining sum (m >= 1)."""
    acc = v
    for _ in range(m - 1):
        v = h.apply(v)
        acc = acc + v
    return acc


def semidirect_element_order(v: FieldElement, h: LinearAction) -> int:
    """Order of the pair (v, h) in GF(p^k) x| <h>.

    With (m, t) the plan of h, (v, h)^m = (T_m(v), 1); the pair has order
    p*m when m == t and T_t(v) != 0, and m otherwise.
    """
    if v.field != h.field:
        raise ValueError("vector and action live in different fields")
    m, t = h._plan
    if m == t and _t_sum_on(h, t, v).value:
        return v.field.p * m
    return m


def semidirect_spectrum(h: LinearAction) -> OrderSet:
    """Exact element-order spectrum of GF(p^k) x| <h>: the closure of
    {m, p*t'} for the plan (m, t) of h (module docstring).  No power of h
    is formed and no T-sum is evaluated."""
    return OrderSet.from_generators((h._plan[0], h.field.p * _free_part(h)))


def is_fixed_point_free(h: LinearAction) -> bool:
    """Whether every nontrivial power of h fixes only zero, as the acting
    side of a Frobenius configuration must: whether t' = 1, that is every
    prime of t divides ord(c) (module docstring), at a cost not growing
    with the order of h."""
    if h.is_identity:
        raise ValueError("the identity has the whole space as fixed points")
    return _free_part(h) == 1

