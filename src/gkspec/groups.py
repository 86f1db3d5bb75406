"""Named group constructions and their exact spectra.

Three families live here: semidirect products of field summands by cyclic
unit-multiplication groups (including the three-prime tightness witness),
semilinear kernel-complement groups inside GammaL1(p^k) such as 23:11 on
GF(2^11), and PSL2(q) spectra from a census of SL2(q) by trace: the number
of determinant-one matrices of each trace and the order each trace forces.
No matrix is visited; full enumeration survives only as a test oracle.
The group order is the closed form psl2_order_formula, which the tests
tie to the census total.  The hypothesis checker for the two-condition
spectrum criterion rounds out the module.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import product as iter_product
from math import gcd, prod

from .gf import FieldElement, FiniteField, element_order, make_field, subgroup_generator
from .linact import ENUMERATION_LIMIT, ActionGroupElement, LinearAction, semidirect_spectrum
from .orderset import OrderSet, factorize


@dataclass(frozen=True)
class SemidirectSpec:
    """Field summands acted on by a product of cyclic unit groups.

    Actor j multiplies on summand j by generators[j], an element of exact
    order actor_orders[j], and acts trivially on every other summand.
    """

    summands: tuple[FiniteField, ...]
    actor_orders: tuple[int, ...]
    generators: tuple[FieldElement, ...]

    def __post_init__(self):
        n = len(self.summands)
        if len(self.actor_orders) != n or len(self.generators) != n:
            raise ValueError("one actor order and one generator per summand are required")
        for f, m, g in zip(self.summands, self.actor_orders, self.generators):
            if (f.order - 1) % m != 0:
                raise ValueError(f"{m} does not divide |{f}| - 1")
            if g.field != f:
                raise ValueError("generator lives in the wrong summand")
            if element_order(g) != m:
                raise ValueError(f"generator does not have order {m}")
        if self.acting_group_size > ENUMERATION_LIMIT:
            raise ValueError("acting group too large to enumerate")

    @classmethod
    def build(cls, field_shapes, actor_orders) -> "SemidirectSpec":
        fields = tuple(make_field(p, k) for p, k in field_shapes)
        gens = tuple(
            subgroup_generator(f, m) for f, m in zip(fields, actor_orders)
        )
        return cls(fields, tuple(actor_orders), gens)

    @property
    def acting_group_size(self) -> int:
        return prod(self.actor_orders)

    def acting_elements(self) -> list[ActionGroupElement]:
        """Every element of the acting group, componentwise multiplications."""
        axes = [
            [LinearAction.multiplication(g**i) for i in range(m)]
            for g, m in zip(self.generators, self.actor_orders)
        ]
        return [ActionGroupElement(tuple(combo)) for combo in iter_product(*axes)]

    def spectrum(self) -> OrderSet:
        return semidirect_spectrum(self.summands, self.acting_elements())


@cache
def build_remark_group() -> SemidirectSpec:
    """The tightness witness: GF(3^16)+ x GF(3^4)+ acted on by C17 x C5.

    Its spectrum has three primes, every prime pair appears as an element
    order, no member has three distinct prime divisors, and no prime
    divides another prime minus one.
    """
    return SemidirectSpec.build(((3, 16), (3, 4)), (17, 5))


def check_proposition_hypotheses(
    spectrum: OrderSet,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The prime pairs failing each arithmetic condition on a spectrum.

    Pairs p < q of its primes, in order: first those with p dividing
    q - 1, then those whose product is not a member.  Both tuples are
    empty exactly when the two conditions hold.  Solvability of a
    source group is the caller's assumption; this check never claims it.
    """
    pi = spectrum.pi()
    pairs = [(p, q) for i, p in enumerate(pi) for q in pi[i + 1:]]  # p | q - 1 needs p < q
    return (
        tuple((p, q) for p, q in pairs if (q - 1) % p == 0),
        tuple((p, q) for p, q in pairs if not spectrum.contains(p * q)),
    )


@dataclass(frozen=True)
class GammaSemilinearGroup:
    """Subgroup of GammaL1(p^k): kernel of unit multiplications, Galois complement.

    actions lists all kernel_order * complement_order semilinear maps
    u * frobenius^e with u in the order-m unit subgroup.  frobenius_config
    records whether every nontrivial complement element acts without fixed
    points on the kernel subgroup, i.e. whether kernel:complement is a
    Frobenius configuration.
    """

    field: FiniteField
    kernel_order: int
    complement_order: int
    kernel_generator: FieldElement
    actions: tuple[LinearAction, ...]
    frobenius_config: bool


def build_gamma_frobenius(
    p: int, k: int, kernel_order: int, complement_order: int | None = None
) -> GammaSemilinearGroup:
    """The group of semilinear maps u * frobenius^e with u^kernel_order = 1.

    complement_order must divide k and defaults to k (the full Galois
    group); passing 1 degenerates to the cyclic kernel alone.  The
    Frobenius flag is computed directly: e-th Frobenius powers fix a
    nontrivial kernel element exactly when gcd(p^e - 1, kernel_order) > 1.
    Groups of more than ENUMERATION_LIMIT maps are refused, as in
    SemidirectSpec.
    """
    field = make_field(p, k)
    m = kernel_order
    if (field.order - 1) % m != 0:
        raise ValueError(f"{m} does not divide {p}^{k} - 1")
    c = k if complement_order is None else complement_order
    if c < 1 or k % c != 0:
        raise ValueError("complement order must divide the extension degree")
    if m * c > ENUMERATION_LIMIT:
        raise ValueError("acting group too large to enumerate")
    step = k // c
    zeta = subgroup_generator(field, m)
    powers = [field.one]
    for _ in range(m - 1):
        powers.append(powers[-1] * zeta)
    actions = tuple(
        LinearAction(field, u, (step * e) % k) for u in powers for e in range(c)
    )
    fpf = c > 1 and all(
        gcd(p ** ((step * e) % k) - 1, m) == 1 for e in range(1, c)
    )
    return GammaSemilinearGroup(field, m, c, zeta, actions, fpf)


PSL2_MAX_Q = 64  # largest q that psl2_order_counts accepts


def _trace_counts(field: FiniteField) -> list[tuple[FieldElement, int]]:
    """(t, number of determinant-one 2x2 matrices with trace t) for every t.

    A matrix (a b / c d) with trace t has d = t - a, and det = 1 asks
    bc = a*d - 1: q - 1 solutions (b, c) when a*d != 1, and 2q - 1 when
    a*d = 1, which happens exactly when a != 0 and a + 1/a = t.  So trace t
    has q(q-1) + q * #{a != 0 : a + 1/a = t} matrices.
    """
    q = field.order
    elements = [field.element_at(n) for n in range(q)]
    roots = Counter((a + a.inverse()).value for a in elements[1:])
    return [(t, q * (q - 1) + q * roots[t.value]) for t in elements]


def psl2_order_counts(q: int) -> list[int]:
    """Projective orders of all determinant-one 2x2 matrices over GF(q).

    Entry e of the result counts the matrices whose e-th power is scalar
    and no smaller positive power is.  No matrix is visited: the counts
    come from the number of matrices of each trace (_trace_counts) and
    the order of each trace.  Only prime powers q <= PSL2_MAX_Q are
    accepted, as the census takes about q^2 recurrence steps, and the
    counts are checked against |SL2(q)| = q(q-1)(q+1) before they are
    returned.

    For det A = 1, Cayley-Hamilton gives A^n = U_n(t)*A - U_(n-1)(t)*I
    with t the trace, U_0 = 0, U_1 = 1 and U_(n+1) = t*U_n - U_(n-1).  So
    a non-scalar A has a scalar n-th power exactly when U_n(t) = 0, and
    its order is fixed by its trace.  The scalars +-I (one of them when p
    is 2) have order 1; their traces +-2 have U_n(+-2) = +-n, first zero
    at n = p, so they move from entry p to entry 1.
    """
    if not 2 <= q <= PSL2_MAX_Q:
        raise ValueError(f"q must be a prime power in [2, {PSL2_MAX_Q}]")
    pairs = factorize(q).pairs
    if len(pairs) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, k),) = pairs
    field = make_field(p, k)
    counts = [0] * (4 * q + 8)
    limit = len(counts) - 1
    for t, matrices in _trace_counts(field):
        u_prev, u, n = field.zero, field.one, 1
        while not u.is_zero:
            u_prev, u = u, t * u - u_prev
            n += 1
            if n > limit:
                raise RuntimeError("matrix order exceeded sane bound")
        counts[n] += matrices
    scalars = 1 if p == 2 else 2
    counts[p] -= scalars
    counts[1] += scalars
    if sum(counts) != q * (q - 1) * (q + 1):
        raise AssertionError("trace census missed determinant-one matrices")
    return counts


@cache
def psl2_spectrum(q: int) -> OrderSet:
    """Element orders of PSL2(q) for a prime power q <= PSL2_MAX_Q.

    The orders present in the trace census (psl2_order_counts), which
    also rejects q out of range.  Memoized, so each q is computed once
    per process.
    """
    return OrderSet.from_generators(e for e, c in enumerate(psl2_order_counts(q)) if c)


def psl2_order_formula(q: int) -> int:
    """|PSL2(q)| = q(q^2 - 1) / gcd(2, q - 1)."""
    return q * (q * q - 1) // gcd(2, q - 1)


def parse_psl2_name(name: str) -> int | None:
    """q for names like L2(23) or L2(43^2), else None.

    None too when q >= 2^64, out of every range here.  For a base of more
    than 20 digits or an exponent of more than 2, leading zeros stripped,
    that is decided on the digit strings: neither is converted and the
    power is never built.
    """
    m = re.fullmatch(r"L2\((\d+)(?:\^(\d+))?\)", name)
    if not m:
        return None
    base, exp = (d.lstrip("0") or "0" for d in (m.group(1), m.group(2) or "1"))
    if exp == "0":
        return 1
    if base in ("0", "1"):
        return int(base)
    # here base >= 2 and exp >= 1; past these lengths q >= 10^20 or q >= 2^100
    if len(base) > 20 or len(exp) > 2:
        return None
    q = int(base) ** int(exp)
    return q if q < 2**64 else None
