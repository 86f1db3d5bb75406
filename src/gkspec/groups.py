"""Named group constructions and their exact spectra.

Three families live here: semidirect products of field summands by cyclic
unit-multiplication groups (including the three-prime tightness witness),
semilinear kernel-complement groups inside GammaL1(p^k) such as 23:11 on
GF(2^11), and PSL2(q) spectra obtained by enumerating every determinant-one
matrix, each order read off its trace.  The enumeration is the oracle;
closed-form order counts serve only as consistency checks.  Hall
arithmetic and the hypothesis checker for the two-condition spectrum
criterion round out the module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import product as iter_product
from math import gcd

from .gf import FieldElement, FiniteField, make_field, subgroup_generator
from .linact import ActionGroupElement, LinearAction, semidirect_spectrum
from .orderset import Factorization, OrderSet, factorize


@dataclass(frozen=True)
class SemidirectSpec:
    """Field summands acted on by a product of cyclic unit groups.

    Actor j multiplies on summand j by a chosen element of exact order
    actor_orders[j] and acts trivially on every other summand.
    """

    summands: tuple[FiniteField, ...]
    actor_orders: tuple[int, ...]
    generators: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.summands) != len(self.actor_orders):
            raise ValueError("one actor order per summand is required")
        size = 1
        for f, m, g in zip(self.summands, self.actor_orders, self.generators):
            if (f.order - 1) % m != 0:
                raise ValueError(f"{m} does not divide |{f}| - 1")
            if g.field != f:
                raise ValueError("generator lives in the wrong summand")
            size *= m
        if size > 10**5:
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
        size = 1
        for m in self.actor_orders:
            size *= m
        return size

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


@dataclass(frozen=True)
class PropositionReport:
    """Descriptive check of the two arithmetic conditions on a spectrum.

    cond1_ok: no prime of the spectrum divides another prime minus one.
    cond2_ok: every product of two distinct primes is a member.
    bound_ok: at most three primes.  Solvability of a source group is the
    caller's assumption; this report never claims it.
    """

    pi: tuple[int, ...]
    sigma: int
    cond1_ok: bool
    cond2_ok: bool
    bound_ok: bool
    cond1_failures: tuple[tuple[int, int], ...]
    cond2_failures: tuple[tuple[int, int], ...]


def check_proposition_hypotheses(spectrum: OrderSet) -> PropositionReport:
    pi = spectrum.pi()
    c1_bad = []
    c2_bad = []
    for p in pi:
        for q in pi:
            if p != q and (q - 1) % p == 0:
                c1_bad.append((p, q))
    for i, p in enumerate(pi):
        for q in pi[i + 1:]:
            if not spectrum.contains(p * q):
                c2_bad.append((p, q))
    return PropositionReport(
        pi=pi,
        sigma=spectrum.sigma(),
        cond1_ok=not c1_bad,
        cond2_ok=not c2_bad,
        bound_ok=len(pi) <= 3,
        cond1_failures=tuple(sorted(c1_bad)),
        cond2_failures=tuple(c2_bad),
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
    """
    field = make_field(p, k)
    m = kernel_order
    if (field.order - 1) % m != 0:
        raise ValueError(f"{m} does not divide {p}^{k} - 1")
    c = k if complement_order is None else complement_order
    if c < 1 or k % c != 0:
        raise ValueError("complement order must divide the extension degree")
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


@dataclass(frozen=True)
class Psl2Report:
    """Spectrum of PSL2(q) from exhaustive matrix enumeration."""

    q: int
    p: int
    k: int
    group_order: int
    spectrum: OrderSet

    @property
    def mu(self) -> tuple[int, ...]:
        return self.spectrum.maximal_elements


PSL2_MAX_Q = 64  # largest q that psl2_spectrum enumerates


def field_tables(q: int) -> tuple[list[int], list[int], list[int], int, int]:
    """Arithmetic of GF(q) on element indices 0..q-1 (see FiniteField.element_at).

    Returns (mul, add, neg, one, zero): mul and add are flat row-major q*q
    tables, neg the negation table, one/zero the indices of the constants.
    """
    fac = factorize(q)
    if len(fac.pairs) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, k),) = fac.pairs
    field = make_field(p, k)
    elems = [field.element_at(n) for n in range(q)]
    index = {e.value: n for n, e in enumerate(elems)}
    mul = [index[(a * b).value] for a in elems for b in elems]
    add = [index[(a + b).value] for a in elems for b in elems]
    neg = [index[(-a).value] for a in elems]
    return mul, add, neg, index[field.one.value], index[field.zero.value]


def psl2_order_counts(q, mul, add, neg, one, zero) -> list[int]:
    """Projective orders of all determinant-one 2x2 matrices over GF(q).

    The arguments are field_tables(q).  Entry e of the result counts the
    matrices whose e-th power is scalar and no smaller positive power is.

    For det A = 1, Cayley-Hamilton gives A^n = U_n(t)*A - U_(n-1)(t)*I
    with t the trace, U_0 = 0, U_1 = 1 and U_(n+1) = t*U_n - U_(n-1).  So
    a non-scalar A has a scalar n-th power exactly when U_n(t) = 0, and
    its order is fixed by its trace.  The order of each of the q traces
    is found once; then every matrix (a b / c d) is still visited, as
    +-I (order 1) or by its trace a + d.  For a != 0 the entry d is
    determined by (a, b, c); for a = 0 the determinant forces c = -1/b
    with d free, and the trace is d.
    """
    counts = [0] * (4 * q + 8)
    limit = len(counts) - 1
    trace_order = []
    for t in range(q):
        u_prev, u, n = zero, one, 1
        while u != zero:
            u_prev, u = u, add[mul[t * q + u] * q + neg[u_prev]]
            n += 1
            if n > limit:
                raise RuntimeError("matrix order exceeded sane bound")
        trace_order.append(n)
    one_plus = add[one * q:(one + 1) * q]
    for a in range(q):
        plus_a = add[a * q:(a + 1) * q]
        if a == zero:
            for b in range(q):
                if b != zero:
                    for d in range(q):
                        counts[trace_order[plus_a[d]]] += 1
            continue
        ainv = mul[a * q:(a + 1) * q].index(one)
        times_ainv = mul[ainv * q:(ainv + 1) * q]
        for b in range(q):
            times_b = mul[b * q:(b + 1) * q]
            for c in range(q):
                d = times_ainv[one_plus[times_b[c]]]
                if b == zero and c == zero and d == a:
                    counts[1] += 1
                else:
                    counts[trace_order[plus_a[d]]] += 1
    return counts


@cache
def psl2_spectrum(q: int) -> Psl2Report:
    """Element orders of PSL2(q) for a prime power q <= 64.

    Every 2x2 matrix over GF(q) with determinant one is visited and its
    projective order read off its trace by the Cayley-Hamilton recurrence
    (see psl2_order_counts); the resulting order multiset is checked
    against |SL2(q)| = q(q-1)(q+1) before the spectrum is returned.  The
    report is frozen, so each q is enumerated once per process.
    """
    if q < 2 or q > PSL2_MAX_Q:
        raise ValueError(f"q must be a prime power in [2, {PSL2_MAX_Q}]")
    tables = field_tables(q)  # raises ValueError unless q is a prime power
    ((p, k),) = factorize(q).pairs
    counts = psl2_order_counts(q, *tables)
    sl2_size = q * (q - 1) * (q + 1)
    if sum(counts) != sl2_size:
        raise AssertionError("enumeration missed determinant-one matrices")
    d = gcd(2, q - 1)
    orders = [e for e, c in enumerate(counts) if c]
    return Psl2Report(
        q=q,
        p=p,
        k=k,
        group_order=sl2_size // d,
        spectrum=OrderSet.from_generators(orders),
    )


def psl2_order_formula(q: int) -> int:
    """Closed-form |PSL2(q)|, kept separate as a cross-check."""
    return q * (q * q - 1) // gcd(2, q - 1)


def parse_psl2_name(name: str) -> int | None:
    """q for names like L2(23) or L2(43^2), else None."""
    m = re.fullmatch(r"L2\((\d+)(?:\^(\d+))?\)", name)
    if not m:
        return None
    base = int(m.group(1))
    exp = int(m.group(2)) if m.group(2) else 1
    return base**exp


def hall_check(group_order: Factorization, subgroup_order: Factorization) -> bool:
    """Whether a subgroup order is a Hall divisor of a group order.

    The subgroup order must divide the group order; it is Hall exactly when
    it carries the full power of each of its primes, which makes the index
    coprime to it.
    """
    for prime, e in subgroup_order.pairs:
        if e > group_order.exponent(prime):
            raise ValueError("subgroup order does not divide the group order")
    return all(e == group_order.exponent(p) for p, e in subgroup_order.pairs)
