"""Named group constructions and their exact spectra.

Three families live here: the three-prime tightness witness, given by the
two unit multiplications that act on its field summands, semilinear
kernel-complement groups inside GammaL1(p^k) such as 23:11 on
GF(2^11), and PSL2(q) spectra from a census of SL2(q) over its two tori,
of orders q - 1 and q + 1 (Dickson).  No spectrum lists an acting group,
matrix or field element; enumeration and the trace recurrence survive as
test oracles.
The group order is the closed form psl2_order_formula, which the tests
tie to the census total.  The hypothesis checker for the two-condition
spectrum criterion rounds out the module.
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd

from ._record import Record
from .gf import make_field, subgroup_generator
from .linact import LinearAction
from .orderset import OrderSet, factorize

# The most maps build_gamma_frobenius lists in its actions tuple.
ENUMERATION_LIMIT = 10**5


@cache
def build_remark_group() -> tuple[LinearAction, LinearAction]:
    """The tightness witness GF(3^16)+ x GF(3^4)+ acted on by C17 x C5, as
    its two acting multiplications, each on its own summand.

    Its spectrum, the product of the two factors' semidirect spectra, has
    three primes, every prime pair appears as an element order, no member
    has three distinct prime divisors, and no prime divides another prime
    minus one.
    """
    return tuple(
        LinearAction.multiplication(subgroup_generator(make_field(3, k), m))
        for k, m in ((16, 17), (4, 5))
    )


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


class GammaSemilinearGroup(Record):
    """Subgroup of GammaL1(p^k): kernel of unit multiplications, Galois complement.

    actions lists all kernel order * complement order semilinear maps
    u * frobenius^e with u a power of kernel_generator.  frobenius_config
    records whether every nontrivial complement element acts without fixed
    points on the kernel subgroup, i.e. whether kernel:complement is a
    Frobenius configuration.
    """

    _fields = ("field", "kernel_generator", "actions", "frobenius_config")


def gamma_frobenius_config(p: int, k: int, kernel_order: int, complement_order: int) -> bool:
    """build_gamma_frobenius's arguments checked and its frobenius_config
    flag, no map listed: e-th Frobenius powers fix a nontrivial kernel
    element exactly when gcd(p^e - 1, kernel_order) > 1."""
    m, c = kernel_order, complement_order
    if m < 1 or (make_field(p, k).order - 1) % m != 0:
        raise ValueError(f"{m} does not divide {p}^{k} - 1")
    if c < 1 or k % c != 0:
        raise ValueError("complement order must divide the extension degree")
    step = k // c
    return c > 1 and all(gcd(p ** ((step * e) % k) - 1, m) == 1 for e in range(1, c))


def build_gamma_frobenius(
    p: int, k: int, kernel_order: int, complement_order: int
) -> GammaSemilinearGroup:
    """The group of semilinear maps u * frobenius^e with u^kernel_order = 1.

    complement_order must divide k: k gives the full Galois group, 1 the
    cyclic kernel alone.  The Frobenius flag is gamma_frobenius_config's.
    The actions tuple lists every map, so groups of more than
    ENUMERATION_LIMIT maps are refused.
    """
    c = complement_order
    fpf = gamma_frobenius_config(p, k, kernel_order, c)
    if kernel_order * c > ENUMERATION_LIMIT:
        raise ValueError("acting group too large to enumerate")
    field = make_field(p, k)
    step = k // c
    zeta = subgroup_generator(field, kernel_order)
    powers = [field.one]
    for _ in range(kernel_order - 1):
        powers.append(powers[-1] * zeta)
    actions = tuple(
        LinearAction(field, u, (step * e) % k) for u in powers for e in range(c)
    )
    return GammaSemilinearGroup(field, zeta, actions, fpf)


PSL2_MAX_Q = 64  # largest q that psl2_order_counts accepts


def _torus_census(q: int, p: int):
    """(projective order, number of matrices) for each part of SL2(q), q = p^k.

    The parts are the scalars, the non-scalars of trace +-2, and each
    eigenvalue lambda != +-1 of the tori (Dickson): GF(q)*, cyclic of order
    q - 1, and the norm-1 subgroup of GF(q^2)*, of order q + 1.  The pair
    {lambda, 1/lambda} has a class of q(q+1) matrices in the first, q(q-1)
    in the second, half for each lambda.  A^n is scalar exactly when
    lambda^(2n) = 1, so lambda = g^i of order m gives order m / gcd(2i, m).
    """
    scalars = 1 if p == 2 else 2  # +-I, one matrix when p is 2
    yield 1, scalars
    yield p, scalars * (q * q - 1)  # unipotents times +-I: trace +-2
    for m, half_class in ((q - 1, q * (q + 1) // 2), (q + 1, q * (q - 1) // 2)):
        for i in range(m):
            if 2 * i % m:  # lambda^2 != 1, that is lambda != +-1
                yield m // gcd(2 * i, m), half_class


def psl2_order_counts(q: int) -> list[int]:
    """Projective orders of all determinant-one 2x2 matrices over GF(q).

    Entry e of the result, a list of 4q + 8 entries, counts the matrices
    whose e-th power is scalar and no smaller positive power is.  They come
    from the torus census (_torus_census), about 2q integer gcds, and are
    checked against |SL2(q)| = q(q-1)(q+1) before they are returned.  Only
    prime powers q <= PSL2_MAX_Q are accepted.  That bound is no cost
    bound: it fixes which L2(q) records crosscheck_record verifies, and
    past 43^2 = 1849 the L2(43^2) record would turn from cited to verified.
    """
    if not 2 <= q <= PSL2_MAX_Q:
        raise ValueError(f"q must be a prime power in [2, {PSL2_MAX_Q}]")
    pairs = factorize(q).pairs
    if len(pairs) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, _),) = pairs
    counts = [0] * (4 * q + 8)
    for order, matrices in _torus_census(q, p):
        counts[order] += matrices
    if sum(counts) != q * (q - 1) * (q + 1):
        raise AssertionError("torus census missed determinant-one matrices")
    return counts


@cache
def psl2_spectrum(q: int) -> OrderSet:
    """Element orders of PSL2(q) for a prime power q <= PSL2_MAX_Q.

    The orders present in the torus census (psl2_order_counts), which
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
