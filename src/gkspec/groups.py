"""Named group constructions and their exact spectra.

Three families live here: the three-prime tightness witness, given by the
two unit multiplications that act on its field summands, semilinear
kernel-complement groups inside GammaL1(p^k) such as 23:11 on
GF(2^11), and PSL2(q) spectra from Dickson's closed form, the divisor
closure of p and the two torus orders (q - 1)/d and (q + 1)/d, d =
gcd(2, q - 1).  No spectrum lists an acting group, matrix or field
element; matrix enumeration and the trace recurrence survive as test
oracles.
The group order is the closed form psl2_order_formula, which the tests
tie to the enumeration's total.  The hypothesis checker for the
two-condition spectrum criterion rounds out the module.
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


@cache
def psl2_spectrum(q: int) -> OrderSet:
    """Element orders of PSL2(q) for a prime power q = p^k; memoized.

    By Dickson's classification (*Linear Groups*, 1901) a nontrivial
    element is unipotent, of order p, or lies in a cyclic torus of order
    (q - 1)/d or (q + 1)/d, d = gcd(2, q - 1): the spectrum is the divisor
    closure of those three.  ValueError for a q that is no prime power,
    OverflowError (from factorize) for q >= 2^63.
    """
    pairs = factorize(q).pairs if q > 1 else ()
    if len(pairs) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, _),) = pairs
    d = gcd(2, q - 1)
    return OrderSet.from_generators((p, (q - 1) // d, (q + 1) // d))


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
