"""Differential tests against independent oracles: the packed GF(p^k)
mod-p pass against the per-slot loop it replaced, packed arithmetic and
the field constructor against the coefficient-tuple kernels they
replaced, field arithmetic at a large prime against Python's modular
integers, and PSL2(q) spectra from Dickson's closed form against full
matrix enumeration, which is itself checked against power iteration, and
against the trace recurrence beyond enumeration's reach.  The constructor
and its Rabin oracle share no polynomial code: the oracle's gcd is its own
Euclid below, while gkspec.gf decides each gcd by a norm in the
candidate's ring."""

import random
from collections import Counter

import pytest

from gkspec.gf import FiniteField, make_field
from gkspec.groups import psl2_spectrum
from gkspec.orderset import factorize

# The coefficient-tuple kernels below were the library's GF(p^k) multiply,
# power and irreducibility test before elements became packed integers;
# they stay as oracles for gkspec.gf.


def mulmod(a, b, modulus, p):
    """Product of two length-k coefficient tuples modulo a monic modulus."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i in range(k):
        x = a[i]
        if x:
            for j in range(k):
                prod[i + j] = (prod[i + j] + x * b[j]) % p
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        if c:
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return tuple(prod[:k])


def powmod(a, e, modulus, p):
    """a**e modulo a monic modulus by square-and-multiply; e >= 0."""
    k = len(modulus) - 1
    result = (1,) + (0,) * (k - 1)
    base = a
    while e:
        if e & 1:
            result = mulmod(result, base, modulus, p)
        base = mulmod(base, base, modulus, p)
        e >>= 1
    return result


def trim(coeffs):
    """Coefficients without trailing zeros ([] is the zero polynomial)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def gcd(a, b, p):
    """Monic gcd of two ascending coefficient lists, by Euclid's algorithm."""
    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):  # a <- a mod b
            c = a[-1] * inv % p
            s = len(a) - len(b)
            for j, y in enumerate(b):
                a[s + j] = (a[s + j] - c * y) % p
            a = trim(a)
        a, b = b, a
    inv = pow(a[-1], p - 2, p) if a else 0
    return [x * inv % p for x in a]


def is_irreducible(modulus, p):
    """Rabin's test with x^(p^j) by repeated powmod(., p)."""
    k = len(trim(modulus)) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    if modulus[0] == 0:
        return False  # root at zero
    x = (0, 1) + (0,) * (k - 2)
    t = x
    for _ in range(k):
        t = powmod(t, p, modulus, p)
    if trim([(t[i] - (1 if i == 1 else 0)) % p for i in range(k)]):
        return False
    for r in factorize(k).primes:
        t = x
        for _ in range(k // r):
            t = powmod(t, p, modulus, p)
        diff = [(t[i] - (1 if i == 1 else 0)) % p for i in range(k)]
        if len(gcd(diff, modulus, p)) > 1:
            return False
    return True


def lexicographic_modulus(p, k):
    """The first monic degree-k polynomial in lexicographic order on
    (c_0, ..., c_{k-1}, 1) that the oracle finds irreducible.

    Candidates with c_0 = 0 have the root 0, so the walk starts at c_0 = 1.
    """
    for n in range(p ** (k - 1), p**k):
        coeffs = [0] * k
        for i in range(k - 1, -1, -1):
            coeffs[i] = n % p
            n //= p
        candidate = tuple(coeffs) + (1,)
        if is_irreducible(candidate, p):
            return candidate
    raise AssertionError("no irreducible polynomial")


def loop_fold(t, p, w):
    """Every w-bit slot of t reduced mod p, one slot at a time: the mod-p
    pass gkspec.gf.FiniteField._fold replaced."""
    mask = (1 << w) - 1
    out = 0
    shift = 0
    while t:
        out |= ((t & mask) % p) << shift
        t >>= w
        shift += w
    return out


FOLD_PRIMES = (2, 3, 5, 7, 43, 257, 2**31 - 1, 2**61 - 1)
FOLD_DEGREES = (1, 2, 3, 4, 11, 16)


@pytest.mark.parametrize("p", FOLD_PRIMES)
@pytest.mark.parametrize("k", FOLD_DEGREES)
def test_fold_matches_per_slot_loop(p, k):
    # _fold reads only p, k and the slot width, so any monic modulus will do
    f = FiniteField(p, k, (1,) + (0,) * (k - 1) + (1,) if k > 1 else (0, 1))
    w = f._w
    top = (1 << w) - 1  # the largest slot value the domain allows
    rng = random.Random(p * 100 + k)
    special = [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, top - top % p, top - 1, top]
    special = [x for x in special if x <= top]
    vectors = [[x] * k for x in special]
    vectors += [[rng.choice(special) for _ in range(k)] for _ in range(100)]
    vectors += [[p * rng.randrange(top // p + 1) for _ in range(k)] for _ in range(20)]
    vectors += [[rng.randrange(top + 1) for _ in range(k)] for _ in range(200)]
    vectors += [[rng.randrange(top + 1)] * rng.randrange(1, k + 1) for _ in range(20)]
    for slots in vectors:
        t = sum(x << (w * i) for i, x in enumerate(slots))
        assert f._fold(t) == loop_fold(t, p, w), slots


DIFFERENTIAL_FIELDS = [
    (2, 5),
    (3, 4),
    (7, 4),
    (43, 2),
    (2, 11),
    (2, 62),
    (3, 16),
    (3, 39),
    (5, 10),
    (7, 9),
    (2**31 - 1, 2),
    (3037000493, 2),
    (1099511627689, 1),
]


@pytest.mark.parametrize("p,k", DIFFERENTIAL_FIELDS)
def test_packed_arithmetic_matches_tuple_kernels(p, k):
    f = make_field(p, k)
    modulus = f.modulus
    rng = random.Random(p * 1000 + k)
    for _ in range(300):
        a = tuple(rng.randrange(p) for _ in range(k))
        b = tuple(rng.randrange(p) for _ in range(k))
        x, y = f.element(a), f.element(b)
        assert x.coeffs == a
        assert (x * y).coeffs == mulmod(a, b, modulus, p)
        e = rng.randrange(0, 4 * p)
        assert (x**e).coeffs == powmod(a, e, modulus, p)
        assert (x + y).coeffs == tuple((s + t) % p for s, t in zip(a, b))
        assert (-x).coeffs == tuple((-s) % p for s in a)
        # powers x^(p^t) by the oracle for small t; every t by composition
        times = rng.choice((0, 1, 2, 3, k, k + 1))
        want = a
        for _ in range(times % k):
            want = powmod(want, p, modulus, p)
        assert f.frobenius(x, times).coeffs == want
        s, t = rng.randrange(k), rng.randrange(k)
        assert f.frobenius(f.frobenius(x, s), t) == f.frobenius(x, s + t)
    # extreme coefficients: every slot p - 1, and the largest sums
    top = f.element([p - 1] * k)
    assert (top * top).coeffs == mulmod(top.coeffs, top.coeffs, modulus, p)
    assert (top + top).coeffs == ((p - 2) % p,) * k
    assert (-top).coeffs == (1 % p,) * k and (-f.zero).is_zero
    # inverses, multiplied back by the oracle
    for x in [f.one, top] + [f.element_at(rng.randrange(1, f.order)) for _ in range(50)]:
        assert mulmod(x.coeffs, x.inverse().coeffs, modulus, p) == f.one.coeffs


# (p, k, kernel order, complement order) of the semidirect benchmark workload
SEMIDIRECT_SHAPES = (
    (2, 11, 23, 11),
    (3, 16, 17, 1),
    (3, 4, 5, 1),
    (2, 8, 17, 8),
    (2, 10, 11, 10),
    (2, 12, 13, 12),
    (2, 16, 257, 2),
    (3, 8, 41, 8),
    (3, 12, 73, 4),
    (5, 4, 13, 4),
    (5, 6, 7, 6),
    (5, 10, 11, 5),
    (7, 4, 5, 4),
    (7, 6, 43, 6),
    (7, 9, 37, 3),
)


@pytest.mark.parametrize("p,k", [shape[:2] for shape in SEMIDIRECT_SHAPES])
def test_make_field_modulus_matches_lexicographic_search(p, k):
    assert make_field(p, k).modulus == lexicographic_modulus(p, k)


BIG_P = 1099511627689  # a prime near 2^40: products of residues exceed 64 bits


def test_large_prime_arithmetic_is_exact():
    f = make_field(BIG_P, 1)
    rng = random.Random(34)
    values = [BIG_P - 1, BIG_P - 2, 2**39 + 12345]
    values += [rng.randrange(1, BIG_P) for _ in range(50)]
    for a, b in zip(values, reversed(values)):
        x, y = f.element([a]), f.element([b])
        assert (x * y).coeffs == (a * b % BIG_P,)
        e = rng.randrange(0, BIG_P)
        assert (x**e).coeffs == (pow(a, e, BIG_P),)


# Full enumeration of SL2(q) was the library's PSL2 kernel before the trace
# census, the trace census before a census over the two tori, and that
# before Dickson's closed form; enumeration and the trace census stay as the
# closed form's oracles.  Enumeration works over index tables of GF(q), the
# trace census over FiniteField elements; the closed form builds no field.


def field_tables(q):
    """Arithmetic of GF(q) on element indices 0..q-1 (see FiniteField.element_at).

    Returns (mul, add, neg, one, zero): mul and add are flat row-major q*q
    tables, neg the negation table, one/zero the indices of the constants.
    """
    ((p, k),) = factorize(q).pairs
    field = make_field(p, k)
    elems = [field.element_at(n) for n in range(q)]
    index = {e.value: n for n, e in enumerate(elems)}
    mul = [index[(a * b).value] for a in elems for b in elems]
    add = [index[(a + b).value] for a in elems for b in elems]
    neg = [index[(-a).value] for a in elems]
    return mul, add, neg, index[field.one.value], index[field.zero.value]


def enumerated_order_counts(q, mul, add, neg, one, zero):
    """Projective orders of all determinant-one 2x2 matrices over GF(q),
    every matrix visited.

    The arguments are field_tables(q).  The order of each of the q traces
    comes from the recurrence U_(n+1) = t*U_n - U_(n-1); then every matrix
    (a b / c d) is visited, as +-I (order 1) or by its trace a + d.  For
    a != 0 the entry d is determined by (a, b, c); for a = 0 the
    determinant forces c = -1/b with d free, and the trace is d.
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


def power_iteration_counts(q, mul, add, neg, one, zero):
    """Orders of all determinant-one 2x2 matrices over a q-element field.

    mul and add are flat row-major q*q tables over element indices, neg the
    negation table, one/zero the indices of the field constants.  For every
    matrix (a b / c d) with a*d - b*c = 1 the least e >= 1 with the e-th
    power scalar is tallied; returns a list where entry e counts matrices
    of projective order e.

    The determinant-one matrices are enumerated directly: for a != 0 the
    entry d is determined by (a, b, c), and for a = 0 the constraint forces
    c = -1/b with d free.  Same multiset as rejection over all quadruples.

    Test oracle: repeated 2x2 multiplication, independent of the trace
    recurrence in enumerated_order_counts and recurrence_order_counts.
    """
    counts = [0] * (4 * q + 8)
    limit = len(counts) - 1
    inv = [None] * q
    for x in range(q):
        for y in range(q):
            if mul[x * q + y] == one:
                inv[x] = y
                break

    def tally(a, b, c, d):
        wa, wb, wc, wd = a, b, c, d
        e = 1
        while not (wb == zero and wc == zero and wa == wd):
            na = add[mul[wa * q + a] * q + mul[wb * q + c]]
            nb = add[mul[wa * q + b] * q + mul[wb * q + d]]
            nc = add[mul[wc * q + a] * q + mul[wd * q + c]]
            nd = add[mul[wc * q + b] * q + mul[wd * q + d]]
            wa, wb, wc, wd = na, nb, nc, nd
            e += 1
            if e > limit:
                raise RuntimeError("matrix order exceeded sane bound")
        counts[e] += 1

    for a in range(q):
        if a == zero:
            for b in range(q):
                if b == zero:
                    continue  # det would be 0
                c = neg[inv[b]]
                for d in range(q):
                    tally(a, b, c, d)
            continue
        ainv = inv[a]
        for b in range(q):
            for c in range(q):
                d = mul[ainv * q + add[one * q + mul[b * q + c]]]
                tally(a, b, c, d)
    return counts


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_psl2_counts_match_power_iteration(q):
    tables = field_tables(q)
    assert enumerated_order_counts(q, *tables) == power_iteration_counts(q, *tables)


def test_power_iteration_counts_total_is_sl2_size():
    for q in (2, 3, 5, 7):
        counts = power_iteration_counts(q, *field_tables(q))
        assert sum(counts) == q * (q - 1) * (q + 1)


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(factorize(q).pairs) == 1]


def orders_present(counts):
    """The orders e with a nonzero count counts[e]."""
    return [e for e, c in enumerate(counts) if c]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_psl2_census_matches_enumeration(q):
    counts = enumerated_order_counts(q, *field_tables(q))
    assert psl2_spectrum(q).members() == orders_present(counts)


def trace_counts(field):
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


def recurrence_order_counts(q):
    """enumerated_order_counts(q) by trace, for any prime power q; about q^2
    steps.

    For det A = 1, Cayley-Hamilton gives A^n = U_n(t)*A - U_(n-1)(t)*I
    with t the trace, U_0 = 0, U_1 = 1 and U_(n+1) = t*U_n - U_(n-1).  So
    a non-scalar A has a scalar n-th power exactly when U_n(t) = 0, and
    its order is fixed by its trace.  The scalars +-I (one of them when p
    is 2) have order 1; their traces +-2 have U_n(+-2) = +-n, first zero
    at n = p, so they move from entry p to entry 1.
    """
    ((p, k),) = factorize(q).pairs
    field = make_field(p, k)
    counts = [0] * (4 * q + 8)
    limit = len(counts) - 1
    for t, matrices in trace_counts(field):
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
    return counts


@pytest.mark.parametrize("q", [81, 125, 127, 128, 169])
def test_torus_census_matches_recurrence_beyond_the_bound(q):
    # beyond enumeration's bound, q <= 64
    counts = recurrence_order_counts(q)
    assert sum(counts) == q * (q - 1) * (q + 1)
    assert psl2_spectrum(q).members() == orders_present(counts)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if q % 2])
def test_trace_census_counts_follow_quadratic_character(q):
    # SL2(q), q odd, has q^2 + chi(t^2 - 4) * q matrices of trace t, with
    # chi the quadratic character (chi(0) = 0), read off a set of squares
    ((p, k),) = factorize(q).pairs
    field = make_field(p, k)
    elements = [field.element_at(n) for n in range(q)]
    squares = {(x * x).value for x in elements}
    four = field.element([4] + [0] * (k - 1))
    for t, count in trace_counts(field):
        disc = t * t - four
        chi = 0 if disc.is_zero else (1 if disc.value in squares else -1)
        assert count == q * q + chi * q, (q, t)
