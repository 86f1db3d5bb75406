"""Differential tests against independent oracles: packed GF(p^k)
arithmetic and the field constructor against the coefficient-tuple kernels
they replaced, field arithmetic at a large prime against Python's modular
integers, and the PSL2 trace recurrence against power iteration."""

import random

import pytest

from gkspec._poly import gcd, trim
from gkspec.gf import make_field
from gkspec.groups import field_tables, psl2_order_counts
from gkspec.orderset import prime_divisors

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
    for r in prime_divisors(k):
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


DIFFERENTIAL_FIELDS = [
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
    recurrence in gkspec.groups.psl2_order_counts.
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
    assert psl2_order_counts(q, *tables) == power_iteration_counts(q, *tables)


def test_fallback_counts_total_is_sl2_size():
    for q in (2, 3, 5, 7):
        counts = power_iteration_counts(q, *field_tables(q))
        assert sum(counts) == q * (q - 1) * (q + 1)
