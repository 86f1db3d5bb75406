"""Differential tests against independent oracles: the closed-form
geometric sum against direct accumulation, field arithmetic at a large
prime against Python's modular integers, and the PSL2 trace recurrence
against power iteration."""

import random

import pytest

from gkspec.gf import make_field, subgroup_generator
from gkspec.groups import field_tables, psl2_order_counts
from gkspec.linact import _geom_sum


def accumulated_geom_sum(u, m):
    """1 + u + ... + u^(m-1) by direct accumulation.

    Test oracle: m multiplications and additions, independent of the
    closed form (u^m - 1)/(u - 1) in gkspec.linact._geom_sum.
    """
    f = u.field
    acc = f.zero
    x = f.one
    for _ in range(m):
        acc = acc + x
        x = x * u
    return acc


@pytest.mark.parametrize("p,k,n", [(2, 11, 23), (3, 4, 16), (3, 16, 17)])
def test_geom_sum_matches_accumulation(p, k, n):
    f = make_field(p, k)
    for m in range(0, 3 * p + 2):
        assert _geom_sum(f.one, m) == f.scalar(m % p) == accumulated_geom_sum(f.one, m)
    # u of order n: the sum vanishes exactly at multiples of n
    u = subgroup_generator(f, n)
    assert _geom_sum(u, n).is_zero and _geom_sum(u, 2 * n).is_zero
    for m in (1, 2, n - 1, n + 1, 2 * n + 3):
        s = _geom_sum(u, m)
        assert s == accumulated_geom_sum(u, m) and not s.is_zero
    rng = random.Random(33)
    for _ in range(100):
        u = f.element([rng.randrange(p) for _ in range(k)])
        m = rng.randrange(0, 120)
        assert _geom_sum(u, m) == accumulated_geom_sum(u, m), (u, m)


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
