"""Differential tests: compiled kernels against the pure-Python reference,
and the PSL2 trace recurrence against a power-iteration oracle."""

import random

import pytest

from gkspec import _fallback
from gkspec.gf import make_field
from gkspec.groups import field_tables, psl2_order_counts

try:
    from gkspec import _speedups
except ImportError:
    _speedups = None

needs_compiled = pytest.mark.skipif(
    _speedups is None, reason="compiled extension not built"
)


def _random_coeffs(rng, p, k):
    return tuple(rng.randrange(p) for _ in range(k))


@needs_compiled
@pytest.mark.parametrize("p,k", [(2, 11), (3, 4), (3, 16), (23, 1), (5, 3)])
def test_gf_mul_agreement(p, k):
    f = make_field(p, k)
    rng = random.Random(31)
    for _ in range(500):
        a = _random_coeffs(rng, p, k)
        b = _random_coeffs(rng, p, k)
        assert _speedups.gf_mul(a, b, f.modulus, p) == _fallback.gf_mul(a, b, f.modulus, p)


@needs_compiled
@pytest.mark.parametrize("p,k", [(2, 11), (3, 16)])
def test_gf_pow_agreement(p, k):
    f = make_field(p, k)
    rng = random.Random(32)
    for _ in range(100):
        a = _random_coeffs(rng, p, k)
        e = rng.randrange(0, f.order)
        assert _speedups.gf_pow(a, e, f.modulus, p) == _fallback.gf_pow(a, e, f.modulus, p)


@needs_compiled
@pytest.mark.parametrize("p,k", [(2, 11), (3, 4)])
def test_gf_geom_sum_agreement(p, k):
    f = make_field(p, k)
    rng = random.Random(33)
    for _ in range(100):
        a = _random_coeffs(rng, p, k)
        m = rng.randrange(1, 120)
        assert _speedups.gf_geom_sum(a, m, f.modulus, p) == _fallback.gf_geom_sum(
            a, m, f.modulus, p
        )


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


@needs_compiled
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_psl2_counts_agreement(q):
    tables = field_tables(q)
    fast = _speedups.psl2_order_counts(q, *tables)
    slow = power_iteration_counts(q, *tables)
    assert list(fast) == list(slow)
    assert sum(fast) == q * (q - 1) * (q + 1)


def test_fallback_counts_total_is_sl2_size():
    for q in (2, 3, 5, 7):
        counts = power_iteration_counts(q, *field_tables(q))
        assert sum(counts) == q * (q - 1) * (q + 1)


def test_backend_reports_a_name():
    from gkspec._core import backend_name

    assert backend_name() in ("compiled", "pure")
