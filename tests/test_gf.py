"""Finite-field arithmetic: construction, axioms, orders, generators."""

import copy
import pickle
import random
import sys
import threading
import time
from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd

import pytest

from gkspec.gf import (
    FieldElement,
    FiniteField,
    _conjugate_power,
    _digit_rows,
    _has_root,
    _order_plan,
    element_order,
    make_field,
    subgroup_generator,
)
from gkspec.linact import LinearAction, _closure
from gkspec.orderset import factorize
from test_kernels import SEMIDIRECT_SHAPES


# -- construction ----------------------------------------------------------------

def test_make_field_sizes():
    assert make_field(3, 4).order == 81
    assert make_field(2, 11).order == 2048
    assert make_field(23, 1).modulus == (0, 1)
    assert make_field(3, 16).order == 3**16


def test_make_field_determinism():
    a = make_field(3, 4)
    b = make_field(3, 4)
    assert a is b or a.modulus == b.modulus


def test_separately_built_equal_fields_hash_alike():
    for p, k in ((2, 11), (3, 4), (23, 1)):
        a = make_field(p, k)
        b = FiniteField(p, k, a.modulus)
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == f"FiniteField(p={p}, k={k}, modulus={a.modulus})"
        x, y = a.element_at(a.order - 1), b.element_at(b.order - 1)
        assert x == y and hash(x) == hash(y) and {x: 1}[y] == 1
    assert hash(make_field(3, 4)) != hash(FiniteField(3, 4, (2, 0, 0, 1, 1)))


@dataclass(frozen=True)
class _DataclassElement:
    """The frozen dataclass FieldElement used to be, as the reference."""

    field: FiniteField
    value: int


def test_field_element_behaves_as_a_frozen_dataclass():
    f = make_field(3, 4)
    x, y, z = f.element([1, 2, 0, 1]), f.element([1, 2, 0, 1]), f.element([2, 0, 0, 1])
    ref = _DataclassElement(f, x.value)
    assert repr(x) == repr(ref).replace("_DataclassElement", "FieldElement")
    assert hash(x) == hash(ref) == hash(y)
    assert x == y and x is not y and x != z and not x != y
    assert x != ref and x != x.value and (x == ref) is False
    assert x == FieldElement(FiniteField(3, 4, f.modulus), x.value)
    for name in ("field", "value", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert not hasattr(x, "__dict__") and (x.field, x.value) == (f, ref.value)
    assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x


def test_make_field_rejects():
    with pytest.raises(ValueError):
        make_field(6, 2)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(OverflowError):
        make_field(2, 64)


def test_2048_cofactor_factors():
    assert factorize(2**11 - 1).pairs == ((23, 1), (89, 1))


# independent irreducibility oracle: trial division by every lower-degree monic
def _poly_mod(a, b, p):
    a = list(a)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * pow(b[-1], p - 2, p) % p
        s = len(a) - len(b)
        for i in range(len(b)):
            a[s + i] = (a[s + i] - c * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _brute_irreducible(poly, p):
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for tail in iproduct(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_mod(poly, divisor, p):
                return False
    return True


@pytest.mark.parametrize("p,k", [(2, 5), (2, 6), (3, 2), (3, 3), (5, 2)])
def test_modulus_is_lex_smallest_irreducible(p, k):
    f = make_field(p, k)
    assert _brute_irreducible(list(f.modulus), p)
    # nothing lexicographically smaller is irreducible
    for n in range(p**k):
        coeffs = [0] * k
        m = n
        for i in range(k - 1, -1, -1):
            coeffs[i] = m % p
            m //= p
        candidate = coeffs + [1]
        if tuple(candidate) == f.modulus:
            break
        assert not _brute_irreducible(candidate, p)


IRREDUCIBILITY_SHAPES = (
    [(2, k) for k in range(2, 10)] + [(3, k) for k in range(2, 7)]
    + [(5, 2), (5, 3), (7, 2), (7, 3)]
)


@pytest.mark.parametrize("p,k", IRREDUCIBILITY_SHAPES)
def test_is_irreducible_matches_trial_division_exhaustively(p, k):
    # every monic degree-k polynomial with a nonzero constant term
    verdicts = set()
    for c0 in range(1, p):
        for tail in iproduct(range(p), repeat=k - 1):
            f = (c0,) + tail + (1,)
            want = _brute_irreducible(list(f), p)
            assert FiniteField(p, k, f)._is_irreducible() == want, f
            verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p,k", IRREDUCIBILITY_SHAPES)
def test_root_filter_rejects_only_reducible_candidates(p, k):
    rejected = 0
    for tail in iproduct(range(p), repeat=k):
        if _has_root(list(tail), p):
            rejected += 1
            assert not _brute_irreducible(list(tail) + [1], p), tail
        elif p <= k:  # below min(p, k) = p the test sees every residue
            assert all((sum(c * a**i for i, c in enumerate(tail)) + a**k) % p for a in range(p))
    assert rejected


def _candidate_rings(p, k, monkeypatch):
    """(modulus, number of candidate rings tested) of an uncached make_field."""
    tested = []
    rabin = FiniteField._is_irreducible
    monkeypatch.setattr(FiniteField, "_is_irreducible", lambda f: tested.append(f) or rabin(f))
    modulus = make_field.__wrapped__(p, k).modulus
    monkeypatch.undo()
    return modulus, len(tested)


def test_root_filter_halves_the_candidate_rings(monkeypatch):
    # GF(3^12) tested 29 candidate rings before the root filter
    assert _candidate_rings(3, 12, monkeypatch) == (make_field(3, 12).modulus, 13)
    total = 0
    for p, k, *_ in SEMIDIRECT_SHAPES:
        modulus, rings = _candidate_rings(p, k, monkeypatch)
        assert modulus == make_field(p, k).modulus
        total += rings
    assert total == 74  # 148 before the root filter


@pytest.mark.parametrize("p", [2**31 - 1, 3037000493])
def test_make_field_of_a_large_prime_finishes_in_bounded_time(p):
    # a root filter over all of GF(p) would take p steps per candidate
    t0 = time.perf_counter()
    f = make_field.__wrapped__(p, 2)
    assert time.perf_counter() - t0 < 1.0
    assert _is_irreducible_quadratic(f.modulus, p)


def _is_irreducible_quadratic(modulus, p):
    """x^2 + bx + c is irreducible exactly when b^2 - 4c is a non-square (p odd)."""
    c, b, _ = modulus
    return pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1


# -- arithmetic laws ---------------------------------------------------------------

def _random_element(field, rng):
    return field.element(tuple(rng.randrange(field.p) for _ in range(field.k)))


@pytest.mark.parametrize("p,k,seed", [(2, 5, 1), (2, 11, 2), (3, 4, 3), (23, 1, 4), (3, 16, 5)])
def test_field_axioms_random(p, k, seed):
    f = make_field(p, k)
    rng = random.Random(seed)
    for _ in range(1000):
        a, b, c = (_random_element(f, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + f.zero == a
        assert a * f.one == a


def test_inverse_of_100_random_nonzero_elements():
    f = make_field(3, 16)
    rng = random.Random(6)
    seen = 0
    while seen < 100:
        x = _random_element(f, rng)
        if x.is_zero:
            continue
        assert x * x.inverse() == f.one
        assert x / x == f.one
        seen += 1
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


def test_lagrange_pow():
    rng = random.Random(7)
    for p, k in [(2, 11), (3, 4)]:
        f = make_field(p, k)
        for _ in range(50):
            g = _random_element(f, rng)
            if g.is_zero:
                continue
            assert g ** (f.order - 1) == f.one
    # negative exponents go through the inverse
    f = make_field(3, 4)
    x = f.element((1, 2, 0, 1))
    assert x**-1 == x.inverse()


def test_frobenius_is_additive():
    rng = random.Random(8)
    for p, k in [(2, 11), (3, 4), (3, 16)]:
        f = make_field(p, k)
        for _ in range(200):
            a, b = _random_element(f, rng), _random_element(f, rng)
            assert f.frobenius(a + b) == f.frobenius(a) + f.frobenius(b)


FROBENIUS_SHAPES = [(2, 11), (3, 16), (7, 9), (43, 2), (2, 43), (3037000493, 2)]


@pytest.mark.parametrize("p,k", FROBENIUS_SHAPES)
def test_frobenius_power_matches_square_and_multiply_and_repeated_maps(p, k):
    f = FiniteField(p, k, make_field(p, k).modulus)  # a fresh field: no table built yet
    rng = random.Random(p + k)
    xs = [f.one, f.element([p - 1] * k)] + [_random_element(f, rng) for _ in range(3)]
    for e in range(-k, 2 * k):
        for x in xs:
            want = x ** (p ** (e % k))
            v = x.value
            for _ in range(e % k):
                v = f._frobenius(v, f._frobenius_tables[1])
            assert f.frobenius(x, e) == want == FieldElement(f, v), (e, x)
    assert f == make_field(p, k) and hash(f) == hash(make_field(p, k))


def test_frobenius_tables_filled_by_racing_threads():
    # threads apply every Frobenius power on the same fresh field, whose
    # tables are not yet built; each answer must equal square-and-multiply
    p, k = 3, 16
    modulus = make_field(p, k).modulus
    rng = random.Random(29)
    xs = [_random_element(make_field(p, k), rng) for _ in range(4)]
    expected = [[(x ** (p**e)).value for e in range(k)] for x in xs]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            f = FiniteField(p, k, modulus)
            results = [None] * 4

            def work(slot):
                results[slot] = [[f.frobenius(x, e).value for e in range(k)] for x in xs]

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
            assert sorted(f._frobenius_tables) == list(range(1, k))
    finally:
        sys.setswitchinterval(old_interval)


# the semidirect benchmark's fields, verify's three and a prime field
NORM_SHAPES = sorted({s[:2] for s in SEMIDIRECT_SHAPES} | {(3, 16), (3, 4), (2, 11), (43, 1)})


@pytest.mark.parametrize("p,k", NORM_SHAPES)
def test_norm_is_the_product_of_the_conjugates(p, k):
    f = FiniteField(p, k, make_field(p, k).modulus)  # a fresh field: only the table of 1
    rng = random.Random(p * k)
    xs = [f.zero, f.one, f.element([p - 1] * k)] + [_random_element(f, rng) for _ in range(4)]
    # g = k: the norm is v itself, and no table is built
    for x in xs:
        assert f._norm(x.value, k) == x.value
    assert sorted(f._frobenius_tables) == [1]
    for g in [g for g in range(1, k) if k % g == 0]:
        for x in xs:
            want = f.one
            for i in range(k // g):
                want = want * f.frobenius(x, i * g)
            norm = FieldElement(f, f._norm(x.value, g))
            assert norm == want, (g, x)
            assert f.frobenius(norm, g) == norm  # it lies in GF(p^g)


def test_mixed_field_operations_rejected():
    a = make_field(2, 5).one
    b = make_field(3, 4).one
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


# -- orders and generators ------------------------------------------------------------

def test_element_order_exactness_random():
    rng = random.Random(9)
    for p, k in [(2, 11), (3, 4)]:
        f = make_field(p, k)
        q1 = f.order - 1
        for _ in range(100):
            x = _random_element(f, rng)
            if x.is_zero:
                continue
            m = element_order(x)
            assert q1 % m == 0
            assert x**m == f.one
            for r in factorize(m).primes:
                assert x ** (m // r) != f.one
    with pytest.raises(ValueError):
        element_order(make_field(2, 5).zero)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (7, 2), (43, 1)])
def test_element_order_exhaustive_against_repeated_multiplication(p, k):
    f = make_field(p, k)
    for n in range(1, f.order):
        x = f.element_at(n)
        y, m = x, 1
        while not y.is_one:
            y, m = y * x, m + 1
        assert element_order(x) == m, x


def test_element_order_of_powers_of_order17_generator():
    g = subgroup_generator(make_field(3, 16), 17)
    for i in range(2 * 17):
        assert element_order(g**i) == 17 // gcd(i, 17)


def full_exponent_order(x):
    """The order by Cohen's prime-power loop with every power a
    square-and-multiply on a divisor of q - 1 (the former element_order,
    kept as the oracle of the conjugate powers)."""
    f = x.field
    m = f.order - 1
    if m == 0:
        return 1
    for r, e in factorize(m).pairs:
        m //= r**e
        y = f._pow(x.value, m)
        while y != 1:
            m *= r
            e -= 1
            if not e:
                break
            y = f._pow(y, r)
    return m


# every field of at most 2^12 elements listed here is checked in full
EXHAUSTIVE_ORDER_FIELDS = [(2, 12), (3, 6), (3, 7), (5, 4), (7, 4), (43, 2), (4093, 1)]


@pytest.mark.parametrize("p,k", EXHAUSTIVE_ORDER_FIELDS)
def test_element_order_exhaustive_by_generator_powers(p, k):
    f = make_field(p, k)
    q1 = f.order - 1
    # the first element whose powers fill the multiplicative group
    for n in range(1, f.order):
        g = f.element_at(n)
        powers = [f.one]
        while (y := powers[-1] * g) != f.one:
            powers.append(y)
        if len(powers) == q1:
            break
    assert len(set(powers)) == q1 and f.zero not in powers
    for i, x in enumerate(powers):
        assert element_order(x) == q1 // gcd(i, q1), i


ORDER_SHAPES = [shape[:2] for shape in SEMIDIRECT_SHAPES] + [(43, 2), (2, 43), (2**61 - 1, 1)]


@pytest.mark.parametrize("p,k", ORDER_SHAPES)
def test_element_order_certificates_random(p, k):
    f = make_field(p, k)
    rng = random.Random(p * 100 + k)
    xs = [f.element_at(rng.randrange(1, f.order)) for _ in range(25)]
    if p == 2**61 - 1:
        xs.append(f.one)  # answered before the Frobenius orbit
    for x in xs:
        n = element_order(x)
        assert (f.order - 1) % n == 0 and x**n == f.one
        for r in factorize(n).primes:
            assert x ** (n // r) != f.one
        assert n == full_exponent_order(x)


@pytest.mark.parametrize("p,k", [(2, 12), (3, 16), (5, 10), (7, 6), (43, 2)])
def test_element_order_of_subfield_elements(p, k):
    f = make_field(p, k)
    order = element_order
    for n in range(1, p):
        n_one = f.element([n] + [0] * (k - 1))
        assert order(n_one) == next(m for m in range(1, p) if pow(n, m, p) == 1)
    rng = random.Random(p + k)
    for g in (g for g in range(1, k) if k % g == 0):
        # x^((q - 1)/(p^g - 1)) is the norm of x down to GF(p^g)
        for _ in range(10):
            x = f.element_at(rng.randrange(1, f.order)) ** ((f.order - 1) // (p**g - 1))
            assert f.frobenius(x, g) == x
            assert order(x) == full_exponent_order(x) and (p**g - 1) % order(x) == 0
    for e in range(k):
        # the closure of x -> u x^(p^e) lies in GF(p^gcd(e, k))
        u = f.element_at(rng.randrange(1, f.order))
        t, c = _closure(LinearAction(f, u, e))
        assert f.frobenius(c, k // t) == c
        assert order(c) == full_exponent_order(c) and (p ** (k // t) - 1) % order(c) == 0


@pytest.mark.parametrize("p,k", [(2, 11), (3, 4), (3, 16), (5, 10), (7, 9), (43, 2), (2, 43)])
def test_conjugate_power_matches_square_and_multiply(p, k):
    f = make_field(p, k)
    rng = random.Random(p * k)
    exponents = [1, p - 1, p, f.order - 1] + [rng.randrange(1, f.order) for _ in range(40)]
    for n in exponents:
        width, rows = _digit_rows(p, n)
        assert p ** (width - 1) <= n < p**width
        x = f.element_at(rng.randrange(f.order)).value
        conjugates = [x]
        for _ in range(width - 1):
            conjugates.append(f._frobenius(conjugates[-1], f._frobenius_tables[1]))
        assert _conjugate_power(f, conjugates, rows) == f._pow(x, n), n
    # each cofactor of the plans divides p^d - 1 and is laid out as above
    for d in (d for d in range(1, k + 1) if k % d == 0):
        reach, entries = _order_plan(p, d)
        assert [(r, e) for r, e, _, _ in entries] == list(factorize(p**d - 1).pairs)
        widths = []
        for r, e, n, rows in entries:
            width, want = _digit_rows(p, n)
            assert n * r**e == p**d - 1 and rows == want
            widths.append(width)
        assert reach == max(widths, default=1)


def test_subgroup_generator_orders():
    assert element_order(subgroup_generator(make_field(3, 16), 17)) == 17
    assert element_order(subgroup_generator(make_field(3, 4), 5)) == 5
    f = make_field(2, 11)
    assert subgroup_generator(f, 1) == f.one
    zeta = subgroup_generator(f, 23)
    assert element_order(zeta) == 23
    with pytest.raises(ValueError):
        subgroup_generator(f, 7)  # 7 does not divide 2047


def test_subgroup_generator_deterministic():
    f = make_field(3, 16)
    assert subgroup_generator(f, 17) == subgroup_generator(f, 17)


def test_frobenius_permutes_order23_subgroup():
    # the multiplicative order of 2 modulo 23 is 11, so the Frobenius orbit
    # of a 23rd root of unity has full length 11 inside the subgroup
    assert [j for j in range(1, 12) if pow(2, j, 23) == 1] == [11]
    f = make_field(2, 11)
    zeta = subgroup_generator(f, 23)
    subgroup = {zeta**i for i in range(23)}
    orbit = set()
    x = zeta
    for _ in range(11):
        x = f.frobenius(x)
        assert x in subgroup
        orbit.add(x)
    assert len(orbit) == 11


def test_multiplicative_group_cyclicity_witness():
    for p, k in [(2, 5), (3, 2), (23, 1), (2, 11), (3, 4)]:
        f = make_field(p, k)
        g = subgroup_generator(f, f.order - 1)
        assert element_order(g) == f.order - 1


# -- element indexing ------------------------------------------------------------------

def test_element_at_lexicographic():
    f = make_field(3, 2)
    seq = [f.element_at(n).coeffs for n in range(9)]
    assert seq == sorted(seq)  # lexicographic on (c0, c1)
    assert seq[0] == (0, 0)
    assert seq[1] == (0, 1)
    assert seq[3] == (1, 0)


def _digit_by_digit(f, n):
    """Coefficients of the n-th element by definition: the k base-p digits
    of n, most significant first."""
    coeffs = []
    for _ in range(f.k):
        n, c = divmod(n, f.p)
        coeffs.append(c)
    return tuple(reversed(coeffs))


# degrees from 1 to 27 and characteristics from 2 to 2^61 - 1
@pytest.mark.parametrize(
    "p,k",
    [(2, 1), (2, 5), (2, 11), (2, 16), (3, 4), (3, 16), (5, 4), (7, 9), (13, 3),
     (3, 13), (3, 17), (2, 26), (2, 27), (257, 2), (2**61 - 1, 1)],
)
def test_element_at_matches_digit_definition(p, k):
    f = make_field(p, k)
    rng = random.Random(p * 100 + k)
    for n in [0, 1, f.order - 1] + [rng.randrange(f.order) for _ in range(300)]:
        assert f.element_at(n).coeffs == _digit_by_digit(f, n), n
    for n in (-1, f.order):
        with pytest.raises(ValueError):
            f.element_at(n)


def test_field_pickles_and_copies_after_element_at():
    for p, k in ((3, 16), (3, 4), (7, 9), (257, 2)):
        f = FiniteField(p, k, make_field(p, k).modulus)
        size = len(pickle.dumps(f))
        x = f.element_at(f.order - 2)
        assert len(pickle.dumps(f)) == size  # element_at leaves no state on the field
        for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert clone == f and hash(clone) == hash(f)
            assert clone.element_at(f.order - 2) == x
        assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x)
        # the Frobenius tables built on first use travel with the field
        exponents = range(1, k, 2)
        images = [f.frobenius(x, e) for e in exponents]
        for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert clone == f and hash(clone) == hash(f)
            assert clone._frobenius_tables == f._frobenius_tables
            assert [clone.frobenius(FieldElement(clone, x.value), e) for e in exponents] == images
