"""Order-set algebra: construction, queries, products, randomized laws."""

import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkspec import orderset, verify
from gkspec.atlasdb import load, record, stored_spectrum
from gkspec.orderset import (
    Factorization,
    INT64_MAX,
    OrderSet,
    _divisors,
    _is_prime,
    _rho_factor,
    factorize,
    product_spectrum,
    wreath2_spectrum,
)

# the maximal elements of spec(J4) (ATLAS), as the embedded database stores them
J4_GENERATORS = (16, 23, 24, 28, 29, 30, 31, 35, 37, 40, 42, 43, 44, 66)
PI_1 = {5, 11, 23, 29, 31, 37, 43}
PI_2 = {7, 11, 23, 29, 31, 37, 43}
J4 = stored_spectrum(load(), "J4")
J4X2 = product_spectrum(J4, J4)


def brute_divisors(n):
    return {d for d in range(1, n + 1) if n % d == 0}


# Trial division up to sqrt(n), the library's former method, kept as the
# oracle for the Miller-Rabin and Pollard-rho code that replaced it.

def trial_is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_factorize(n):
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


# -- factorize ----------------------------------------------------------------

def test_factorize_small():
    assert factorize(2310).pairs == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))
    assert factorize(1).pairs == ()
    assert factorize(2047).pairs == ((23, 1), (89, 1))


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)
    with pytest.raises(OverflowError):
        factorize(2**63)


def test_factorize_roundtrip_random():
    rng = random.Random(101)
    for _ in range(500):
        n = rng.randrange(1, 10**7)
        f = factorize(n)
        assert prod(p**e for p, e in f.pairs) == n
        for p, e in f.pairs:
            assert e >= 1
            assert factorize(p).pairs == ((p, 1),)


def test_is_prime_matches_trial_division_below_2_17():
    assert [n for n in range(2**17) if _is_prime(n)] == [
        n for n in range(2**17) if trial_is_prime(n)
    ]


def test_is_prime_across_the_miller_rabin_threshold():
    # _is_prime's own threshold, 37^2, is inside the test above; 2^20 is
    # factorize's, below which a cofactor is prime without a test
    for n in range(2**20 - 3000, 2**20 + 3000):
        assert _is_prime(n) == trial_is_prime(n), n


def test_is_prime_matches_sympy():
    # an oracle written by other hands, on random n across the 64-bit range
    from sympy import isprime
    rng = random.Random(2063)
    for _ in range(2000):
        n = rng.randrange(2**20, 2**63)
        assert _is_prime(n) == isprime(n), n
    for _ in range(200):
        n = rng.randrange(2**20, 2**63) | 1
        while not isprime(n):
            n += 2
        assert _is_prime(n), n


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    for n in (561, 41041, 825265):  # Carmichael numbers
        assert not _is_prime(n)
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7, and
    # 3825123056546413051 to every prime base up to 31, so only base 37
    # exposes it
    assert trial_factorize(3215031751) == ((151, 1), (751, 1), (28351, 1))
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert factorize(3825123056546413051).pairs == (
        (149491, 1), (747451, 1), (34233211, 1)
    )
    # psi_12 = 399165290221 * 798330580441 passes all twelve bases; it lies
    # above 2^63, where the test refuses to answer
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    with pytest.raises(OverflowError, match=str(psi_12)):
        _is_prime(psi_12)
    with pytest.raises(OverflowError):
        _is_prime(INT64_MAX + 1)


def test_factorize_matches_trial_division_on_hard_cofactors():
    # products of two primes above 2^10, squares and cubes of such primes,
    # and such products times a small part: cofactors that Pollard rho
    # must split
    rng = random.Random(707)
    primes = [p for p in range(1031, 40000) if trial_is_prime(p)]
    for _ in range(80):
        p, q = rng.choice(primes), rng.choice(primes)
        for n in (p * q, p * p, p**3, rng.randrange(1, 2**16) * p * q):
            assert factorize(n).pairs == trial_factorize(n), n


def test_rho_factor_retries_with_the_next_constant():
    # for 31 of these (21, 25, 95, ...) the walk with c = 1 closes on n
    # itself, so only a later c splits them
    for n in range(9, 3000, 2):
        if not trial_is_prime(n):
            d = _rho_factor(n)
            assert 1 < d < n and n % d == 0, n


def test_factorize_output_passes_public_validation():
    # factorize builds its result without the Factorization prime check;
    # the public constructor, which checks, must accept the same pairs
    rng = random.Random(707)
    primes = [p for p in range(1031, 40000) if trial_is_prime(p)]
    cases = [1000000000000000003, (2**31 - 1) ** 2, 2147483629 * 2147483647]
    for _ in range(20):
        p, q = rng.choice(primes), rng.choice(primes)
        cases += [p * q, p * p, p**3, rng.randrange(1, 2**16) * p * q]
    for n in cases:
        f = factorize(n)
        assert Factorization(f.pairs) == f and prod(p**e for p, e in f.pairs) == n, n
    assert factorize(cases[0]).pairs == ((1000000000000000003, 1),)
    assert factorize(cases[1]).pairs == ((2147483647, 2),)
    assert factorize(cases[2]).pairs == ((2147483629, 1), (2147483647, 1))


def test_divisors_match_brute_force():
    rng = random.Random(808)
    for n in [1, 2, 720720, 999983, 2**19] + [rng.randrange(1, 10**6) for _ in range(12)]:
        assert _divisors(factorize(n).pairs) == sorted(brute_divisors(n)), n


def test_factorization_is_computed_once_per_instance(monkeypatch):
    # the prime and member queries share one factorization of the antichain;
    # a fresh copy, loaded before the counting starts, since validating the
    # record already queries its spectrum's primes
    j4 = stored_spectrum(load(), "J4")._replace()
    calls = []
    monkeypatch.setattr(orderset, "factorize", lambda n: calls.append(n) or factorize(n))
    for _ in range(2):
        assert len(j4.members()) == 31 and len(j4.pi()) == 10
        assert j4.sigma() == 3 and j4.restricted_sigma(verify.PI_1) == 1
    assert calls == list(J4_GENERATORS)


@settings(max_examples=300, deadline=2000)
@given(st.integers(1, INT64_MAX))
def test_factorize_roundtrip_int64(n):
    f = factorize(n)
    assert prod(p**e for p, e in f.pairs) == n
    assert all(_is_prime(p) for p in f.primes)
    # factors below 2^40 are checked against the oracle as well
    assert all(p >= 2**40 or trial_is_prime(p) for p in f.primes)


def test_j4_order_reconstructs():
    # |J4| in the ATLAS's prime-power form; the database's J4 record parses to it
    j4_order = Factorization(
        ((2, 21), (3, 3), (5, 1), (7, 1), (11, 3), (23, 1), (29, 1), (31, 1), (37, 1), (43, 1))
    )
    assert prod(p**e for p, e in j4_order.pairs) == (
        2**21 * 3**3 * 5 * 7 * 11**3 * 23 * 29 * 31 * 37 * 43
    )
    assert j4_order == record(load(), "J4").order


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((2147483629 * 2147483647, 1),))  # composite past the prime table
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponent < 1


# -- construction and membership ----------------------------------------------

def test_generators_are_already_an_antichain():
    assert OrderSet.from_generators(J4_GENERATORS).maximal_elements == J4_GENERATORS
    assert J4.maximal_elements == J4_GENERATORS


def test_from_generators_reduces():
    assert OrderSet.from_generators([2, 4]).maximal_elements == (4,)
    assert OrderSet.from_generators([6, 2, 3, 6]).maximal_elements == (6,)
    with pytest.raises(ValueError):
        OrderSet.from_generators([0, 3])
    with pytest.raises(ValueError):
        OrderSet.from_generators([])


# The quadratic filter from_generators used before its descending sweep,
# kept as the oracle: a distinct generator is maximal iff no other one is a
# multiple of it.

def quadratic_antichain(gens):
    uniq = sorted(set(gens))
    return tuple(g for g in uniq if not any(h != g and h % g == 0 for h in uniq))


# small values, divisor chains up to 3 * 2^61 and 2^62, and values just
# below 2^63
GENERATOR = st.one_of(
    st.integers(1, 60),
    st.integers(0, 61).map(lambda e: 3 << e),
    st.integers(0, 62).map(lambda e: 1 << e),
    st.integers(INT64_MAX - 2**20, INT64_MAX),
)


@settings(max_examples=300, deadline=5000)
@given(st.lists(GENERATOR, min_size=1, max_size=12), st.integers(0, 12), st.randoms())
def test_from_generators_matches_quadratic_filter(gens, repeats, rnd):
    gens = gens + gens[:repeats]  # duplicates
    rnd.shuffle(gens)
    s = OrderSet.from_generators(gens)
    assert s.maximal_elements == quadratic_antichain(gens)
    assert OrderSet.from_generators(gens + [1]) == s
    # the trusted path returns nothing the validating constructor refuses
    assert OrderSet(s.maximal_elements) == s


def test_direct_construction_validates_antichain():
    for bad in ((2, 4), (4, 2), (), (2, 2), (6, 4), (0,)):
        with pytest.raises(ValueError):
            OrderSet(bad)
    with pytest.raises(OverflowError):
        OrderSet((2**63,))


def test_j4_expansion_has_31_members():
    members = J4.members()
    assert len(members) == 31
    expected = set()
    for g in J4_GENERATORS:
        expected |= brute_divisors(g)
    assert members == sorted(expected)


def test_membership():
    s = J4
    assert s.contains(66)
    assert s.contains(1)
    assert not s.contains(46)
    assert 44 in s
    assert 55 not in s
    with pytest.raises(ValueError):
        s.contains(0)


# -- pi and sigma ---------------------------------------------------------------

def test_pi():
    assert J4.pi() == (2, 3, 5, 7, 11, 23, 29, 31, 37, 43)
    assert OrderSet.from_generators([1]).pi() == ()
    remark = OrderSet.from_generators([15, 51, 85])
    assert remark.pi() == (3, 5, 17)


def test_sigma():
    assert J4.sigma() == 3
    assert OrderSet.from_generators([1]).sigma() == 0
    assert OrderSet.from_generators([15, 51, 85]).sigma() == 2


def test_restricted_sigma():
    prod = J4X2
    assert prod.restricted_sigma(PI_1) == 2
    assert prod.restricted_sigma(PI_2) == 2
    assert prod.restricted_sigma(set()) == 0
    assert J4.restricted_sigma({2, 3, 11}) == 3  # attained by 66


def test_sigma_of_product():
    prod = J4X2
    assert prod.sigma() == 5  # 2310 attains it; subadditivity is not tight
    assert prod.contains(2310)


# -- products -------------------------------------------------------------------

def test_product_examples():
    prod = J4X2
    assert prod.contains(2310)
    for n in (9, 25, 32):
        assert not prod.contains(n)
    s = OrderSet.from_generators([5, 12, 14])
    assert product_spectrum(s, OrderSet.from_generators([1])) == s
    small = product_spectrum(
        OrderSet.from_generators([2, 3]), OrderSet.from_generators([5])
    )
    assert small.members() == [1, 2, 3, 5, 10, 15]


def test_product_overflow_is_loud():
    a = OrderSet.from_generators([2**62])
    b = OrderSet.from_generators([3])
    with pytest.raises(OverflowError):
        product_spectrum(a, b)


def test_wreath2():
    w = wreath2_spectrum(J4)
    assert w.contains(32)
    assert not J4X2.contains(32)
    assert wreath2_spectrum(OrderSet.from_generators([1])).members() == [1, 2]


def test_serialize_parse_roundtrip():
    s = J4
    assert s.serialize() == "16,23,24,28,29,30,31,35,37,40,42,43,44,66"
    assert OrderSet.parse(s.serialize()) == s
    with pytest.raises(ValueError):
        OrderSet.parse("3,x")


# -- randomized laws --------------------------------------------------------------

def random_orderset(rng, max_gens=4, max_val=60):
    gens = [rng.randrange(1, max_val + 1) for _ in range(rng.randrange(1, max_gens + 1))]
    return OrderSet.from_generators(gens)


def test_divisor_closure_random():
    rng = random.Random(202)
    for _ in range(1000):
        s = random_orderset(rng)
        n = rng.choice(s.maximal_elements)
        # every divisor of a member is a member
        for d in brute_divisors(n):
            assert s.contains(d)
        # and a non-divisor of everything is not
        m = rng.randrange(1, 200)
        assert s.contains(m) == any(x % m == 0 for x in s.maximal_elements)


def test_antichain_idempotence_random():
    rng = random.Random(303)
    for _ in range(1000):
        s = random_orderset(rng)
        assert OrderSet.from_generators(s.maximal_elements) == s


def test_product_laws_random():
    rng = random.Random(404)
    one = OrderSet.from_generators([1])
    for _ in range(1000):
        a = random_orderset(rng, max_gens=3, max_val=40)
        b = random_orderset(rng, max_gens=3, max_val=40)
        ab = product_spectrum(a, b)
        # commutativity
        assert ab == product_spectrum(b, a)
        # identity
        assert product_spectrum(a, one) == a
        # monotonicity: enlarge a by one extra generator
        extra = rng.randrange(1, 40)
        a2 = OrderSet.from_generators(list(a.maximal_elements) + [extra])
        ab2 = product_spectrum(a2, b)
        assert ab.issubset(ab2)
        # prime-power reduction
        p = rng.choice([2, 3, 5, 7])
        e = rng.randrange(1, 6)
        q = p**e
        assert ab.contains(q) == (a.contains(q) or b.contains(q))


def test_product_matches_bruteforce_oracle_random():
    rng = random.Random(505)
    for _ in range(300):
        a = random_orderset(rng, max_gens=3, max_val=40)
        b = random_orderset(rng, max_gens=3, max_val=40)
        brute = set()
        for x in a.members():
            for y in b.members():
                v = x // gcd(x, y) * y
                brute |= brute_divisors(v)
        assert sorted(brute) == product_spectrum(a, b).members()


def test_sigma_subadditive_random():
    rng = random.Random(606)
    for _ in range(300):
        a = random_orderset(rng, max_gens=3, max_val=50)
        b = random_orderset(rng, max_gens=3, max_val=50)
        assert product_spectrum(a, b).sigma() <= a.sigma() + b.sigma()


# Values straddling 2^63: large ones around the bound and smaller ones whose
# lcm with a large one may or may not overflow.
NEAR_INT64 = st.one_of(
    st.integers(INT64_MAX - 2**40, INT64_MAX + 2**40),
    st.integers(2**29, 2**34),
    st.integers(1, 2**8),
)


@settings(max_examples=200, deadline=5000)
@given(st.lists(NEAR_INT64, min_size=1, max_size=3), st.lists(NEAR_INT64, min_size=1, max_size=3))
def test_orderset_laws_near_int64_max(xs, ys):
    if max(xs + ys) > INT64_MAX:
        with pytest.raises(OverflowError):
            OrderSet.from_generators(xs + ys)
        with pytest.raises(OverflowError):
            OrderSet.parse(",".join(map(str, xs + ys)))
        return
    a, b = OrderSet.from_generators(xs), OrderSet.from_generators(ys)
    assert OrderSet.from_generators(a.maximal_elements) == a
    assert OrderSet.parse(a.serialize()) == a
    assert all(a.contains(x) for x in xs) and not a.contains(max(xs) + 1)
    lcms = {x // gcd(x, y) * y for x in a.maximal_elements for y in b.maximal_elements}
    if max(lcms) > INT64_MAX:
        with pytest.raises(OverflowError):
            product_spectrum(a, b)
        with pytest.raises(OverflowError):
            product_spectrum(b, a)
    else:
        ab = product_spectrum(a, b)
        assert ab == product_spectrum(b, a) == OrderSet.from_generators(lcms)
        assert a.issubset(ab) and b.issubset(ab)
        assert ab.pi() == tuple(sorted(set(a.pi()) | set(b.pi())))
    assert product_spectrum(a, OrderSet((1,))) == a
    squares = {x // gcd(x, y) * y for x in a.maximal_elements for y in a.maximal_elements}
    doubled = {2 * m for m in a.maximal_elements}
    if max(squares | doubled) > INT64_MAX:
        with pytest.raises(OverflowError):
            wreath2_spectrum(a)
    else:
        assert wreath2_spectrum(a) == OrderSet.from_generators(squares | doubled)


def test_int64_boundary_values_ok():
    s = OrderSet.from_generators([INT64_MAX])
    assert s.contains(INT64_MAX)
    with pytest.raises(OverflowError):
        OrderSet.from_generators([INT64_MAX + 1])
