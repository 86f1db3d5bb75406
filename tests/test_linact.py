"""Semilinear actions, T-sums, semidirect element orders and spectra."""

import random
import sys
import threading
from functools import cache
from itertools import count, islice, product as iproduct
from math import gcd, lcm

import pytest

from gkspec.gf import FiniteField, make_field, element_order, subgroup_generator
from gkspec.groups import build_gamma_frobenius, build_remark_group
from gkspec import verify
from gkspec.linact import (
    LinearAction,
    action_order,
    fixed_space_dim,
    is_fixed_point_free,
    minimal_polynomial,
    minpoly_equals_xs_minus_1,
    semidirect_element_order,
    semidirect_spectrum,
    _closure,
    _t_sum_on,
)
from gkspec.orderset import OrderSet

F2_11 = make_field(2, 11)
F3_4 = make_field(3, 4)
GALOIS = LinearAction.galois(F2_11)
ZETA23 = subgroup_generator(F2_11, 23)
MULT23 = LinearAction.multiplication(ZETA23)
U5 = subgroup_generator(F3_4, 5)
MULT5 = LinearAction.multiplication(U5)


def _random_element(field, rng):
    return field.element(tuple(rng.randrange(field.p) for _ in range(field.k)))


def _random_action(field, rng):
    while True:
        u = _random_element(field, rng)
        if not u.is_zero:
            return LinearAction(field, u, rng.randrange(field.k))


def action_powers(h):
    """h^0, h^1, h^2, ... read off apply alone: h^j is x -> u_j x^(p^(je)),
    so j * e mod k is its Galois exponent and u_j = h^j(1) is h applied j
    times to 1.  Test oracle, independent of any composition formula."""
    f, u = h.field, h.field.one
    for j in count():
        yield LinearAction(f, u, j * h.galois_exp % f.k)
        u = h.apply(u)


# Plain-list matrix arithmetic over GF(p) for the oracles below, independent
# of gkspec.linact.GFMatrix; a matrix is a sequence of rows.

def plain_identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def plain_mul(a, b, p):
    """The product a * b."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) % p for c in cols] for r in a]


def plain_combination(coeffs, mats, p):
    """The sum of c * M over the pairs (c, M) of coeffs and mats."""
    return [
        [sum(c * x for c, x in zip(coeffs, entries)) % p for entries in zip(*rows)]
        for rows in zip(*mats)
    ]


def plain_power(a, j, p):
    """a^j, j >= 0, by square-and-multiply."""
    result = plain_identity(len(a))
    while j:
        if j & 1:
            result = plain_mul(result, a, p)
        a = plain_mul(a, a, p)
        j >>= 1
    return result


def plain_t_sum(a, m, p):
    """The defining sum A^0 + A^1 + ... + A^(m-1) of T_m, for A = a."""
    k = len(a)
    t_sum, power = [[0] * k for _ in range(k)], plain_identity(k)
    for _ in range(m):
        t_sum = plain_combination((1, 1), (t_sum, power), p)
        power = plain_mul(power, a, p)
    return t_sum


# -- construction and matrices ----------------------------------------------------

def test_action_validation():
    with pytest.raises(ValueError):
        LinearAction(F2_11, F2_11.zero, 0)
    with pytest.raises(ValueError):
        LinearAction(F2_11, F2_11.one, 11)
    with pytest.raises(ValueError):
        LinearAction(F2_11, F3_4.one, 0)


def test_linearity_audit_random():
    rng = random.Random(11)
    for field in (F2_11, F3_4):
        for _ in range(1000):
            h = _random_action(field, rng)
            a, b = _random_element(field, rng), _random_element(field, rng)
            assert h.apply(a + b) == h.apply(a) + h.apply(b)
            lam = field.element([rng.randrange(field.p)] + [0] * (field.k - 1))
            assert h.apply(lam * a) == lam * h.apply(a)


def test_matrix_realizes_action():
    rng = random.Random(14)
    for field in (F2_11, F3_4):
        for _ in range(100):
            h = _random_action(field, rng)
            m = h.matrix()
            v = _random_element(field, rng)
            assert tuple(m.matvec(v.coeffs)) == h.apply(v).coeffs


@pytest.mark.parametrize("p,k", [(3, 16), (7, 9)])
def test_matrix_columns_are_powers_of_the_frobenius_image(p, k):
    # column j is u * (x^j)^(p^e), by square-and-multiply, not by the tables
    field = FiniteField(p, k, make_field(p, k).modulus)
    x = field.element([0, 1] + [0] * (k - 2))
    rng = random.Random(p * k)
    for _ in range(10):
        u, e = _random_element(field, rng), rng.randrange(k)
        if u.is_zero:
            continue
        rows = LinearAction(field, u, e).matrix().rows
        for j in range(k):
            column = tuple(row[j] for row in rows)
            assert column == (u * (x**j) ** (p**e)).coeffs, (u, e, j)


# -- orders -------------------------------------------------------------------------

def test_action_order_examples():
    f316 = make_field(3, 16)
    assert action_order(LinearAction.multiplication(subgroup_generator(f316, 17))) == 17
    assert action_order(GALOIS) == 11
    assert action_order(LinearAction(F2_11, F2_11.one, 0)) == 1


def test_action_order_matches_naive_iteration():
    rng = random.Random(15)
    for _ in range(200):
        h = _random_action(F3_4, rng)
        n = action_order(h)
        steps = next(j for j, hj in enumerate(action_powers(h)) if j and hj.is_identity or j > 400)
        assert steps == n


# -- fixed spaces and minimal polynomials ---------------------------------------------

def test_fixed_space_dims():
    assert fixed_space_dim(LinearAction(F2_11, F2_11.one, 0)) == 11
    assert fixed_space_dim(GALOIS) == 1  # the prime subfield
    assert fixed_space_dim(MULT23) == 0


def test_minpoly_galois_is_x11_minus_1():
    # verify's linact.galois instance, against both matrix computations
    assert minpoly_equals_xs_minus_1(GALOIS, 11)
    x11_minus_1 = tuple([1] + [0] * 10 + [1])  # x^11 + 1 = x^11 - 1 over GF(2)
    assert minimal_polynomial(GALOIS.matrix()) == x11_minus_1
    assert enumerated_minimal_polynomial(GALOIS.matrix().rows, 2) == x11_minus_1


def test_minpoly_mult5_degree_capped_below_s():
    # the multiplier generates GF(3^4) over GF(3), so its minimal polynomial
    # has degree 4 and cannot reach x^5 - 1
    assert element_order(U5) == 5
    assert not minpoly_equals_xs_minus_1(MULT5, 5)
    assert len(minimal_polynomial(MULT5.matrix())) - 1 == 4


def test_minpoly_preconditions():
    with pytest.raises(ValueError):
        minpoly_equals_xs_minus_1(LinearAction(F2_11, F2_11.one, 0), 1)  # 1 not prime
    with pytest.raises(ValueError):
        minpoly_equals_xs_minus_1(GALOIS, 5)  # order is 11, not 5


def test_minimal_polynomial_annihilates():
    rng = random.Random(16)
    p = F3_4.p
    for _ in range(100):
        m = _random_action(F3_4, rng).matrix()
        mp = minimal_polynomial(m)
        powers = [plain_identity(F3_4.k)]
        for _ in mp[1:]:
            powers.append(plain_mul(powers[-1], m.rows, p))
        assert not any(map(any, plain_combination(mp, powers, p)))


def enumerated_minimal_polynomial(rows, p):
    """The first monic g, by increasing degree and then lexicographically,
    with g(M) = 0.

    Test oracle: plain list arithmetic on the powers of M, independent of
    the Krylov scan and its early stop in gkspec.linact.minimal_polynomial.
    """
    k = len(rows)
    powers = [plain_identity(k)]
    for _ in range(k):
        powers.append(plain_mul(powers[-1], rows, p))
    for d in range(1, k + 1):
        for tail in iproduct(range(p), repeat=d):
            g = tail + (1,)
            if not any(map(any, plain_combination(g, powers, p))):
                return g
    raise AssertionError("no annihilating polynomial of degree <= k")


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2)])
def test_minimal_polynomial_matches_enumeration(p, k):
    f = make_field(p, k)
    rng = random.Random(17 + p)
    multipliers = [f.element([a] + [0] * (k - 1)) for a in range(1, p)]  # the prime subfield
    multipliers += [_random_element(f, rng) for _ in range(12)]
    degrees = set()
    for u in multipliers:
        if u.is_zero:
            continue
        for e in range(k):
            m = LinearAction(f, u, e).matrix()
            mp = minimal_polynomial(m)
            assert mp == enumerated_minimal_polynomial(m.rows, p), (u, e)
            degrees.add(len(mp) - 1)
    # both the early stop at degree k and lcms that never reach it occur
    assert k in degrees and min(degrees) < k


def closed_form_minimal_polynomial(h):
    """mu_c(x^t) for h = u x^(p^e): t = k / gcd(e, k), h^t is multiplication
    by c, and mu_c is the product of y - r over the distinct conjugates
    r = c^(p^i) of c, the minimal polynomial of c over GF(p).

    Test oracle: c = h^t(1) comes from action_powers, not from the closure.
    """
    f = h.field
    t = f.k // gcd(h.galois_exp, f.k)
    ht = next(islice(action_powers(h), t, None))
    assert ht.galois_exp == 0
    conjugates = [ht.mult]
    while conjugates[-1] ** f.p != ht.mult:
        conjugates.append(conjugates[-1] ** f.p)
    mu = [f.one]  # ascending coefficients, field elements
    for r in conjugates:
        mu = [a - r * b for a, b in zip([f.zero] + mu, mu + [f.zero])]
    poly = [0] * (t * len(conjugates) + 1)
    for i, a in enumerate(mu):
        assert not any(a.coeffs[1:])  # mu_c lies over GF(p)
        poly[i * t] = a.coeffs[0]
    return tuple(poly)


# (p, k) of the semidirect benchmark workload's fields
SEMIDIRECT_FIELDS = (
    (2, 11), (3, 16), (3, 4), (2, 8), (2, 10), (2, 12), (2, 16), (3, 8),
    (3, 12), (5, 4), (5, 6), (5, 10), (7, 4), (7, 6), (7, 9),
)


@pytest.mark.parametrize("p,k", SEMIDIRECT_FIELDS)
def test_minimal_polynomial_matches_closed_form(p, k):
    f = make_field(p, k)
    rng = random.Random(100 * p + k)
    for e in range(k):
        for u in [f.one] + [f.element_at(rng.randrange(1, f.order)) for _ in range(2)]:
            h = LinearAction(f, u, e)
            assert minimal_polynomial(h.matrix()) == closed_form_minimal_polynomial(h), (u, e)


def test_lemma2_dichotomy_on_instance_corpus():
    # wherever the minimal polynomial is exactly x^s - 1, the fixed space is
    # nontrivial; instances with prime order in the constructed corpus
    instances = [(GALOIS, 11), (MULT5, 5), (MULT23, 23)]
    gamma = build_gamma_frobenius(2, 11, 23, 11)
    for a in gamma.actions:
        if not a.is_identity and action_order(a) in (11, 23):
            instances.append((a, action_order(a)))
    checked = 0
    for h, s in instances:
        if minpoly_equals_xs_minus_1(h, s):
            assert fixed_space_dim(h) >= 1
            checked += 1
    assert checked  # the Galois instances realize the hypothesis


@pytest.mark.parametrize(
    "p,k", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]
)
def test_minpoly_equals_xs_minus_1_matches_matrix(p, k):
    # every action of prime order s, against the Krylov minimal polynomial
    # of its matrix; both answers occur on every field
    f = make_field(p, k)
    answers = set()
    for n, e in iproduct(range(1, f.order), range(k)):
        h = LinearAction(f, f.element_at(n), e)
        s = action_order(h)
        if s > 1 and all(s % d for d in range(2, s)):
            target = tuple([(-1) % p] + [0] * (s - 1) + [1])
            expected = minimal_polynomial(h.matrix()) == target
            assert minpoly_equals_xs_minus_1(h, s) == expected, (h, s)
            answers.add(expected)
    assert answers == {True, False}


# -- T-sums -----------------------------------------------------------------------------

def test_t_sum_base_cases():
    # T_1, and verify's linact.kernel and linact.galois instances, by the
    # defining sum of matrix powers
    assert plain_t_sum(GALOIS.matrix().rows, 1, 2) == plain_identity(11)
    assert not any(map(any, plain_t_sum(MULT23.matrix().rows, 23, 2)))
    assert all(semidirect_element_order(b, MULT23) == 23 for b in F2_11.basis())
    # the 11-step sum of Frobenius powers is the trace onto GF(2), and
    # the trace of 1 is 11 mod 2 = 1
    trace = plain_t_sum(GALOIS.matrix().rows, 11, 2)
    assert [row[0] for row in trace] == list(F2_11.one.coeffs)
    assert _t_sum_on(GALOIS, 11, F2_11.one) == F2_11.one


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_t_sum_kills_matches_defining_sum_exhaustive(p, k):
    # every action x -> u x^(p^e) and every vector of a small field; the
    # oracle sums the matrices A^0 + ... + A^(m-1) of h directly, m the
    # order of h.  T_m is the zero map exactly when the plan (m, t) has
    # m != t, and the spectrum gains p*m exactly when it is not.  Each h^j
    # is another action of the walk, so the spectrum of GF(p^k) x| <h> is
    # checked against the closure of the largest orders m_j or p*m_j of
    # the pairs (v, h^j) found there; m is checked as the number of powers
    # of h, so this reads no plan
    field = make_field(p, k)
    vectors = [field.element_at(n) for n in range(field.order)]
    columns = list(zip(*(v.coeffs for v in vectors)))  # every vector, as a k x q matrix
    zero_maps, verdicts = set(), {}
    for u, e in iproduct(vectors[1:], range(k)):
        h = LinearAction(field, u, e)
        m, t = h._plan
        t_sum = plain_t_sum(h.matrix().rows, m, p)
        zero_map = not any(map(any, t_sum))
        assert (m != t) == zero_map, h
        assert semidirect_spectrum(h).contains(p * m) == (not zero_map), h
        images = list(zip(*plain_mul(t_sum, columns, p)))
        for v, image in zip(vectors, images):
            assert semidirect_element_order(v, h) == (p * m if any(image) else m), (h, v)
        zero_maps.add(zero_map)
        verdicts[h] = (m, zero_map)
    assert zero_maps == {True, False}
    for h, (m, _) in verdicts.items():
        powers = list(islice(action_powers(h), 1, m + 1))
        assert powers[-1].is_identity and not any(hj.is_identity for hj in powers[:-1]), h
        gens = {mj if zero else p * mj for mj, zero in map(verdicts.get, powers)}
        assert semidirect_spectrum(h) == OrderSet.from_generators(gens), h


def test_t_sum_on_matches_defining_sum():
    # T_1 is the identity; for t > 1 the single-vector sum agrees with the
    # defining sum of matrix powers
    rng = random.Random(23)
    for field in (F2_11, F3_4):
        p = field.p
        for _ in range(25):
            h = _random_action(field, rng)
            a = h.matrix().rows
            t = _closure(h)[0]
            for m in sorted({1, 2, t, t + 1}):
                t_sum = plain_t_sum(a, m, p)
                for _ in range(3):
                    v = _random_element(field, rng)
                    got = _t_sum_on(h, m, v)
                    if m == 1:
                        assert got == v
                    column = [[x] for x in v.coeffs]
                    assert [[x] for x in got.coeffs] == plain_mul(t_sum, column, p), (h, m, v)


# -- semidirect element orders ------------------------------------------------------------

def test_semidirect_order_base_cases():
    assert semidirect_element_order(F2_11.zero, GALOIS) == 11
    assert semidirect_element_order(F2_11.one, LinearAction(F2_11, F2_11.one, 0)) == 2
    assert semidirect_element_order(F3_4.one, LinearAction(F3_4, F3_4.one, 0)) == 3
    # the vector 1 has trace 1, realizing an order-22 element
    assert semidirect_element_order(F2_11.one, GALOIS) == 22


def _brute_pair_order(v, h):
    """Order of (v, h) by direct repeated multiplication,
    (v, a)(w, b) = (v + a(w), ab): (v, h)^n (v, h) = (c_n + h^n(v), h^(n+1))
    for (v, h)^n = (c_n, h^n), with h^n(v) carried along by one apply per
    step; no T-sum involved."""
    cv, hv = v, v
    for n, hn in enumerate(islice(action_powers(h), 1, None), 1):
        if hn.is_identity and cv.is_zero:
            return n
        hv = h.apply(hv)
        cv = cv + hv
        assert n < 2000


def test_order_dichotomy_gamma_frobenius_1000_cases():
    gamma = build_gamma_frobenius(2, 11, 23, 11)
    actions = [a for a in gamma.actions]
    rng = random.Random(18)
    p = 2
    for _ in range(1000):
        h = rng.choice(actions)
        v = _random_element(F2_11, rng)
        m = action_order(h)
        got = semidirect_element_order(v, h)
        assert got in (m, p * m)
        assert got == _brute_pair_order(v, h)


def _remark_factors():
    """(field, actions) for the two factors field x| <h> of the remark
    group, every power of its multiplication h as a multiplication."""
    return [
        (h.field, [LinearAction.multiplication(h.mult**i) for i in range(element_order(h.mult))])
        for h in build_remark_group()
    ]


def test_order_dichotomy_remark_group_1000_cases():
    # (v, h) = ((v1, v2), (h1, h2)) has the order lcm of its factor orders
    factors = _remark_factors()
    rng = random.Random(19)
    p = 3
    for _ in range(1000):
        pairs = [(_random_element(f, rng), rng.choice(actions)) for f, actions in factors]
        m = lcm(*(action_order(h) for _, h in pairs))
        got = lcm(*(semidirect_element_order(v, h) for v, h in pairs))
        assert got in (m, p * m)
        assert got == lcm(*(_brute_pair_order(v, h) for v, h in pairs))


def _remark_group_order(v, exponents, generators, orders):
    """Order of ((v1, v2), (i1, i2)) in the whole remark group, the actor
    g1^i1 * g2^i2 acting componentwise: multiplied out by
    ((v_j), (i_j)) ((w_j), (k_j)) = ((v_j + g_j^i_j w_j), (i_j + k_j))."""
    cv, ce = v, exponents
    n = 1
    while any(ce) or any(not x.is_zero for x in cv):
        cv = tuple(x + g**i * y for x, g, i, y in zip(cv, generators, ce, v))
        ce = tuple((i + k) % m for i, k, m in zip(ce, exponents, orders))
        n += 1
        assert n <= 2000
    return n


def test_plan_orders_match_pair_oracle_remark_group():
    # all 85 actors with the 4 zero patterns of (v1, v2), v_j in {0, 1}: the
    # whole-group product against the lcm of the factor orders, from the
    # plan rule and from verify's multiplied-out tables
    actions = build_remark_group()
    fields = [h.field for h in actions]
    gens = [h.mult for h in actions]
    orders = [element_order(g) for g in gens]
    tables = [verify._factor_orders(h) for h in actions]
    members = set()
    for exponents in iproduct(*map(range, orders)):
        for zs in iproduct((0, 1), repeat=2):
            v = tuple(f.one if z else f.zero for f, z in zip(fields, zs))
            got = _remark_group_order(v, exponents, gens, orders)
            plan = lcm(*(
                semidirect_element_order(x, LinearAction.multiplication(g**i))
                for x, g, i in zip(v, gens, exponents)
            ))
            table = lcm(*(t[i][z] for t, i, z in zip(tables, exponents, zs)))
            assert got == plan == table, (exponents, zs)
            members.add(got)
    assert sorted(members) == verify._remark_spectrum().members()


def _plan_vectors(field, rng):
    """Zero, and a random vector."""
    return [field.zero, _random_element(field, rng)]


def _plan_cases():
    """(field, actions): the two factors of the remark group, and every
    third LinearAction of 23:11 on GF(2^11)."""
    return _remark_factors() + [(F2_11, build_gamma_frobenius(2, 11, 23, 11).actions[::3])]


def test_plan_same_whichever_caller_fills_it():
    # h._replace() is an equal element whose plan is not yet computed
    rng = random.Random(26)
    for field, actions in _plan_cases():
        for h in actions:
            vectors = _plan_vectors(field, rng) + _plan_vectors(field, rng)[1:]
            # a fresh action per query never reuses a plan
            fresh = [semidirect_element_order(v, h._replace()) for v in vectors]
            fresh_spectrum = semidirect_spectrum(h._replace())
            spectrum_first = h._replace()
            assert semidirect_spectrum(spectrum_first) == fresh_spectrum
            assert [semidirect_element_order(v, spectrum_first) for v in vectors] == fresh
            order_first = h._replace()
            assert [semidirect_element_order(v, order_first) for v in vectors] == fresh
            assert semidirect_spectrum(order_first) == fresh_spectrum
            t, c = _closure(h)
            plan = (t * element_order(c), t)
            assert spectrum_first._plan == order_first._plan == plan


def test_plan_invisible_to_eq_hash_repr():
    for _, actions in _plan_cases():
        for h in actions[:20]:
            planned, bare = h._replace(), h._replace()
            before = hash(planned)
            planned._plan
            assert planned == bare and bare == planned
            assert hash(planned) == hash(bare) == before
            assert repr(planned) == repr(bare)
            assert len({planned, bare}) == 1


def test_plan_filled_by_racing_threads():
    # in each round, threads query the same fresh actions, whose plans are
    # not yet computed, in the same order; every answer must equal the one
    # computed on a private action
    rng = random.Random(27)
    cases = []
    for field, actions in _plan_cases():
        vectors = [_random_element(field, rng) for _ in actions]
        expected = [semidirect_element_order(v, h._replace()) for v, h in zip(vectors, actions)]
        cases.append((vectors, actions, expected))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            for vectors, actions, expected in cases:
                shared = [h._replace() for h in actions]
                results = [None] * 4

                def work(slot):
                    results[slot] = [
                        semidirect_element_order(v, h) for v, h in zip(vectors, shared)
                    ]

                threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 4
    finally:
        sys.setswitchinterval(old_interval)


def test_semidirect_order_input_validation():
    with pytest.raises(ValueError):
        semidirect_element_order(F3_4.zero, GALOIS)
    # the field check is by equality: an equal but distinct field is accepted
    twin = FiniteField(2, 11, F2_11.modulus)
    assert twin is not F2_11 and twin == F2_11
    for n in (1, 1234):  # the orders 11 and 22
        expected = semidirect_element_order(F2_11.element_at(n), GALOIS)
        assert semidirect_element_order(twin.element_at(n), GALOIS) == expected
    # same characteristic, another degree
    with pytest.raises(ValueError):
        semidirect_element_order(make_field(2, 5).one, GALOIS)
    assert semidirect_spectrum(LinearAction.galois(twin)) == semidirect_spectrum(GALOIS)


# -- semidirect spectra ---------------------------------------------------------------------

def test_semidirect_spectrum_galois():
    spec = semidirect_spectrum(GALOIS)
    assert spec.contains(22)
    assert spec.members() == [1, 2, 11, 22]


def test_semidirect_spectrum_frobenius_kernel():
    spec = semidirect_spectrum(MULT23)
    assert spec.members() == [1, 2, 23]
    assert not spec.contains(46)


# -- fixed-point freeness and Frobenius arithmetic ----------------------------------------------

def test_is_fixed_point_free():
    assert is_fixed_point_free(MULT23)
    assert not is_fixed_point_free(GALOIS)  # fixes the prime subfield
    f316 = make_field(3, 16)
    assert is_fixed_point_free(
        LinearAction.multiplication(subgroup_generator(f316, 17))
    )
    with pytest.raises(ValueError):
        is_fixed_point_free(LinearAction(F2_11, F2_11.one, 0))


# Test oracles for the closed forms read off the closure (t, c): plain-list
# matrix arithmetic on the powers of h, independent of norms and closures.

def plain_rank(rows, p):
    """Rank over GF(p) of a list-of-rows matrix, by row reduction."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for i in range(len(m)):
            if i != rank and m[i][c] % p:
                f = m[i][c] * inv
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def plain_fixed_dim(rows, p):
    """Dimension of the fixed space of a matrix: k - rank(A - I)."""
    k = len(rows)
    return k - plain_rank(plain_combination((1, -1), (rows, plain_identity(k)), p), p)


@cache
def power_scans(p, k, exponents=None):
    """Every action u x^(p^e) of GF(p^k), e in exponents (default all),
    with the fixed-space dimensions of its powers h^0, h^1, ..., h^(o-1),
    o the order of h: the matrix of h is multiplied up, with plain lists,
    until it returns to the identity."""
    field = make_field(p, k)
    ident = plain_identity(k)
    scans = []
    for n, e in iproduct(range(1, field.order), exponents or range(k)):
        h = LinearAction(field, field.element_at(n), e)
        a = h.matrix().rows
        dims, power = [], ident
        while not dims or power != ident:
            dims.append(plain_fixed_dim(power, p))
            power = plain_mul(power, a, p)
            assert len(dims) <= k * field.order
        scans.append((h, dims))
    return scans


CLOSED_FORM_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]


@pytest.mark.parametrize("p,k", CLOSED_FORM_FIELDS)
def test_action_order_matches_power_scan_exhaustive(p, k):
    for h, dims in power_scans(p, k):
        assert action_order(h) == len(dims), h


@pytest.mark.parametrize("p,k", CLOSED_FORM_FIELDS)
def test_fixed_space_dim_matches_plain_rank_exhaustive(p, k):
    for h, _ in power_scans(p, k):
        assert fixed_space_dim(h) == plain_fixed_dim(h.matrix().rows, p), h


@pytest.mark.parametrize("p,k", CLOSED_FORM_FIELDS)
def test_is_fixed_point_free_matches_power_scan_exhaustive(p, k):
    verdicts = set()
    for h, dims in power_scans(p, k):
        if not h.is_identity:
            free = not any(dims[1:])
            assert is_fixed_point_free(h) == free, h
            verdicts.add(free)
    assert verdicts == {False, True}


def test_is_fixed_point_free_needs_every_prime_of_t():
    # on GF(3^6) with e = 1, t = 6 and c lies in GF(3); no such h is
    # fixed-point-free, though those with c = -1 fix nothing themselves
    scans = power_scans(3, 6, (1,))
    assert any(dims[1] == 0 for _, dims in scans)
    for h, dims in scans:
        assert any(dims[1:]), h  # the oracle's verdict
        assert not is_fixed_point_free(h), h


def test_is_fixed_point_free_beyond_ten_thousand():
    # h = z x^(3^8) on GF(3^16), z primitive: h^2 multiplies by the norm of
    # z, a generator of GF(3^8)*, so h has order 2 * 6560.  The oracle uses
    # that h^j fixes a vector only if h^(n/r) does for some prime r | n
    f = make_field(3, 16)
    h = LinearAction(f, subgroup_generator(f, f.order - 1), 8)
    n = action_order(h)
    assert n == 13120
    a = h.matrix().rows
    assert all(plain_fixed_dim(plain_power(a, n // r, 3), 3) == 0 for r in (2, 5, 41))
    assert is_fixed_point_free(h)
    f216 = make_field(2, 16)
    z = LinearAction.multiplication(subgroup_generator(f216, f216.order - 1))
    assert action_order(z) == 65535
    a = z.matrix().rows
    assert all(plain_fixed_dim(plain_power(a, 65535 // r, 2), 2) == 0 for r in (3, 5, 17, 257))
    assert is_fixed_point_free(z)


def test_lemma1_instance_gamma_23_11():
    # the 23:11 configuration acting on GF(2^11)+: the complement generator
    # has nontrivial fixed space and the semidirect product with its cyclic
    # group reaches order 2*11
    gamma = build_gamma_frobenius(2, 11, 23, 11)
    assert gamma.frobenius_config
    assert fixed_space_dim(GALOIS) > 0
    assert semidirect_spectrum(GALOIS).contains(22)
