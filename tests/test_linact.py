"""Semilinear actions, T-sums, semidirect element orders and spectra."""

import random
from functools import cache
from itertools import product as iproduct
from math import gcd, lcm

import pytest

from gkspec.gf import make_field, element_order, subgroup_generator
from gkspec.groups import build_gamma_frobenius, build_remark_group
from gkspec.linact import (
    ActionGroupElement,
    LinearAction,
    action_order,
    fixed_space_dim,
    frobenius_arith_check,
    is_fixed_point_free,
    minimal_polynomial,
    minpoly_equals_xs_minus_1,
    semidirect_element_order,
    semidirect_spectrum,
    t_sum_map,
    _closure,
    _t_sum_kills,
)

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


# -- construction and composition --------------------------------------------------

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
            lam = field.scalar(rng.randrange(field.p))
            assert h.apply(lam * a) == lam * h.apply(a)


def test_composition_matches_function_composition():
    rng = random.Random(12)
    for _ in range(300):
        a = _random_action(F3_4, rng)
        b = _random_action(F3_4, rng)
        x = _random_element(F3_4, rng)
        assert (a * b).apply(x) == a.apply(b.apply(x))
    a = _random_action(F2_11, rng)
    assert (a * a.inverse()).is_identity
    assert (a.inverse() * a).is_identity


def test_power_matches_repeated_composition():
    rng = random.Random(13)
    for _ in range(100):
        h = _random_action(F3_4, rng)
        acc = LinearAction.identity(F3_4)
        for j in range(6):
            assert h.power(j) == acc
            acc = h * acc


def test_matrix_realizes_action():
    rng = random.Random(14)
    for field in (F2_11, F3_4):
        for _ in range(100):
            h = _random_action(field, rng)
            m = h.matrix()
            v = _random_element(field, rng)
            assert tuple(m.matvec(v.coeffs)) == h.apply(v).coeffs


# -- orders -------------------------------------------------------------------------

def test_action_order_examples():
    f316 = make_field(3, 16)
    assert action_order(LinearAction.multiplication(subgroup_generator(f316, 17))) == 17
    assert action_order(GALOIS) == 11
    assert action_order(LinearAction.identity(F2_11)) == 1


def test_action_order_matches_naive_iteration():
    rng = random.Random(15)
    for _ in range(200):
        h = _random_action(F3_4, rng)
        n = action_order(h)
        acc = h
        steps = 1
        while not acc.is_identity:
            acc = acc * h
            steps += 1
            assert steps <= 400
        assert steps == n


# -- fixed spaces and minimal polynomials ---------------------------------------------

def test_fixed_space_dims():
    assert fixed_space_dim(LinearAction.identity(F2_11)) == 11
    assert fixed_space_dim(GALOIS) == 1  # the prime subfield
    assert fixed_space_dim(MULT23) == 0


def test_minpoly_galois_is_x11_minus_1():
    assert minpoly_equals_xs_minus_1(GALOIS, 11)
    mp = minimal_polynomial(GALOIS.matrix())
    assert mp == tuple([1] + [0] * 10 + [1])  # x^11 + 1 = x^11 - 1 over GF(2)


def test_minpoly_mult5_degree_capped_below_s():
    # the multiplier generates GF(3^4) over GF(3), so its minimal polynomial
    # has degree 4 and cannot reach x^5 - 1
    assert element_order(U5) == 5
    assert not minpoly_equals_xs_minus_1(MULT5, 5)
    assert len(minimal_polynomial(MULT5.matrix())) - 1 == 4


def test_minpoly_preconditions():
    with pytest.raises(ValueError):
        minpoly_equals_xs_minus_1(LinearAction.identity(F2_11), 1)  # 1 not prime
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
    multipliers = [f.scalar(a) for a in range(1, p)]  # the prime subfield
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

    Test oracle: c comes from LinearAction.power, not from the closure.
    """
    f = h.field
    t = f.k // gcd(h.galois_exp, f.k)
    ht = h.power(t)
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
    gamma = build_gamma_frobenius(2, 11, 23)
    for a in gamma.actions:
        if not a.is_identity and action_order(a) in (11, 23):
            instances.append((a, action_order(a)))
    checked = 0
    for h, s in instances:
        if minpoly_equals_xs_minus_1(h, s):
            assert fixed_space_dim(h) >= 1
            checked += 1
    assert checked  # the Galois instances realize the hypothesis


# -- T-sums -----------------------------------------------------------------------------

def test_t_sum_base_cases():
    assert list(map(list, t_sum_map(GALOIS, 1).rows)) == plain_identity(11)
    assert t_sum_map(MULT23, 23).is_zero
    trace = t_sum_map(GALOIS, 11)
    assert not trace.is_zero
    # the 11-step sum of Frobenius powers is the trace onto GF(2)
    one_image = trace.matvec(F2_11.one.coeffs)
    assert tuple(one_image) == F2_11.one.coeffs  # trace of 1 is 11 mod 2 = 1


def test_t_sum_telescoping_random():
    rng = random.Random(17)
    for field in (F2_11, F3_4):
        p, ident = field.p, plain_identity(field.k)
        for _ in range(150):
            h = _random_action(field, rng)
            m = rng.randrange(1, 12)
            a = h.matrix().rows
            power = ident
            for _ in range(m):
                power = plain_mul(power, a, p)
            lhs = plain_mul(plain_combination((1, -1), (a, ident), p), t_sum_map(h, m).rows, p)
            assert lhs == plain_combination((1, -1), (power, ident), p)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_t_sum_kills_matches_defining_sum_exhaustive(p, k):
    # every action x -> u x^(p^e) and every vector of a small field; the
    # oracle sums the matrices A^0 + ... + A^(m-1) of h directly
    field = make_field(p, k)
    vectors = [field.element_at(n) for n in range(field.order)]
    columns = list(zip(*(v.coeffs for v in vectors)))  # every vector, as a k x q matrix
    ident = plain_identity(k)
    for u, e in iproduct(vectors[1:], range(k)):
        h = LinearAction(field, u, e)
        o, closure = action_order(h), _closure(h)
        a = h.matrix().rows
        for m in (o, 2 * o, p * o):
            t_sum, power = [[0] * k for _ in range(k)], ident
            for _ in range(m):
                t_sum = plain_combination((1, 1), (t_sum, power), p)
                power = plain_mul(power, a, p)
            assert _t_sum_kills(h, closure, m, field.basis()) == (not any(map(any, t_sum))), (h, m)
            images = list(zip(*plain_mul(t_sum, columns, p)))
            for v, image in zip(vectors, images):
                assert _t_sum_kills(h, closure, m, (v,)) == (not any(image)), (h, m, v)


# -- semidirect element orders ------------------------------------------------------------

def test_semidirect_order_base_cases():
    assert semidirect_element_order(F2_11.zero, GALOIS) == 11
    assert semidirect_element_order(F2_11.one, LinearAction.identity(F2_11)) == 2
    assert semidirect_element_order(F3_4.one, LinearAction.identity(F3_4)) == 3
    # the vector 1 has trace 1, realizing an order-22 element
    assert semidirect_element_order(F2_11.one, GALOIS) == 22


def _pair_mul(v, a, w, b):
    """(v, a) * (w, b) in the semidirect product, componentwise actions."""
    return tuple(x + c.apply(y) for x, c, y in zip(v, a.components, w)), a.compose(b)


def _brute_pair_order(v, h):
    """Order of (v, h) by direct repeated multiplication; no T-sum involved."""
    cv, ch = v, h
    n = 1
    while not (ch.is_identity and all(x.is_zero for x in cv)):
        cv, ch = _pair_mul(cv, ch, v, h)
        n += 1
        assert n <= 2000
    return n


def test_order_dichotomy_gamma_frobenius_1000_cases():
    gamma = build_gamma_frobenius(2, 11, 23)
    actions = [a for a in gamma.actions]
    rng = random.Random(18)
    p = 2
    for _ in range(1000):
        h = ActionGroupElement((rng.choice(actions),))
        v = (_random_element(F2_11, rng),)
        m = h.order()
        got = semidirect_element_order(v, h)
        assert got in (m, p * m)
        assert got == _brute_pair_order(v, h)


def test_order_dichotomy_remark_group_1000_cases():
    spec = build_remark_group()
    actors = spec.acting_elements()
    rng = random.Random(19)
    p = 3
    for _ in range(1000):
        h = actors[rng.randrange(len(actors))]
        v = tuple(_random_element(f, rng) for f in spec.summands)
        m = h.order()
        got = semidirect_element_order(v, h)
        assert got in (m, p * m)
        assert got == _brute_pair_order(v, h)


def test_semidirect_order_input_validation():
    with pytest.raises(ValueError):
        semidirect_element_order((F2_11.zero, F2_11.zero), GALOIS)
    with pytest.raises(ValueError):
        semidirect_element_order(F3_4.zero, GALOIS)


# -- semidirect spectra ---------------------------------------------------------------------

def test_semidirect_spectrum_galois():
    gal = [ActionGroupElement((GALOIS.power(j),)) for j in range(11)]
    spec = semidirect_spectrum((F2_11,), gal)
    assert spec.contains(22)
    assert spec.members() == [1, 2, 11, 22]


def test_semidirect_spectrum_frobenius_kernel():
    cyc = [ActionGroupElement((MULT23.power(j),)) for j in range(23)]
    spec = semidirect_spectrum((F2_11,), cyc)
    assert spec.members() == [1, 2, 23]
    assert not spec.contains(46)


def test_semidirect_spectrum_trivial_module():
    # V = 0 is not a semidirect product this function describes
    with pytest.raises(ValueError):
        semidirect_spectrum((), [1, 17, 17, 17])
    with pytest.raises(ValueError):
        semidirect_spectrum((), [])


def test_semidirect_spectrum_validation():
    with pytest.raises(ValueError):
        semidirect_spectrum((F2_11,), [ActionGroupElement((MULT23, MULT23))])
    with pytest.raises(ValueError):
        semidirect_spectrum((F3_4,), [ActionGroupElement((MULT23,))])


def test_group_element_requires_shared_characteristic():
    with pytest.raises(ValueError):
        ActionGroupElement((MULT23, MULT5))


# -- fixed-point freeness and Frobenius arithmetic ----------------------------------------------

def test_is_fixed_point_free():
    assert is_fixed_point_free(MULT23)
    assert not is_fixed_point_free(GALOIS)  # fixes the prime subfield
    f316 = make_field(3, 16)
    assert is_fixed_point_free(
        LinearAction.multiplication(subgroup_generator(f316, 17))
    )
    with pytest.raises(ValueError):
        is_fixed_point_free(LinearAction.identity(F2_11))


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


def test_is_fixed_point_free_two_summands_exhaustive():
    # every action on GF(2^4) + GF(2^2): h^j fixes a nonzero vector when
    # either component power does
    for (h1, d1), (h2, d2) in iproduct(power_scans(2, 4), power_scans(2, 2)):
        h = ActionGroupElement((h1, h2))
        if h.is_identity:
            continue
        n = lcm(len(d1), len(d2))
        assert h.order() == n
        free = not any(d1[j % len(d1)] or d2[j % len(d2)] for j in range(1, n))
        assert is_fixed_point_free(h) == free, h


def test_is_fixed_point_free_beyond_ten_thousand():
    # h = z x^(3^8) on GF(3^16), z primitive: h^2 multiplies by the norm of
    # z, a generator of GF(3^8)*, so h has order 2 * 6560.  The oracle uses
    # that h^j fixes a vector only if h^(n/r) does for some prime r | n
    f = make_field(3, 16)
    h = LinearAction(f, subgroup_generator(f, f.order - 1), 8)
    n = action_order(h)
    assert n == 13120
    assert all(plain_fixed_dim(h.power(n // r).matrix().rows, 3) == 0 for r in (2, 5, 41))
    assert is_fixed_point_free(h)
    # with a second summand of order 3 the element's cube fixes (0, 1)
    f216 = make_field(2, 16)
    z = LinearAction.multiplication(subgroup_generator(f216, f216.order - 1))
    assert action_order(z) == 65535
    assert all(plain_fixed_dim(z.power(65535 // r).matrix().rows, 2) == 0 for r in (3, 5, 17, 257))
    assert is_fixed_point_free(z)
    w = LinearAction.multiplication(subgroup_generator(make_field(2, 2), 3))
    assert w.power(3).is_identity
    assert not is_fixed_point_free(ActionGroupElement((z, w)))


def test_lemma1_instance_gamma_23_11():
    # the 23:11 configuration acting on GF(2^11)+: the complement generator
    # has nontrivial fixed space and the semidirect product with its cyclic
    # group reaches order 2*11
    gamma = build_gamma_frobenius(2, 11, 23)
    assert gamma.frobenius_config
    assert fixed_space_dim(GALOIS) > 0
    gal = [ActionGroupElement((GALOIS.power(j),)) for j in range(11)]
    assert semidirect_spectrum((F2_11,), gal).contains(22)


def test_frobenius_arith_check():
    assert frobenius_arith_check(2048, 23)
    assert frobenius_arith_check(23, 11)
    assert frobenius_arith_check(3**16, 17)
    assert frobenius_arith_check(100, 1)
    assert not frobenius_arith_check(8, 3)
    with pytest.raises(ValueError):
        frobenius_arith_check(0, 1)
