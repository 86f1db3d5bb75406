"""Semilinear actions, T-sums, semidirect element orders and spectra."""

import random
from itertools import product as iproduct

import pytest

from gkspec.gf import make_field, element_order, subgroup_generator
from gkspec.groups import build_gamma_frobenius, build_remark_group
from gkspec.linact import (
    ActionGroupElement,
    GFMatrix,
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
    for _ in range(100):
        h = _random_action(F3_4, rng)
        m = h.matrix()
        mp = minimal_polynomial(m)
        acc = GFMatrix(m.p, tuple(tuple(0 for _ in row) for row in m.rows))
        power = GFMatrix.identity(m.p, m.size)
        for c in mp:
            if c:
                acc = acc.add(GFMatrix(m.p, tuple(tuple(c * x % m.p for x in row) for row in power.rows)))
            power = power.mul(m)
        assert acc.is_zero


def enumerated_minimal_polynomial(rows, p):
    """The first monic g, by increasing degree and then lexicographically,
    with g(M) = 0.

    Test oracle: plain list arithmetic on the powers of M, independent of
    the Krylov scan and its early stop in gkspec.linact.minimal_polynomial.
    """
    k = len(rows)
    powers = [[[int(i == j) for j in range(k)] for i in range(k)]]
    for _ in range(k):
        a = powers[-1]
        powers.append(
            [[sum(a[i][t] * rows[t][j] for t in range(k)) % p for j in range(k)] for i in range(k)]
        )
    for d in range(1, k + 1):
        for tail in iproduct(range(p), repeat=d):
            g = tail + (1,)
            if all(
                sum(c * powers[n][i][j] for n, c in enumerate(g)) % p == 0
                for i in range(k)
                for j in range(k)
            ):
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
    assert t_sum_map(GALOIS, 1).is_identity
    assert t_sum_map(MULT23, 23).is_zero
    trace = t_sum_map(GALOIS, 11)
    assert not trace.is_zero
    # the 11-step sum of Frobenius powers is the trace onto GF(2)
    one_image = trace.matvec(F2_11.one.coeffs)
    assert tuple(one_image) == F2_11.one.coeffs  # trace of 1 is 11 mod 2 = 1


def test_t_sum_telescoping_random():
    rng = random.Random(17)
    for field in (F2_11, F3_4):
        ident = GFMatrix.identity(field.p, field.k)
        for _ in range(150):
            h = _random_action(field, rng)
            m = rng.randrange(1, 12)
            mat = h.matrix()
            t = t_sum_map(h, m)
            assert mat.sub(ident).mul(t) == mat.pow(m).sub(ident)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_t_sum_kills_matches_defining_sum_exhaustive(p, k):
    # every action x -> u x^(p^e) and every vector of a small field; the
    # oracle sums the matrices A^0 + ... + A^(m-1) of h directly
    field = make_field(p, k)
    vectors = [field.element_at(n) for n in range(field.order)]
    ident = GFMatrix.identity(p, k)
    for u, e in iproduct(vectors[1:], range(k)):
        h = LinearAction(field, u, e)
        o = action_order(h)
        a = h.matrix()
        for m in (o, 2 * o, p * o):
            t_sum, power = ident.sub(ident), ident
            for _ in range(m):
                t_sum, power = t_sum.add(power), power.mul(a)
            assert _t_sum_kills(h, o, m, field.basis()) == t_sum.is_zero, (h, m)
            for v in vectors:
                killed = not any(t_sum.matvec(v.coeffs))
                assert _t_sum_kills(h, o, m, (v,)) == killed, (h, m, v)


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
    spec = semidirect_spectrum((), [1, 17, 17, 17])
    assert spec.members() == [1, 17]


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
