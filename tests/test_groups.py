"""Named constructions: the three-prime witness, GammaL1 groups, PSL2 spectra."""

import random
import re
import time
from functools import reduce
from math import floor, gcd
from types import SimpleNamespace

import pytest

from gkspec import groups, verify
from gkspec.gf import FiniteField, element_order, make_field, subgroup_generator
from gkspec.groups import (
    build_gamma_frobenius,
    build_remark_group,
    check_proposition_hypotheses,
    gamma_frobenius_config,
    parse_psl2_name,
    psl2_order_formula,
    psl2_spectrum,
)
from gkspec.linact import (
    LinearAction,
    action_order,
    semidirect_element_order,
    semidirect_spectrum,
)
from gkspec.atlasdb import load, stored_spectrum
from gkspec.orderset import OrderSet, factorize, product_spectrum
from gkspec.verify import run_checks
from test_kernels import PRIME_POWERS_TO_64, enumerated_order_counts, field_tables


# -- the three-prime witness -----------------------------------------------------

def test_remark_group_structure():
    actions = build_remark_group()
    assert all(isinstance(h, LinearAction) and h.galois_exp == 0 for h in actions)
    assert [(h.field.p, h.field.k) for h in actions] == [(3, 16), (3, 4)]
    assert [element_order(h.mult) for h in actions] == [17, 5]


def test_remark_group_spectrum():
    s = verify.Corpus().remark_spectrum()
    assert s.members() == [1, 3, 5, 15, 17, 51, 85]
    assert s.pi() == (3, 5, 17)
    assert s.sigma() == 2


def test_remark_group_hypotheses_hold_with_equality():
    s = verify.Corpus().remark_spectrum()
    assert check_proposition_hypotheses(s) == ((), ())
    assert s.pi() == (3, 5, 17)
    assert s.sigma() == 2


def _sampling_result():
    (result,) = run_checks(only="remark.sampling").results
    return result


def test_remark_sampling_fails_on_an_order_outside_the_spectrum(monkeypatch):
    true_orders = verify._factor_orders
    monkeypatch.setattr(
        verify,
        "_factor_orders",
        lambda h: [[2 * o for o in row] for row in true_orders(h)],
    )
    result = _sampling_result()
    assert result.status == "fail"
    assert re.fullmatch(
        r"sampled element order \d+ outside the structural spectrum", result.detail
    )


def test_remark_sampling_fails_when_an_expected_order_is_missed(monkeypatch):
    # every pair reported with its acting element's order: 3, 15 and 51 never show
    true_orders = verify._factor_orders
    monkeypatch.setattr(
        verify,
        "_factor_orders",
        lambda h: [[row[0], row[0]] for row in true_orders(h)],
    )
    result = _sampling_result()
    assert result.status == "fail"
    assert result.detail == "sampling missed expected orders: observed [1, 5, 17, 85]"


def test_remark_sampling_fails_on_a_member_no_element_has(monkeypatch):
    # 255 = 3 * 5 * 17 is no element order; the sampled orders still all lie
    # in the widened spectrum, so only the equality with the 340 orders fails
    true_spectrum = verify.Corpus().remark_spectrum()
    widened = OrderSet.from_generators(true_spectrum.maximal_elements + (255,))

    class WidenedCorpus(verify.Corpus):
        def __init__(self, db_path=None):
            super().__init__(db_path)
            self.remark_spectrum = lambda: widened

    monkeypatch.setattr(verify, "Corpus", WidenedCorpus)
    result = _sampling_result()
    assert result.status == "fail"
    assert result.detail == (
        "element orders [1, 3, 5, 15, 17, 51, 85] differ from the structural spectrum"
    )


def test_verify_builds_the_remark_witness_once(monkeypatch):
    # the three remark checks share the run's witness and its spectrum
    calls = []
    build = groups.build_remark_group
    monkeypatch.setattr(groups, "build_remark_group", lambda: calls.append(1) or build())
    assert run_checks().ok
    assert len(calls) == 1


def test_remark_sampling_draws_the_seeded_stream(monkeypatch):
    # every draw the check makes, as its Random's choices returns it, against
    # an independent replay of the seeded stream.  The group is
    # (GF(3^16) x| C17) x (GF(3^4) x| C5), each cyclic actor fixed-point-free
    # on its field, so a factor element (v, h) has order 1 (v = 0, h = 1),
    # 3 (v != 0, h = 1) or the actor's order (h != 1).  Counting the pairs of
    # factor elements by the lcm of their orders gives each element order's
    # count, and floor(random() * n) numbers the n elements order by order,
    # ascending.
    draws = []

    class Recording(random.Random):
        def choices(self, *args, **kwargs):
            drawn = super().choices(*args, **kwargs)
            draws.extend(drawn)
            return drawn

    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=Recording))
    assert _sampling_result().status == "pass"
    counts = {
        1: 1,
        3: 3**20 - 1,
        5: 4 * 81,
        15: (3**16 - 1) * 4 * 81,
        17: 16 * 3**16,
        51: 16 * 3**16 * 80,
        85: 16 * 3**16 * 4 * 81,
    }
    n = sum(counts.values())
    assert n == 85 * 3**20
    rng = random.Random(verify.SAMPLE_SEED)
    expected = []
    for _ in range(10**4):
        r = floor(rng.random() * n)
        for order, count in counts.items():
            if r < count:
                expected.append(order)
                break
            r -= count
    assert draws == expected


def two_walk_factor_orders(h):
    """orders[i][z] for (z, g^i), z = 0 and 1 walked separately by
    (v, u)(w, x) = (v + u*w, u*x) until the identity: the former form of
    verify._factor_orders, kept as the oracle for its one walk per row."""
    field = h.field
    orders, u = [], field.one
    while not (orders and u.is_one):
        row = []
        for v in (field.zero, field.one):
            w, x, n = v, u, 1
            while not (w.is_zero and x.is_one):
                w, x, n = w + x * v, x * u, n + 1
            row.append(n)
        orders.append(row)
        u = u * h.mult
    return orders


def test_factor_orders_match_the_two_walk_oracle():
    tables = [verify._factor_orders(h) for h in build_remark_group()]
    assert tables == [two_walk_factor_orders(h) for h in build_remark_group()]
    assert sum(len(row) for table in tables for row in table) == 44


def test_factor_orders_multiply_only_to_list_the_powers(monkeypatch):
    # g^1, ..., g^m, the last back at one: 17 and 5 field multiplications;
    # every row's walk only adds and reads the list
    actions = build_remark_group()
    calls = []
    true_mul = FiniteField._mul

    def counting(field, a, b):
        calls[-1] += 1
        return true_mul(field, a, b)

    monkeypatch.setattr(FiniteField, "_mul", counting)
    for h in actions:
        calls.append(0)
        verify._factor_orders(h)
    assert calls == [17, 5]


def test_factor_order_tables_match_semidirect_element_order():
    # the 17 * 2 + 5 * 2 = 44 entries, each multiplied out in verify,
    # against the plan rule of linact
    entries = 0
    for h, m in zip(build_remark_group(), (17, 5)):
        f, g = h.field, h.mult
        table = verify._factor_orders(h)
        assert len(table) == m
        for i, row in enumerate(table):
            power = LinearAction.multiplication(g**i)
            assert row == [semidirect_element_order(v, power) for v in (f.zero, f.one)], (f, i)
            entries += len(row)
    assert entries == 44


def test_proposition_checker_trivial_spectrum():
    s = OrderSet.from_generators([1])
    assert check_proposition_hypotheses(s) == ((), ())
    assert s.pi() == ()
    assert s.sigma() == 0


def test_proposition_checker_fails_on_j4():
    s = stored_spectrum(load(), "J4")
    cond1, cond2 = check_proposition_hypotheses(s)
    # parity alone breaks the divisibility condition: 2 divides q - 1 for odd q
    assert (2, 3) in cond1
    assert cond2
    assert len(s.pi()) > 3


def test_proposition_checker_lists_failing_pairs_in_order():
    # pi = {2, 3, 5}: 2 divides 3 - 1 and 5 - 1; 10 and 15 are not members
    s = OrderSet.from_generators([6, 5])
    assert check_proposition_hypotheses(s) == (((2, 3), (2, 5)), ((2, 5), (3, 5)))


def _multiplication(p, k, m):
    """The multiplication by the chosen element of order m on GF(p^k)."""
    return LinearAction.multiplication(subgroup_generator(make_field(p, k), m))


def test_semidirect_spec_spectrum_is_product_of_factors():
    # an acting group of 2047^2 elements, C2047 on each of two copies of
    # GF(2^11), built as the remark spectrum is; one plan per factor
    h = _multiplication(2, 11, 2047)
    factor = semidirect_spectrum(h)
    assert factor.members() == sorted({1, 2} | {d for d in range(1, 2048) if 2047 % d == 0})
    both = reduce(product_spectrum, map(semidirect_spectrum, (h, h)))
    assert both == product_spectrum(factor, factor)
    assert both.maximal_elements == (2 * 2047,)


def test_semidirect_spec_large_actor_orders_in_bounded_time():
    # every multiplication order dividing |F| - 1 is accepted, up to
    # 2^61 - 1 on GF(2^61): a factor spectrum is the closure of {m, p} for a
    # unit multiplication of order m, and no power of it is formed
    t0 = time.perf_counter()
    m17, m61 = 2**17 - 1, 2**61 - 1
    mersenne17 = semidirect_spectrum(_multiplication(2, 17, m17))
    assert mersenne17.maximal_elements == (2, m17)
    kernel23 = semidirect_spectrum(_multiplication(2, 11, 23))
    pair = product_spectrum(mersenne17, kernel23)
    assert pair.maximal_elements == (2 * 23, 2 * m17, 23 * m17)
    mersenne61 = semidirect_spectrum(_multiplication(2, 61, m61))
    assert mersenne61.maximal_elements == (2, m61)
    c2, c5 = (semidirect_spectrum(_multiplication(3, 4, m)) for m in (2, 5))
    assert c5.maximal_elements == (3, 5)
    assert product_spectrum(mersenne61, c2).maximal_elements == (6, 2 * m61, 3 * m61)
    # with C5 the element order 5 * (2^61 - 1) leaves the 64-bit range
    with pytest.raises(OverflowError):
        product_spectrum(mersenne61, c5)
    assert time.perf_counter() - t0 < 1.0


# -- GammaL1 configurations --------------------------------------------------------

def test_gamma_23_11():
    gamma = build_gamma_frobenius(2, 11, 23, 11)
    assert len(gamma.actions) == 23 * 11
    assert element_order(gamma.kernel_generator) == 23
    assert sorted({a.galois_exp for a in gamma.actions}) == list(range(11))
    assert gamma.frobenius_config
    # the arithmetic witness: 2 has order 11 modulo 23
    assert [j for j in range(1, 12) if pow(2, j, 23) == 1] == [11]


def test_gamma_89_11():
    gamma = build_gamma_frobenius(2, 11, 89, 11)
    assert gamma.frobenius_config
    assert len(gamma.actions) == 89 * 11
    assert [j for j in range(1, 12) if pow(2, j, 89) == 1] == [11]


def test_gamma_degenerate_complement_is_remark_cyclic():
    gamma = build_gamma_frobenius(3, 16, 17, complement_order=1)
    assert len(gamma.actions) == 17
    assert all(a.galois_exp == 0 for a in gamma.actions)
    assert not gamma.frobenius_config  # no complement to act
    orders = sorted({action_order(a) for a in gamma.actions})
    assert orders == [1, 17]


def test_gamma_full_galois_on_3_16():
    gamma = build_gamma_frobenius(3, 16, 17, 16)
    assert sorted({a.galois_exp for a in gamma.actions}) == list(range(16))
    # 3 has order 16 modulo 17, so the full Galois complement acts freely
    assert gamma.frobenius_config


def test_gamma_non_frobenius_configuration():
    # 2^6 - 1 = 63 = 7 * 9; the order of 2 modulo 7 is 3 < 6, so a proper
    # Galois power fixes kernel elements
    gamma = build_gamma_frobenius(2, 6, 7, 6)
    assert not gamma.frobenius_config


def test_gamma_frobenius_config_matches_the_built_group():
    # the flag without the listed maps, on every configuration above
    for args in ((2, 11, 23, 11), (2, 11, 89, 11), (3, 16, 17, 16), (3, 16, 17, 1), (2, 6, 7, 6)):
        assert gamma_frobenius_config(*args) is build_gamma_frobenius(*args).frobenius_config, args


def test_gamma_rejects_bad_divisibility():
    with pytest.raises(ValueError):
        build_gamma_frobenius(2, 11, 7, 11)
    with pytest.raises(ValueError):
        build_gamma_frobenius(2, 11, 23, complement_order=5)
    for args in ((2, 11, 7, 11), (2, 11, 0, 11), (2, 11, 23, 5), (2, 11, 23, 0)):
        with pytest.raises(ValueError):
            gamma_frobenius_config(*args)


def test_gamma_refuses_acting_group_beyond_enumeration_limit():
    # 2^61 - 1 divides |GF(2^61)| - 1, so only the size bound stops this
    # before it lists (2^61 - 1) * 61 maps
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="too large to enumerate"):
        build_gamma_frobenius(2, 61, 2**61 - 1, 61)
    assert time.perf_counter() - t0 < 1.0


def test_gamma_element_orders_match_frobenius_structure():
    # in a Frobenius group of order 253 every element order is 1, 11 or 23
    gamma = build_gamma_frobenius(2, 11, 23, 11)
    orders = sorted({action_order(a) for a in gamma.actions})
    assert orders == [1, 11, 23]


def test_gamma_23_11_complement_moves_every_kernel_element():
    # field-level confirmation of the Frobenius flag: no proper Galois power
    # fixes any nontrivial 23rd root of unity
    gamma = build_gamma_frobenius(2, 11, 23, 11)
    f = gamma.field
    zeta = gamma.kernel_generator
    for e in range(1, 11):
        for i in range(1, 23):
            x = zeta**i
            assert f.frobenius(x, e) != x


# -- PSL2 spectra from Dickson's closed form ---------------------------------------

def test_psl2_23():
    s = psl2_spectrum(23)
    assert s.members() == [1, 2, 3, 4, 6, 11, 12, 23]
    assert s.maximal_elements == (11, 12, 23)
    assert psl2_order_formula(23) == 6072
    assert factorize(6072).pairs == ((2, 3), (3, 1), (11, 1), (23, 1))


@pytest.mark.parametrize(
    "q,targets,expected",
    [
        (32, (11, 23, 29, 31, 37, 43), (11, 31)),
        (43, (11, 23, 29, 31, 37, 43), (11, 43)),
        (29, (5, 23, 29, 37, 43), (5, 29)),
    ],
)
def test_psl2_target_prime_intersections(q, targets, expected):
    assert tuple(sorted(set(psl2_spectrum(q).pi()) & set(targets))) == expected


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_psl2_order_matches_formula(q):
    # the enumeration counts SL2(q), whose centre has gcd(2, q - 1) elements
    total = sum(enumerated_order_counts(q, *field_tables(q)))
    assert psl2_order_formula(q) * gcd(2, q - 1) == total


@pytest.mark.parametrize("q", [5, 7, 9, 23, 29, 32, 43])
def test_psl2_orders_divide_classical_torus_orders(q):
    # consistency only: every element order divides p, (q-1)/d or (q+1)/d
    ((p, _),) = factorize(q).pairs
    d = 2 if q % 2 else 1
    allowed = (p, (q - 1) // d, (q + 1) // d)
    for m in psl2_spectrum(q).members():
        assert any(a % m == 0 for a in allowed)


def test_psl2_small_sanity():
    assert psl2_spectrum(2).members() == [1, 2, 3]  # symmetric group on 3
    assert psl2_order_formula(4) == 60  # alternating group on 5
    assert psl2_spectrum(4).members() == [1, 2, 3, 5]
    assert psl2_order_formula(5) == 60
    assert psl2_spectrum(5).members() == [1, 2, 3, 5]


def test_psl2_rejects_bad_q():
    for q in (6, 65, 1, 0, -4):
        with pytest.raises(ValueError, match=rf"^{q} is not a prime power$"):
            psl2_spectrum(q)
    with pytest.raises(OverflowError):
        psl2_spectrum(2**63)


def test_psl2_spectrum_of_a_large_q_is_at_once():
    t0 = time.perf_counter()
    s = psl2_spectrum(1_000_003)
    assert s.maximal_elements == (500001, 500002, 1000003)
    assert time.perf_counter() - t0 < 1.0


def test_parse_psl2_name():
    assert parse_psl2_name("L2(23)") == 23
    assert parse_psl2_name("L2(43^2)") == 1849
    assert parse_psl2_name("M23") is None
    assert parse_psl2_name("L2(2^63)") == 2**63
    # exponents from 64 up are out of every range; the power is never built
    assert parse_psl2_name("L2(2^64)") is None
    assert parse_psl2_name("L2(7^300000000)") is None
    # digits past int()'s 4300-digit conversion limit are never converted
    nines = "9" * 5000
    assert parse_psl2_name(f"L2(7^{nines})") is None
    assert parse_psl2_name(f"L2({nines})") is None
    assert parse_psl2_name(f"L2({nines}^2)") is None
    # leading zeros are stripped before any length decides
    assert parse_psl2_name("L2(0023)") == 23
    assert parse_psl2_name("L2(007^0002)") == 49
    assert parse_psl2_name(f"L2({'0' * 5000}43^{'0' * 5000}2)") == 1849

