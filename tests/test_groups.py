"""Named constructions: the three-prime witness, GammaL1 groups, PSL2 spectra."""

import re
import time
from math import gcd

import pytest

from gkspec import groups, verify
from gkspec.gf import element_order
from gkspec.groups import (
    SemidirectSpec,
    build_gamma_frobenius,
    build_remark_group,
    check_proposition_hypotheses,
    parse_psl2_name,
    psl2_order_counts,
    psl2_order_formula,
    psl2_spectrum,
)
from gkspec.linact import action_order
from gkspec.orderset import OrderSet, factorize, j4_spectrum
from gkspec.verify import run_checks


# -- the three-prime witness -----------------------------------------------------

def test_remark_group_structure():
    spec = build_remark_group()
    assert [(f.p, f.k) for f in spec.summands] == [(3, 16), (3, 4)]
    assert spec.actor_orders == (17, 5)
    assert spec.acting_group_size == 85
    assert [element_order(g) for g in spec.generators] == [17, 5]
    assert len(spec.acting_elements()) == 85


def test_acting_elements_built_once_in_order():
    spec = build_remark_group()
    first, second = spec.acting_elements(), spec.acting_elements()
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    g1, g2 = spec.generators
    assert [tuple(c.mult for c in h.components) for h in first] == [
        (g1**i, g2**j) for i in range(17) for j in range(5)
    ]
    first.clear()
    assert len(spec.acting_elements()) == 85


def test_remark_group_spectrum():
    s = build_remark_group().spectrum()
    assert s.members() == [1, 3, 5, 15, 17, 51, 85]
    assert s.pi() == (3, 5, 17)
    assert s.sigma() == 2


def test_remark_group_hypotheses_hold_with_equality():
    s = build_remark_group().spectrum()
    assert check_proposition_hypotheses(s) == ((), ())
    assert s.pi() == (3, 5, 17)
    assert s.sigma() == 2


def _sampling_result():
    (result,) = run_checks(only="remark.sampling").results
    return result


def test_remark_sampling_fails_on_an_order_outside_the_spectrum(monkeypatch):
    true_order = verify.semidirect_element_order
    monkeypatch.setattr(
        verify, "semidirect_element_order", lambda v, h: 2 * true_order(v, h)
    )
    result = _sampling_result()
    assert result.status == "fail"
    assert re.fullmatch(
        r"sampled element order \d+ outside the structural spectrum", result.detail
    )


def test_remark_sampling_fails_when_an_expected_order_is_missed(monkeypatch):
    # every pair reported with its acting element's order: 3, 15 and 51 never show
    monkeypatch.setattr(verify, "semidirect_element_order", lambda v, h: h.order())
    result = _sampling_result()
    assert result.status == "fail"
    assert result.detail == "sampling missed expected orders: observed [1, 5, 17, 85]"


def test_proposition_checker_trivial_spectrum():
    s = OrderSet.from_generators([1])
    assert check_proposition_hypotheses(s) == ((), ())
    assert s.pi() == ()
    assert s.sigma() == 0


def test_proposition_checker_fails_on_j4():
    s = j4_spectrum()
    cond1, cond2 = check_proposition_hypotheses(s)
    # parity alone breaks the divisibility condition: 2 divides q - 1 for odd q
    assert (2, 3) in cond1
    assert cond2
    assert len(s.pi()) > 3


def test_proposition_checker_lists_failing_pairs_in_order():
    # pi = {2, 3, 5}: 2 divides 3 - 1 and 5 - 1; 10 and 15 are not members
    s = OrderSet.from_generators([6, 5])
    assert check_proposition_hypotheses(s) == (((2, 3), (2, 5)), ((2, 5), (3, 5)))


def test_semidirect_spec_validation():
    with pytest.raises(ValueError):
        SemidirectSpec.build(((3, 4),), (7,))  # 7 does not divide 80
    with pytest.raises(ValueError):
        SemidirectSpec.build(((2, 11), (2, 11)), (2047, 2047))  # too large


def test_semidirect_spec_checks_every_generator():
    remark = build_remark_group()
    summands, gens = remark.summands, remark.generators
    assert SemidirectSpec(summands, (17, 5), gens).spectrum().members() == [1, 3, 5, 15, 17, 51, 85]
    with pytest.raises(ValueError):
        SemidirectSpec(summands, (17, 5), gens[:1])  # one generator short
    with pytest.raises(ValueError):
        # the identity is no generator of order 17: the spectrum would lose 17, 51, 85
        SemidirectSpec(summands, (17, 5), (summands[0].one, gens[1]))
    with pytest.raises(ValueError):
        SemidirectSpec(summands, (17, 5), (gens[0], gens[1] ** 5))


# -- GammaL1 configurations --------------------------------------------------------

def test_gamma_23_11():
    gamma = build_gamma_frobenius(2, 11, 23)
    assert len(gamma.actions) == 23 * 11
    assert gamma.kernel_order == 23 and gamma.complement_order == 11
    assert gamma.frobenius_config
    # the arithmetic witness: 2 has order 11 modulo 23
    assert [j for j in range(1, 12) if pow(2, j, 23) == 1] == [11]


def test_gamma_89_11():
    gamma = build_gamma_frobenius(2, 11, 89)
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
    gamma = build_gamma_frobenius(3, 16, 17)
    assert gamma.complement_order == 16
    # 3 has order 16 modulo 17, so the full Galois complement acts freely
    assert gamma.frobenius_config


def test_gamma_non_frobenius_configuration():
    # 2^6 - 1 = 63 = 7 * 9; the order of 2 modulo 7 is 3 < 6, so a proper
    # Galois power fixes kernel elements
    gamma = build_gamma_frobenius(2, 6, 7)
    assert not gamma.frobenius_config


def test_gamma_rejects_bad_divisibility():
    with pytest.raises(ValueError):
        build_gamma_frobenius(2, 11, 7)
    with pytest.raises(ValueError):
        build_gamma_frobenius(2, 11, 23, complement_order=5)


def test_gamma_refuses_acting_group_beyond_enumeration_limit():
    # 2^61 - 1 divides |GF(2^61)| - 1, so only the size bound stops this
    # before it lists (2^61 - 1) * 61 maps
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="too large to enumerate"):
        build_gamma_frobenius(2, 61, 2**61 - 1)
    assert time.perf_counter() - t0 < 1.0


def test_gamma_element_orders_match_frobenius_structure():
    # in a Frobenius group of order 253 every element order is 1, 11 or 23
    gamma = build_gamma_frobenius(2, 11, 23)
    orders = sorted({action_order(a) for a in gamma.actions})
    assert orders == [1, 11, 23]


def test_gamma_23_11_complement_moves_every_kernel_element():
    # field-level confirmation of the Frobenius flag: no proper Galois power
    # fixes any nontrivial 23rd root of unity
    gamma = build_gamma_frobenius(2, 11, 23)
    f = gamma.field
    zeta = gamma.kernel_generator
    for e in range(1, 11):
        for i in range(1, 23):
            x = zeta**i
            assert f.frobenius(x, e) != x


# -- PSL2 spectra from the torus census --------------------------------------------

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


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(factorize(q).pairs) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_psl2_order_matches_formula(q):
    # the census counts SL2(q), whose centre has gcd(2, q - 1) elements
    assert psl2_order_formula(q) * gcd(2, q - 1) == sum(psl2_order_counts(q))


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
    with pytest.raises(ValueError):
        psl2_spectrum(6)
    with pytest.raises(ValueError):
        psl2_spectrum(65)
    with pytest.raises(ValueError):
        psl2_spectrum(1)


@pytest.mark.parametrize("q", [65, 1021, 1_000_003])
def test_psl2_order_counts_refuses_large_q_at_once(q):
    # refused before anything is factored or allocated; q = 1,000,003 alone
    # would ask for a list of 4q + 8 counts
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"q must be a prime power in \[2, 64\]"):
        psl2_order_counts(q)
    assert time.perf_counter() - t0 < 1.0


def test_psl2_order_counts_checks_census_total(monkeypatch):
    census = groups._torus_census
    # drop the last eigenvalue of the non-split torus
    monkeypatch.setattr(groups, "_torus_census", lambda q, p: list(census(q, p))[:-1])
    with pytest.raises(AssertionError, match="torus census missed"):
        psl2_order_counts(23)


def test_psl2_spectrum_is_memoized():
    assert psl2_spectrum(23) is psl2_spectrum(23)
    psl2_spectrum.cache_clear()
    assert run_checks().ok
    # q = 23, 29, 32, 43: the db.load crosschecks reuse the psl2.* results
    assert psl2_spectrum.cache_info().misses == 4


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

