"""Named constructions: the three-prime witness, GammaL1 groups, PSL2 spectra."""

import pytest

from gkspec.gf import element_order
from gkspec.groups import (
    SemidirectSpec,
    build_gamma_frobenius,
    build_remark_group,
    check_proposition_hypotheses,
    hall_check,
    parse_psl2_name,
    psl2_order_formula,
    psl2_spectrum,
)
from gkspec.linact import action_order
from gkspec.orderset import J4_ORDER, OrderSet, factorize, j4_spectrum
from gkspec.verify import run_checks


# -- the three-prime witness -----------------------------------------------------

def test_remark_group_structure():
    spec = build_remark_group()
    assert [(f.p, f.k) for f in spec.summands] == [(3, 16), (3, 4)]
    assert spec.actor_orders == (17, 5)
    assert spec.acting_group_size == 85
    assert [element_order(g) for g in spec.generators] == [17, 5]
    assert len(spec.acting_elements()) == 85


def test_remark_group_spectrum():
    s = build_remark_group().spectrum()
    assert s.members() == [1, 3, 5, 15, 17, 51, 85]
    assert s.pi() == (3, 5, 17)
    assert s.sigma() == 2


def test_remark_group_hypotheses_hold_with_equality():
    report = check_proposition_hypotheses(build_remark_group().spectrum())
    assert report.cond1_ok and not report.cond1_failures
    assert report.cond2_ok and not report.cond2_failures
    assert report.pi == (3, 5, 17)
    assert report.sigma == 2
    assert report.bound_ok and len(report.pi) == 3


def test_proposition_checker_trivial_spectrum():
    report = check_proposition_hypotheses(OrderSet.from_generators([1]))
    assert report.cond1_ok and report.cond2_ok and report.bound_ok
    assert report.pi == ()
    assert report.sigma == 0


def test_proposition_checker_fails_on_j4():
    report = check_proposition_hypotheses(j4_spectrum())
    assert not report.cond1_ok
    # parity alone breaks the divisibility condition: 2 divides q - 1 for odd q
    assert (2, 3) in report.cond1_failures
    assert not report.bound_ok


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


# -- PSL2 spectra by enumeration ------------------------------------------------------

def test_psl2_23():
    r = psl2_spectrum(23)
    assert r.spectrum.members() == [1, 2, 3, 4, 6, 11, 12, 23]
    assert r.mu == (11, 12, 23)
    assert r.group_order == 6072
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
    r = psl2_spectrum(q)
    assert tuple(sorted(set(r.spectrum.pi()) & set(targets))) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 23, 29, 32, 43])
def test_psl2_order_matches_formula(q):
    r = psl2_spectrum(q)
    assert r.group_order == psl2_order_formula(q)


@pytest.mark.parametrize("q", [5, 7, 9, 23, 29, 32, 43])
def test_psl2_orders_divide_classical_torus_orders(q):
    # consistency only: every element order divides p, (q-1)/d or (q+1)/d
    r = psl2_spectrum(q)
    d = 2 if q % 2 else 1
    allowed = (r.p, (q - 1) // d, (q + 1) // d)
    for m in r.spectrum.members():
        assert any(a % m == 0 for a in allowed)


def test_psl2_small_sanity():
    assert psl2_spectrum(2).spectrum.members() == [1, 2, 3]  # symmetric group on 3
    assert psl2_spectrum(4).group_order == 60  # alternating group on 5
    assert psl2_spectrum(4).spectrum.members() == [1, 2, 3, 5]
    assert psl2_spectrum(5).group_order == 60
    assert psl2_spectrum(5).spectrum.members() == [1, 2, 3, 5]


def test_psl2_rejects_bad_q():
    with pytest.raises(ValueError):
        psl2_spectrum(6)
    with pytest.raises(ValueError):
        psl2_spectrum(65)
    with pytest.raises(ValueError):
        psl2_spectrum(1)


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


# -- Hall arithmetic --------------------------------------------------------------------

def test_hall_check():
    assert hall_check(factorize(6072), factorize(253))  # index 24, coprime
    assert hall_check(factorize(6072), factorize(6072))
    assert hall_check(J4_ORDER, factorize(2**21))  # Sylow subgroups are Hall
    assert not hall_check(factorize(12), factorize(2))  # 2 misses the full 2-part
    with pytest.raises(ValueError):
        hall_check(factorize(12), factorize(8))  # 8 does not divide 12
