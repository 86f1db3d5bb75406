"""Acceptance criteria, one test per criterion, one printed line each.

Every expected value here was computed by an independent route (divisor
enumeration, brute-force double loops, full matrix enumeration, direct
repeated multiplication) before being frozen; tolerances are exact except
for the stated runtime budgets, measured as best-of-three wall times.
"""

import random
import time
from math import gcd, lcm

from gkspec import atlasdb, groups
from gkspec.gf import make_field, subgroup_generator
from gkspec.linact import (
    LinearAction,
    action_order,
    fixed_space_dim,
    is_fixed_point_free,
    minpoly_equals_xs_minus_1,
    semidirect_element_order,
    semidirect_spectrum,
)
from gkspec.atlasdb import load, stored_spectrum
from gkspec.orderset import OrderSet, product_spectrum, wreath2_spectrum
from gkspec.primegraph import PrimeGraph, build_gk
from gkspec.verify import CONTRADICTION_ORDERS, PI_1, PI_2, RHO
from test_kernels import enumerated_order_counts, field_tables, orders_present

# spec(J4) by its maximal elements (ATLAS)
J4_GENERATORS = (16, 23, 24, 28, 29, 30, 31, 35, 37, 40, 42, 43, 44, 66)
J4 = stored_spectrum(load(), "J4")
J4X2 = product_spectrum(J4, J4)


def best_of_3(fn):
    times = []
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, min(times)


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_spectrum_data():
    s, elapsed = best_of_3(lambda: OrderSet.from_generators(J4_GENERATORS))
    members = s.members()
    assert len(members) == 31
    assert s.contains(66) and s.contains(44)
    for n in (9, 25, 46, 55):
        assert not s.contains(n)
    assert s.pi() == (2, 3, 5, 7, 11, 23, 29, 31, 37, 43)
    assert s == J4
    assert elapsed < 0.001
    report(1, f"31 members, stated inclusions/exclusions, 10 primes ({elapsed*1e6:.0f} us)")


def test_criterion_2_product_spectrum():
    prod, elapsed = best_of_3(lambda: product_spectrum(J4, J4))
    assert prod.contains(2310)
    for n in (9, 25, 32):
        assert not prod.contains(n)
    brute = set()
    members = J4.members()
    for x in members:
        for y in members:
            v = x // gcd(x, y) * y
            d = 1
            while d * d <= v:
                if v % d == 0:
                    brute.add(d)
                    brute.add(v // d)
                d += 1
    assert sorted(brute) == prod.members()
    assert elapsed < 0.010
    report(2, f"lcm closure equals the brute-force oracle, {len(brute)} members ({elapsed*1e3:.2f} ms)")


def test_criterion_3_prime_graph():
    def graph_work():
        g = build_gk(J4)
        cocliques = g.max_cocliques()
        g2 = build_gk(J4X2)
        return g, cocliques, g2

    (g, cocliques, g2), elapsed = best_of_3(graph_work)
    assert len(cocliques[0]) == 7
    assert cocliques == [PI_1, PI_2]
    assert g.is_coclique(RHO)
    assert len(g2.edges) == 45 and len(g2.vertices) == 10
    assert elapsed < 0.010
    report(3, f"independence number 7 with both seven-prime cocliques; product graph complete ({elapsed*1e3:.2f} ms)")


def test_criterion_4_restricted_sigma():
    assert J4X2.restricted_sigma(PI_1) == 2
    assert J4X2.restricted_sigma(PI_2) == 2
    report(4, "restricted sigma equals 2 on both odd-prime blocks")


def test_criterion_5_excluded_orders():
    pairs = [(p, m) for p, batch in CONTRADICTION_ORDERS for m in batch]
    assert len(pairs) == 30 and len({p * m for p, m in pairs}) == 28
    assert [p for p, _ in CONTRADICTION_ORDERS] == [2, 3, 5, 7, 11, 23, 29, 31, 37, 43]
    assert all(J4X2.contains(m) for _, m in pairs)
    present = [p * m for p, m in pairs if J4X2.contains(p * m)]
    assert present == []
    report(5, "all 30 contradiction orders are absent from the product spectrum")


def test_criterion_6_wreath_endgame():
    wr = wreath2_spectrum(J4)
    assert wr.contains(32)
    assert not J4X2.contains(32)
    report(6, "32 is in the wreath spectrum and not in the product spectrum")


def test_criterion_7_remark_group():
    def build_and_sample():
        # actor j multiplies summand j only, so (v, h) is a pair of factor
        # elements (v_j, h_j) and its order the lcm of the factor orders
        big, small = groups.build_remark_group()
        structural = product_spectrum(semidirect_spectrum(big), semidirect_spectrum(small))
        rng = random.Random(424242)
        factors = [
            (h.field, [LinearAction.multiplication(h.mult**i) for i in range(m)])
            for h, m in ((big, 17), (small, 5))
        ]
        allowed = set(structural.members())
        seen = set()
        for _ in range(10**4):
            o = lcm(*(
                semidirect_element_order(
                    f.element(tuple(rng.randrange(f.p) for _ in range(f.k))),
                    actions[rng.randrange(len(actions))],
                )
                for f, actions in factors
            ))
            assert o in allowed
            seen.add(o)
        assert {3, 15, 51, 85} <= seen
        return structural

    t0 = time.perf_counter()
    structural = build_and_sample()
    elapsed = time.perf_counter() - t0
    assert structural.members() == [1, 3, 5, 15, 17, 51, 85]
    assert structural.pi() == (3, 5, 17)
    assert structural.sigma() == 2
    assert groups.check_proposition_hypotheses(structural) == ((), ())
    assert elapsed < 5.0
    report(7, f"witness spectrum exact; 10^4-sample oracle agrees ({elapsed:.2f} s)")


def test_criterion_8_psl2_oracles():
    t0 = time.perf_counter()
    s23 = groups.psl2_spectrum(23)
    s32 = groups.psl2_spectrum(32)
    s43 = groups.psl2_spectrum(43)
    s29 = groups.psl2_spectrum(29)
    elapsed = time.perf_counter() - t0
    assert s23.members() == [1, 2, 3, 4, 6, 11, 12, 23]
    assert tuple(sorted(set(s32.pi()) & {11, 23, 29, 31, 37, 43})) == (11, 31)
    assert tuple(sorted(set(s43.pi()) & {11, 23, 29, 31, 37, 43})) == (11, 43)
    assert tuple(sorted(set(s29.pi()) & {5, 23, 29, 37, 43})) == (5, 29)
    for q, s in ((23, s23), (32, s32), (43, s43), (29, s29)):
        counts = enumerated_order_counts(q, *field_tables(q))
        assert s.members() == orders_present(counts)
        assert groups.psl2_order_formula(q) * gcd(2, q - 1) == sum(counts)
    assert elapsed < 10.0
    report(8, f"four spectra by Dickson's closed form match enumeration ({elapsed:.2f} s)")


def test_criterion_9_linear_action_lemmas():
    f = make_field(2, 11)
    phi = LinearAction.galois(f)
    assert fixed_space_dim(phi) == 1
    assert minpoly_equals_xs_minus_1(phi, 11)
    assert semidirect_spectrum(phi).contains(22)
    zeta = subgroup_generator(f, 23)
    mult = LinearAction.multiplication(zeta)
    assert is_fixed_point_free(mult)
    assert all(semidirect_element_order(b, mult) == 23 for b in f.basis())
    assert not semidirect_spectrum(mult).contains(46)
    for kernel, complement in ((2048, 23), (23, 11), (3**16, 17)):
        assert (kernel - 1) % complement == 0
    report(9, "Galois fixed line, minimal polynomial, order 22, free 23-action, Frobenius arithmetic")


def test_criterion_10_database_filters():
    db = atlasdb.load()
    r8 = atlasdb.run_filter(db, atlasdb.LEMMA_QUERIES["8"])
    assert r8.matches == (
        ("J4", (11, 23, 29, 31, 37, 43)),
        ("L2(23)", (11, 23)),
        ("L2(32)", (11, 31)),
        ("L2(43)", (11, 43)),
        ("M23", (11, 23)),
        ("M24", (11, 23)),
        ("U3(11)", (11, 37)),
    )
    r9 = atlasdb.run_filter(db, atlasdb.LEMMA_QUERIES["9"])
    assert r9.matches == (
        ("J4", (5, 23, 29, 37, 43)),
        ("L2(29)", (5, 29)),
        ("M23", (5, 23)),
        ("M24", (5, 23)),
        ("U3(11)", (5, 37)),
    )
    stripped = [
        r._replace(has9=None, has25=None) if r.name == "M24" else r for r in db
    ]
    res = atlasdb.run_filter(stripped, atlasdb.LEMMA_QUERIES["8"])
    assert "M24" in res.insufficient
    assert all(name != "M24" for name, _ in res.matches)
    report(10, "both filters return exactly the listed groups; missing flags report as insufficient")


def test_criterion_11_property_suites():
    rng = random.Random(515151)

    # divisor closure, 1000 cases
    for _ in range(1000):
        gens = [rng.randrange(1, 60) for _ in range(rng.randrange(1, 4))]
        s = OrderSet.from_generators(gens)
        n = rng.choice(s.maximal_elements)
        d = rng.randrange(1, n + 1)
        if n % d == 0:
            assert s.contains(d)

    # antichain idempotence, 1000 cases
    for _ in range(1000):
        gens = [rng.randrange(1, 80) for _ in range(rng.randrange(1, 5))]
        s = OrderSet.from_generators(gens)
        assert OrderSet.from_generators(s.maximal_elements) == s

    # product commutativity, monotonicity, prime-power reduction, 1000 cases
    one = OrderSet.from_generators([1])
    for _ in range(1000):
        a = OrderSet.from_generators([rng.randrange(1, 40) for _ in range(2)])
        b = OrderSet.from_generators([rng.randrange(1, 40) for _ in range(2)])
        ab = product_spectrum(a, b)
        assert ab == product_spectrum(b, a)
        assert product_spectrum(a, one) == a
        a2 = OrderSet.from_generators(list(a.maximal_elements) + [rng.randrange(1, 40)])
        assert ab.issubset(product_spectrum(a2, b))
        q = rng.choice([2, 3, 5, 7]) ** rng.randrange(1, 5)
        assert ab.contains(q) == (a.contains(q) or b.contains(q))

    # coclique maximality, 1000 random graphs
    primes = (2, 3, 5, 7, 11, 13, 17)
    from itertools import combinations

    for _ in range(1000):
        n = rng.randrange(1, 8)
        verts = primes[:n]
        edges = frozenset(
            (p, q) for p, q in combinations(verts, 2) if rng.random() < 0.5
        )
        g = PrimeGraph(verts, edges)
        outs = g.max_cocliques()
        assert len({len(c) for c in outs}) == 1
        for c in outs:
            assert g.is_coclique(c)
            for v in verts:
                if v not in c:
                    assert not g.is_coclique(set(c) | {v})

    # field axioms, 1000 random triples
    f = make_field(3, 4)
    for _ in range(1000):
        a, b, c = (
            f.element(tuple(rng.randrange(3) for _ in range(4))) for _ in range(3)
        )
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    # order dichotomy of semidirect elements, 1000 cases
    f2 = make_field(2, 11)
    zeta = subgroup_generator(f2, 23)
    actions = [
        LinearAction(f2, zeta**i, e) for i in range(23) for e in range(11)
    ]
    for _ in range(1000):
        h = rng.choice(actions)
        v = f2.element(tuple(rng.randrange(2) for _ in range(11)))
        m = action_order(h)
        assert semidirect_element_order(v, h) in (m, 2 * m)

    report(11, "six randomized property suites, 1000 cases each, zero failures")
