"""Prime graph construction and exact coclique search."""

import random
import sys
from itertools import combinations

import pytest

from gkspec.atlasdb import load, stored_spectrum
from gkspec.orderset import OrderSet, product_spectrum
from gkspec.primegraph import PrimeGraph, build_gk

PI_1 = (5, 11, 23, 29, 31, 37, 43)
PI_2 = (7, 11, 23, 29, 31, 37, 43)
J4 = stored_spectrum(load(), "J4")
J4X2 = product_spectrum(J4, J4)


def test_gk_j4_edges():
    g = build_gk(J4)
    assert g.vertices == (2, 3, 5, 7, 11, 23, 29, 31, 37, 43)
    assert g.adjacent(2, 11)  # 44 is a member
    assert not g.adjacent(29, 31)  # 899 is not
    assert g.edges == frozenset(
        {(2, 3), (2, 5), (2, 7), (2, 11), (3, 5), (3, 7), (3, 11), (5, 7)}
    )


def test_gk_respects_source_exhaustively():
    s = J4
    g = build_gk(s)
    for p, q in combinations(g.vertices, 2):
        assert g.adjacent(p, q) == s.contains(p * q)


def test_gk_trivial():
    g = build_gk(OrderSet.from_generators([1]))
    assert g.vertices == ()
    assert g.max_cocliques() == []


def test_gk_product_complete():
    g = build_gk(J4X2)
    n = len(g.vertices)
    assert n == 10
    assert len(g.edges) == n * (n - 1) // 2
    assert g.max_cocliques() == [(v,) for v in g.vertices]


def test_is_coclique():
    g = build_gk(J4)
    assert g.is_coclique({29, 31, 37, 43})
    assert g.is_coclique(PI_1)
    assert g.is_coclique(PI_2)
    assert g.is_coclique({43})
    assert not g.is_coclique({2, 3})
    with pytest.raises(ValueError):
        g.is_coclique({13})  # not a vertex


def test_max_cocliques_j4():
    g = build_gk(J4)
    assert g.max_cocliques() == [PI_1, PI_2]


def test_graph_validation():
    with pytest.raises(ValueError):
        PrimeGraph((3, 2), frozenset())
    with pytest.raises(ValueError):
        PrimeGraph((2, 3), frozenset({(3, 2)}))
    with pytest.raises(ValueError):
        PrimeGraph((2, 3), frozenset({(2, 5)}))


def test_dot_output():
    g = build_gk(OrderSet.from_generators([6, 5]))
    assert g.dot() == "graph gk {\n  2;\n  3;\n  5;\n  2 -- 3;\n}\n"
    j4dot = build_gk(J4).dot()
    assert "  29;" in j4dot
    assert "29 -- 31" not in j4dot


# -- randomized coclique laws ---------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMES_16 = PRIMES + (41, 43, 47, 53)


def random_graph(rng, max_n=10):
    n = rng.randrange(1, max_n + 1)
    vertices = tuple(PRIMES[:n])
    edges = frozenset(
        (p, q) for p, q in combinations(vertices, 2) if rng.random() < rng.random()
    )
    return PrimeGraph(vertices, edges)


def brute_force_max_independent_sets(g):
    verts = g.vertices
    n = len(verts)
    adj = {v: set() for v in verts}
    for p, q in g.edges:
        adj[p].add(q)
        adj[q].add(p)
    best = 0
    found = []
    for mask in range(1 << n):
        chosen = [verts[i] for i in range(n) if mask >> i & 1]
        if any(q in adj[p] for p, q in combinations(chosen, 2)):
            continue
        if len(chosen) > best:
            best = len(chosen)
            found = [tuple(chosen)]
        elif len(chosen) == best:
            found.append(tuple(chosen))
    return sorted(found)


def test_max_cocliques_match_bruteforce_random():
    rng = random.Random(707)
    for _ in range(1000):
        g = random_graph(rng, max_n=8)
        assert g.max_cocliques() == brute_force_max_independent_sets(g)


def brute_force_bitmask(g):
    """Independent brute force over all 2^n subsets with adjacency masks."""
    verts = g.vertices
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for p, q in g.edges:
        adj[idx[p]] |= 1 << idx[q]
        adj[idx[q]] |= 1 << idx[p]
    best = 0
    found = []
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if adj[i] & mask:
                ok = False
                break
            m &= m - 1
        if not ok:
            continue
        size = mask.bit_count()
        if size > best:
            best = size
            found = [mask]
        elif size == best:
            found.append(mask)
    return sorted(
        tuple(verts[i] for i in range(n) if mask >> i & 1) for mask in found
    )


def test_max_cocliques_bruteforce_larger_instances():
    rng = random.Random(808)
    for _ in range(40):
        g = random_graph(rng, max_n=12)
        assert g.max_cocliques() == brute_force_max_independent_sets(g)


def test_max_cocliques_bruteforce_up_to_16_vertices():
    rng = random.Random(818)
    for n in (14, 15, 16):
        for _ in range(3):
            vertices = PRIMES_16[:n]
            edges = frozenset(
                (p, q)
                for p, q in combinations(vertices, 2)
                if rng.random() < 0.45
            )
            g = PrimeGraph(vertices, edges)
            assert g.max_cocliques() == brute_force_bitmask(g)


def test_max_cocliques_deeper_than_the_recursion_limit():
    # an edgeless graph makes the search as deep as the vertex count
    n = sys.getrecursionlimit() + 100
    vertices = []
    m = 2
    while len(vertices) < n:
        if all(m % p for p in vertices if p * p <= m):
            vertices.append(m)
        m += 1
    g = PrimeGraph(tuple(vertices), frozenset())
    assert g.max_cocliques() == [tuple(vertices)]


def test_coclique_outputs_are_maximum_and_maximal():
    rng = random.Random(909)
    for _ in range(1000):
        g = random_graph(rng, max_n=9)
        outs = g.max_cocliques()
        sizes = {len(c) for c in outs}
        assert len(sizes) == 1
        for c in outs:
            assert g.is_coclique(c)
            # no vertex can extend a maximum coclique
            for v in g.vertices:
                if v not in c:
                    assert not g.is_coclique(set(c) | {v})


def test_adding_edges_never_raises_independence_number():
    rng = random.Random(111)
    for _ in range(400):
        g = random_graph(rng, max_n=9)
        alpha = len(g.max_cocliques()[0])
        missing = [
            (p, q)
            for p, q in combinations(g.vertices, 2)
            if (p, q) not in g.edges
        ]
        if not missing:
            continue
        extra = rng.choice(missing)
        g2 = PrimeGraph(g.vertices, g.edges | {extra})
        assert len(g2.max_cocliques()[0]) <= alpha
