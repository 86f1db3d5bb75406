"""Prime graphs of order spectra and exact coclique search.

The prime graph of a spectrum has the primes of the spectrum as vertices,
with p adjacent to q whenever p*q is a member.  Cocliques (independent
sets) of this graph drive the structural arguments the toolkit verifies,
so the search here is exact: a single branch-and-bound pass with a greedy
clique-cover bound collects every maximum coclique, returned in canonical
sorted order.

Graphs are immutable; the search is deterministic.
"""

from __future__ import annotations

from ._record import Record, _set
from .orderset import OrderSet


class PrimeGraph(Record):
    """Undirected loop-free graph on a sorted tuple of primes."""

    _fields = ("vertices", "edges")

    # own __init__: 1.12 vs 2.12 us through Record's (timeit); 564 per spectra round
    def __init__(self, vertices: tuple[int, ...], edges: frozenset[tuple[int, int]]):
        # edges: (p, q) with p < q, each edge once
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        vset = set(vertices)
        if len(vset) != len(vertices) or tuple(sorted(vset)) != vertices:
            raise ValueError("vertices must be sorted and distinct")
        for p, q in edges:
            if p >= q:
                raise ValueError("edges must be stored with smaller endpoint first")
            if p not in vset or q not in vset:
                raise ValueError("edge endpoint outside the vertex set")

    def adjacent(self, p: int, q: int) -> bool:
        if p == q:
            return False
        a, b = (p, q) if p < q else (q, p)
        return (a, b) in self.edges

    def is_coclique(self, primes) -> bool:
        """True iff no two distinct members of primes are adjacent."""
        ps = sorted(set(primes))
        vset = set(self.vertices)
        for p in ps:
            if p not in vset:
                raise ValueError(f"{p} is not a vertex of this graph")
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                if (p, q) in self.edges:
                    return False
        return True

    def max_cocliques(self) -> list[tuple[int, ...]]:
        """All maximum-cardinality cocliques, each sorted, lexicographic list."""
        n = len(self.vertices)
        if n == 0:
            return []
        index = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * n
        for p, q in self.edges:
            i, j = index[p], index[q]
            adj[i] |= 1 << j
            adj[j] |= 1 << i

        def cover_bound(mask: int) -> int:
            # alpha(G[mask]) <= number of cliques greedily covering mask
            count = 0
            rem = mask
            while rem:
                v = (rem & -rem).bit_length() - 1
                clique = 1 << v
                cands = rem & adj[v]
                while cands:
                    w = (cands & -cands).bit_length() - 1
                    clique |= 1 << w
                    cands &= adj[w]
                rem &= ~clique
                count += 1
            return count

        # one depth-first branch and bound on an explicit stack, so the vertex
        # count is not limited by the interpreter's recursion depth; the
        # "take v" branch is pushed last so it is explored first.  Ties with
        # the best size so far are kept, so every optimum reaches a leaf.
        best = 0
        found: list[int] = []
        stack = [((1 << n) - 1, 0, 0)]
        while stack:
            mask, chosen, size = stack.pop()
            if size + cover_bound(mask) < best:
                continue
            if not mask:
                if size > best:
                    best, found = size, []
                found.append(chosen)
                continue
            v = (mask & -mask).bit_length() - 1
            stack.append((mask & ~(1 << v), chosen, size))
            stack.append((mask & ~adj[v] & ~(1 << v), chosen | (1 << v), size + 1))
        return sorted(
            tuple(self.vertices[i] for i in range(n) if chosen >> i & 1)
            for chosen in found
        )

    def dot(self) -> str:
        """DOT text: vertices as decimal primes, each edge listed once."""
        lines = ["graph gk {"]
        for v in self.vertices:
            lines.append(f"  {v};")
        for p, q in sorted(self.edges):
            lines.append(f"  {p} -- {q};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_gk(s: OrderSet) -> PrimeGraph:
    """Prime graph of a spectrum: p ~ q iff p*q is a member."""
    vertices = s.pi()
    edges = set()
    for i, p in enumerate(vertices):
        for q in vertices[i + 1:]:
            if s.contains(p * q):
                edges.add((p, q))
    return PrimeGraph(vertices, frozenset(edges))
