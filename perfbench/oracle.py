"""Reference answers for the benchmark queries, computed without gkspec.

Everything here is standard-library Python written independently of the
package under test, so a wrong answer from gkspec cannot also be the
expected answer.  The arithmetic is deliberately plain; the benchmark
computes each expected answer once per run, outside the timed rounds.

Finite fields are GF(p)[x]/(f) for a modulus f that gkspec reports and the
oracle checks for irreducibility itself.  Semilinear maps x -> u * x^(p^e)
are handled as k x k matrices over GF(p), and their orders and T-sums
through the norm u * s(u) * ... * s^(t-1)(u), s = x -> x^(p^e), rather
than by the direct summation gkspec uses.
"""

from __future__ import annotations

from math import gcd, lcm

INT64_MAX = 2**63 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_prime_factors(n: int) -> list[int]:
    """Distinct primes of n by trial division; for n up to about 2^40."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- finite fields ----------------------------------------------------------


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, b, p):
    a = _trim(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        s = len(a) - len(b)
        for j, y in enumerate(b):
            a[s + j] = (a[s + j] - c * y) % p
        a = _trim(a)
    return a


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


class Field:
    """GF(p^k) as coefficient tuples in the basis 1, x, ..., x^(k-1)."""

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k = p, k
        self.modulus = tuple(modulus)
        self.order = p**k
        self.one = (1,) + (0,) * (k - 1)
        # reduction table: x^n mod f for k <= n <= 2k-2
        row = [(-c) % p for c in self.modulus[:k]]
        self._xpow = {k: row}
        for n in range(k + 1, 2 * k - 1):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(r + top * c) % p for r, c in zip(row, self._xpow[k])]
            self._xpow[n] = row
        self._frob = {}
        self._qm1_primes = None

    def is_valid_modulus(self) -> bool:
        """Monic, degree k and irreducible (Rabin's test)."""
        f, p, k = self.modulus, self.p, self.k
        if len(f) != k + 1 or f[-1] != 1 or any(not 0 <= c < p for c in f):
            return False
        if k == 1:
            return True
        x = (0, 1) + (0,) * (k - 2)

        def x_pp_minus_x(i):  # x^(p^i) - x, by i successive p-th powers
            t = x
            for _ in range(i):
                t = self.pow(t, p)
            return [(a - b) % p for a, b in zip(t, x)]

        if any(x_pp_minus_x(k)):
            return False
        return all(
            len(_poly_gcd(x_pp_minus_x(k // r), f, p)) == 1
            for r in small_prime_factors(k)
        )

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:k]
        for n in range(k, 2 * k - 1):
            c = prod[n] % p
            if c:
                for i, r in enumerate(self._xpow[n]):
                    out[i] += c * r
        return tuple(v % p for v in out)

    def pow(self, a, e: int):
        result, base = self.one, tuple(a)
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def order_of(self, a) -> int:
        """Multiplicative order of a nonzero element."""
        if self._qm1_primes is None:
            self._qm1_primes = small_prime_factors(self.order - 1)
        m = self.order - 1
        for r in self._qm1_primes:
            while m % r == 0 and self.pow(a, m // r) == self.one:
                m //= r
        return m

    def frobenius_matrix(self, e: int):
        """Columns s^e(x^j), s the p-th power map."""
        e %= self.k
        if e not in self._frob:
            cols = []
            for j in range(self.k):
                b = tuple(1 if i == j else 0 for i in range(self.k))
                cols.append(self.pow(b, self.p**e))
            self._frob[e] = cols
        return self._frob[e]

    def frobenius(self, a, e: int):
        return apply(self.frobenius_matrix(e), a, self.p)

    def action_matrix(self, u, e: int):
        """Columns of x -> u * x^(p^e) on the basis."""
        return [self.mul(u, col) for col in self.frobenius_matrix(e)]

    def closure(self, u, e: int):
        """(t, N): the map u*s^e closes after t steps with t-th power N*x."""
        t = self.k // gcd(e, self.k)
        norm, w = tuple(u), tuple(u)
        for _ in range(t - 1):
            w = self.frobenius(w, e)
            norm = self.mul(norm, w)
        return t, norm

    def action_order(self, u, e: int) -> int:
        t, norm = self.closure(u, e)
        return t * (1 if norm == self.one else self.order_of(norm))

    def semidirect_order(self, v, u, e: int) -> int:
        """Order of (v, h) in V x| <h>, h = u * s^e.

        With h^t = N * x the sum 1 + h + ... + h^(m-1) factors as
        T_t composed with multiplication by 1 + N + ... + N^(ord N - 1),
        which is zero when N != 1; otherwise m = t and T_t(v) decides.
        """
        t, norm = self.closure(u, e)
        m = t * (1 if norm == self.one else self.order_of(norm))
        if norm != self.one or not any(v):
            return m
        h = self.action_matrix(u, e)
        acc, w = list(v), tuple(v)
        for _ in range(t - 1):
            w = apply(h, w, self.p)
            acc = [(a + b) % self.p for a, b in zip(acc, w)]
        return m if not any(acc) else self.p * m


def apply(cols, v, p):
    """Matrix (given by columns) times vector over GF(p)."""
    out = [0] * len(cols[0])
    for c, col in zip(v, cols):
        if c:
            for i, x in enumerate(col):
                out[i] += c * x
    return tuple(x % p for x in out)


def rank(rows, p) -> int:
    m = [list(r) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def fixed_space_dim(cols, p) -> int:
    k = len(cols)
    rows = [[(cols[j][i] - (i == j)) % p for j in range(k)] for i in range(k)]
    return k - rank(rows, p)


def minimal_polynomial(cols, p) -> tuple[int, ...]:
    """First linear dependency among I, M, M^2, ... flattened to k^2-vectors."""
    k = len(cols)
    rows_m = [[cols[j][i] for j in range(k)] for i in range(k)]
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    basis = []  # (pivot, reduced vector, combination of powers)
    for d in range(k + 1):
        vec = [x for row in power for x in row]
        combo = [0] * (k + 1)
        combo[d] = 1
        for pivot, bvec, bcombo in basis:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, bvec)]
                combo = [(a - c * b) % p for a, b in zip(combo, bcombo)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            return tuple(_trim(combo))
        inv = pow(vec[pivot], p - 2, p)
        basis.append(
            (pivot, [x * inv % p for x in vec], [x * inv % p for x in combo])
        )
        power = [
            [sum(power[i][t] * rows_m[t][j] for t in range(k)) % p for j in range(k)]
            for i in range(k)
        ]
    raise AssertionError("no dependency among k+1 powers")  # Cayley-Hamilton


# -- order sets and prime graphs ----------------------------------------------


def antichain(values) -> list[int]:
    uniq = sorted(set(values))
    return [a for a in uniq if not any(b != a and b % a == 0 for b in uniq)]


def divisors(fac: dict) -> list[int]:
    out = [1]
    for prime, e in fac.items():
        out = [d * prime**i for d in out for i in range(e + 1)]
    return out


def value(fac: dict) -> int:
    n = 1
    for prime, e in fac.items():
        n *= prime**e
    return n


def maximal_factored(facs) -> list[dict]:
    """The factorizations of the antichain of the given numbers."""
    keep = set(antichain(value(f) for f in facs))
    seen, out = set(), []
    for f in facs:
        v = value(f)
        if v in keep and v not in seen:
            seen.add(v)
            out.append(f)
    return out


def members(facs) -> list[int]:
    out = set()
    for f in maximal_factored(facs):
        out.update(divisors(f))
    return sorted(out)


def pi(facs) -> list[int]:
    return sorted({q for f in facs for q in f})


def sigma(facs) -> int:
    return max(len(f) for f in facs)


def product(a: list[int], b: list[int]):
    """Maximal elements of the lcm closure, or 'OverflowError'."""
    lcms = {lcm(x, y) for x in antichain(a) for y in antichain(b)}
    if max(lcms) > INT64_MAX:
        return "OverflowError"
    return antichain(lcms)


def wreath2(a: list[int]):
    prod = product(a, a)
    if prod == "OverflowError" or 2 * max(a) > INT64_MAX:
        return "OverflowError"
    return antichain(prod + [2 * m for m in antichain(a)])


def prime_graph(facs):
    """(vertices, edges) with p-q whenever some maximal element has both."""
    verts = pi(facs)
    edges = set()
    for f in facs:
        ps = sorted(f)
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                edges.add((p, q))
    return verts, sorted(edges)


def max_cocliques(vertices, edges) -> list[tuple[int, ...]]:
    """Every maximum independent set, each sorted, in lexicographic order.

    Branches on a vertex of largest remaining degree and prunes only on
    the trivial bound (chosen + remaining), unlike gkspec's lowest-vertex
    branching with a clique-cover bound.
    """
    n = len(vertices)
    if n == 0:
        return []
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * n
    for p, q in edges:
        adj[index[p]] |= 1 << index[q]
        adj[index[q]] |= 1 << index[p]
    best, found = [0], []

    def search(mask, chosen, size):
        if size + mask.bit_count() < best[0]:
            return
        top, top_deg, rest = -1, 0, mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            deg = (adj[v] & mask).bit_count()
            if deg > top_deg:
                top, top_deg = v, deg
        if top < 0:  # no edges left: take every remaining vertex
            size += mask.bit_count()
            if size > best[0]:
                best[0] = size
                found.clear()
            found.append(chosen | mask)
            return
        search(mask & ~adj[top] & ~(1 << top), chosen | (1 << top), size + 1)
        search(mask & ~(1 << top), chosen, size)

    search((1 << n) - 1, 0, 0)
    return sorted(tuple(vertices[i] for i in range(n) if c >> i & 1) for c in found)
