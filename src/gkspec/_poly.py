"""Polynomial arithmetic over GF(p) for internal use.

Polynomials are lists of integer coefficients in {0, ..., p-1}, ascending
degree, with no trailing zeros ([] is the zero polynomial).  Only the
operations needed by the field constructor (gcd, inverses) and the
minimal-polynomial routine (lcm) are provided; everything is exact modular
arithmetic on Python integers, so no p is too large.  Field multiplication
and powering live in gkspec.gf, on packed integers.
"""


def trim(coeffs):
    """Drop trailing zero coefficients."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def divmod_(a, b, p):
    """Quotient and remainder of a by b; b must be nonzero."""
    a = trim(a)
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = (a[-1] * inv) % p
        s = len(a) - len(b)
        q[s] = c
        for j in range(len(b)):
            a[s + j] = (a[s + j] - c * b[j]) % p
        a = trim(a)
    return trim(q), a


def gcd(a, b, p):
    """Monic greatest common divisor."""
    a = trim(a)
    b = trim(b)
    while b:
        _, r = divmod_(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(x * inv) % p for x in a]
    return a


def lcm(a, b, p):
    """Monic least common multiple."""
    a = trim(a)
    b = trim(b)
    if not a or not b:
        return []
    g = gcd(a, b, p)
    q, _ = divmod_(mul(a, b, p), g, p)
    inv = pow(q[-1], p - 2, p)
    return [(x * inv) % p for x in q]


def invmod(a, modulus, p):
    """Inverse of a modulo a monic irreducible modulus (extended Euclid)."""
    a = trim(a)
    if not a:
        raise ZeroDivisionError("inverse of zero polynomial")
    r0, r1 = list(modulus), a
    s0, s1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, trim([(x - y) % p for x, y in _zip_pad(s0, mul(q, s1, p))])
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo the given modulus")
    c = pow(r0[0], p - 2, p)
    k = len(modulus) - 1
    out = [(x * c) % p for x in s0]
    return out[:k] + [0] * (k - len(out))


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return zip(a, b)
