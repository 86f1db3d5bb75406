"""Polynomial arithmetic over GF(p) for internal use.

Polynomials are lists of integer coefficients in {0, ..., p-1}, ascending
degree, with no trailing zeros ([] is the zero polynomial).  Only the
operations needed by the field constructor and the minimal-polynomial
routine are provided; everything is exact modular arithmetic on Python
integers, so no p is too large.

mulmod and powmod are the GF(p^k) kernels behind gkspec.gf: they take and
return fixed-length coefficient tuples, k = deg(modulus) slots each, rather
than trimmed lists.  They are the only implementation of field
multiplication and powering in the package.
"""

from .orderset import prime_divisors


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


def mulmod(a, b, modulus, p):
    """Product of two coefficient tuples modulo a monic modulus.

    a, b have length k = deg(modulus); the result is a length-k tuple.
    """
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i in range(k):
        x = a[i]
        if x:
            for j in range(k):
                prod[i + j] = (prod[i + j] + x * b[j]) % p
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        if c:
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return tuple(prod[:k])


def powmod(a, e, modulus, p):
    """a**e modulo a monic modulus by square-and-multiply; a has length k, e >= 0."""
    k = len(modulus) - 1
    result = (1,) + (0,) * (k - 1)
    base = a
    while e:
        if e & 1:
            result = mulmod(result, base, modulus, p)
        base = mulmod(base, base, modulus, p)
        e >>= 1
    return result


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


def is_irreducible(modulus, p):
    """Distinct-degree irreducibility test for a monic polynomial.

    Degree-k modulus is irreducible over GF(p) iff x^(p^k) = x mod f and
    gcd(x^(p^(k/r)) - x, f) = 1 for every prime r dividing k.
    """
    k = len(trim(modulus)) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    if modulus[0] == 0:
        return False  # root at zero
    x = (0, 1) + (0,) * (k - 2)
    t = x
    for _ in range(k):
        t = powmod(t, p, modulus, p)
    if trim([(t[i] - (1 if i == 1 else 0)) % p for i in range(k)]):
        return False
    for r in prime_divisors(k):
        t = x
        for _ in range(k // r):
            t = powmod(t, p, modulus, p)
        diff = [(t[i] - (1 if i == 1 else 0)) % p for i in range(k)]
        if len(gcd(diff, modulus, p)) > 1:
            return False
    return True

