"""Pure-Python implementations of the GF(p^k) coefficient kernels.

Same call signatures and results as gf_mul, gf_pow and gf_geom_sum in the
compiled module ``gkspec._speedups``; selected automatically when the
extension is not built (see ``gkspec._core``).  Correctness over speed:
these are the reference semantics the compiled kernels are tested against.
The PSL2 order count has a single implementation, in ``gkspec.groups``: the
trace recurrence fixes each matrix's order, every determinant-one matrix is
still visited, and the total is still checked against |SL2(q)|.
"""

COMPILED = False


def gf_mul(a, b, modulus, p):
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


def gf_pow(a, e, modulus, p):
    """a**e by square-and-multiply; e >= 0."""
    k = len(modulus) - 1
    result = tuple([1] + [0] * (k - 1))
    base = tuple(a)
    while e:
        if e & 1:
            result = gf_mul(result, base, modulus, p)
        base = gf_mul(base, base, modulus, p)
        e >>= 1
    return result


def gf_geom_sum(a, m, modulus, p):
    """1 + a + a^2 + ... + a^(m-1) by direct accumulation."""
    k = len(modulus) - 1
    acc = [0] * k
    x = tuple([1] + [0] * (k - 1))
    for _ in range(m):
        for i in range(k):
            acc[i] = (acc[i] + x[i]) % p
        x = gf_mul(x, a, modulus, p)
    return tuple(acc)
