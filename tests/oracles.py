"""Plain oracles shared by several test modules."""

from __future__ import annotations


def mat_pow_mod(a, e, mod):
    """a^e mod `mod` for an integer matrix, by square-and-multiply.

    The reference, independent of `matrices.orbit`, that orbit sizes, the
    backward walk Q^-i v = Q^(k-i) v and log(Q^k) = k log Q are checked
    against.
    """
    def mul(x, y):
        cols = list(zip(*y))
        return [[sum(p * q for p, q in zip(row, col)) % mod for col in cols]
                for row in x]

    out = [[int(i == j) % mod for j in range(len(a))] for i in range(len(a))]
    base = [[x % mod for x in row] for row in a]
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out
