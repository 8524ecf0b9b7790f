"""Test oracles: slow, plain recounts of what the package counts faster.

Tests import this module as `oracles`; pytest puts the tests directory on
sys.path for the test files beside it.
"""

import itertools
import math
import numbers
from fractions import Fraction
from operator import eq, mul

from conic_census import curve, linsys
from conic_census.errors import OutsideConvergenceRegion


def _values(blocks, x, start, p):
    """Per block, the tuple of its rows' values on the coordinates x placed at start."""
    return tuple(tuple(sum(map(mul, r[start:], x)) % p for r in blk) for blk in blocks)


def _leading(v):
    return next((c for c in v if c), 0)


def scan_fiberfree(F, pool, n):
    """Fiber-free members of an n-dimensional model over a prime field, one by one.

    The members are the coordinate vectors over F_p, as ints mod p, with
    leading coordinate 1 (one per scalar class).  A member is fiber-free when
    no block of the component pool (rows on the n coordinates) has all its
    rows vanish on it.  Each member is split into a head (the first n // 2
    coordinates) and a tail; a row's value on it is its value on the head plus
    its value on the tail, so the tail values are tabulated once and a block
    vanishes exactly when its tail values are the negated head values.
    """
    assert F.degree == 1, "the scan reads field elements as ints mod p"
    p = F.order
    blocks = [[tuple(r) for r in blk] for blk in pool]
    k = n // 2
    tails = list(itertools.product(range(p), repeat=n - k))
    tail_values = [_values(blocks, t, k, p) for t in tails]
    count = 0
    for head in itertools.product(range(p), repeat=k):
        lead = _leading(head)
        if lead > 1:
            continue  # not the representative of its scalar class
        minus = _values(blocks, tuple(-c % p for c in head), 0, p)
        for tail, values in zip(tails, tail_values):
            if lead == 0 and _leading(tail) != 1:
                continue
            if not any(map(eq, values, minus)):
                count += 1
    return count


def ambient_basis(b, D):
    """Basis of the ambient model of a normalized class, built the long way: the
    joint kernel of all its condition rows in the full ambient space, each
    kernel vector reduced by the rref of the conic multiples, then rref."""
    F = b.field
    A, N = linsys._ambient_size(D)
    zech, zpiv = linsys._rref(F, linsys._z_source_rows(b, D.dprime, A))
    cond = [row for P, side, c in D.parts
            for row in linsys._line_ann_rows(b, D.dprime, A, P, linsys._other_side(side), c)]
    kernel = linsys._nullspace(F, cond, N)
    basis, _ = linsys._rref(F, [linsys._reduce_vec(F, zech, zpiv, v) for v in kernel])
    return tuple(tuple(r) for r in basis)


def rows_on_basis(F, rows, basis):
    """Rows as functionals on the span of a basis, in its coordinates, in rref."""
    ech, _ = linsys._rref(F, [[linsys._dot(F, row, v) for v in basis] for row in rows])
    return [tuple(r) for r in ech]


class _LowestTerms:
    """A numerator/denominator pair already in lowest terms, denominator > 0."""
    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator


# Fraction(x) copies the pair of a single Rational argument as it is, gcd-free
numbers.Rational.register(_LowestTerms)


def zeta_truncated_exact(F, s, B):
    """Partial Euler product of the P1 zeta over closed points of degree <= B, exactly.

    With N_m = point_count(q, m), each factor (1 - q^(-sm))^(-N_m) is
    (q^(sm) / (q^(sm) - 1))^(N_m), so the product is num / den with
    num = q^(s * sum m N_m) and den = prod (q^(sm) - 1)^(N_m).  These are
    coprime by construction: num is a power of p, and q^(sm) - 1 = -1 mod p,
    so p divides no factor of den.  The Fraction is built from the pair as it
    is, with no gcd on integers of millions of bits.
    """
    if s <= 1:
        raise OutsideConvergenceRegion(f"s = {s} is outside the convergence region s > 1")
    q = F.order
    counts = [(m, curve.point_count(q, m)) for m in range(1, B + 1)]
    num = q ** (s * sum(m * n for m, n in counts))
    den = math.prod((q ** (s * m) - 1) ** n for m, n in counts)
    assert den % F.char, f"zeta truncation denominator is divisible by p = {F.char}"
    return Fraction(_LowestTerms(num, den))
