"""Test oracles: slow, plain recounts of what the package counts faster.

Tests import this module as `oracles`; pytest puts the tests directory on
sys.path for the test files beside it.
"""

import itertools
from operator import eq, mul


def _values(blocks, x, start, p):
    """Per block, the tuple of its rows' values on the coordinates x placed at start."""
    return tuple(tuple(sum(map(mul, r[start:], x)) % p for r in blk) for blk in blocks)


def _leading(v):
    return next((c for c in v if c), 0)


def scan_fiberfree(F, pool, n):
    """Fiber-free members of an n-dimensional model over a prime field, one by one.

    The members are the coordinate vectors over F_p, as ints mod p, with
    leading coordinate 1 (one per scalar class).  A member is fiber-free when
    no block of the component pool (rows in basis coordinates) has all its
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
