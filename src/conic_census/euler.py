"""Certified enclosures of truncated Euler products, for the zeta task.

The partial Euler product of the P1 zeta over the closed points of degree
<= B is an exact rational with millions of bits by degree 12, so
`curve.zeta_truncated` encloses it in fixed point instead, and
`EulerEnclosure.floor_decimal` adds fraction bits until the digits it is asked
for are certain.  Only the zeta task reaches this module; `curve` loads it
inside `zeta_truncated`.
"""

import math
from fractions import Fraction


def _fixed_mul(a, b, bits, up):
    """a * b / 2^bits in fixed point 2^bits, rounded down, or up when up is set."""
    return -(-a * b >> bits) if up else a * b >> bits


def _fixed_pow(base, n, bits, up):
    """base^n in fixed point 2^bits by square-and-multiply, rounding every step one way."""
    out = 1 << bits
    while n:
        if n & 1:
            out = _fixed_mul(out, base, bits, up)
        n >>= 1
        if n:
            base = _fixed_mul(base, base, bits, up)
    return out


def _enclose(q, s, counts, bits):
    """The EulerEnclosure of the product over counts with the given fraction bits."""
    bounds = []
    for up in (False, True):
        x = 1 << bits
        for m, n in counts:
            Q = q ** (s * m)
            factor = -(-(Q << bits) // (Q - 1)) if up else (Q << bits) // (Q - 1)
            x = _fixed_mul(x, _fixed_pow(factor, n, bits, up), bits, up)
        bounds.append(x)
    return EulerEnclosure(q, s, counts, bits, *bounds)


class EulerEnclosure:
    """Certified bounds lo / 2^bits <= x <= hi / 2^bits on a truncated Euler product.

    x = prod over (m, N_m) in counts of (q^(sm) / (q^(sm) - 1))^(N_m).  Every
    value involved is positive, so rounding each factor and each product down
    gives lo and rounding up gives hi.
    """
    # a plain class, as are the package's value classes (value.Value): a dataclass
    # costs an `inspect` import plus about 1 ms per class at every start-up
    __slots__ = ("q", "s", "counts", "bits", "lo", "hi")

    def __init__(self, q, s, counts, bits, lo, hi):
        self.q, self.s, self.counts, self.bits, self.lo, self.hi = q, s, counts, bits, lo, hi

    def _floors(self, scale, closed):
        """floor(scale * t) at both ends of the enclosure of t = x or |closed - x|."""
        den = 1 << self.bits
        a, b = self.lo, self.hi
        if closed is not None:
            cn, cd = closed.numerator, closed.denominator
            a, b, den = cn * den - cd * b, cn * den - cd * a, cd * den
            if b <= 0:
                a, b = -b, -a
            elif a < 0:
                a, b = 0, max(-a, b)
        return a * scale // den, b * scale // den

    def floor_decimal(self, digits, closed=None):
        """floor(10^digits * t) / 10^digits for t = x, or t = |closed - x| with closed exact.

        The floor is read off the enclosure once both ends give the same one;
        until then the bounds are rebuilt with twice as many fraction bits.
        Ends that never agree mean that t is a multiple of 10^-digits.
        Then x's denominator divides 10^digits times closed's denominator, so
        it is small, and x is built exactly once the fraction bits reach its
        bit length, which ends the loop.
        """
        q, s, counts = self.q, self.s, self.counts
        scale = 10 ** digits
        # an upper bound on the bit length of x's denominator prod (q^(sm) - 1)^(N_m)
        limit = sum(n * (q ** (s * m) - 1).bit_length() for m, n in counts)
        enc = self
        while enc.bits < limit:
            lo, hi = enc._floors(scale, closed)
            if lo == hi:
                return Fraction(lo, scale)
            enc = _enclose(q, s, counts, 2 * enc.bits)
        x = Fraction(q ** (s * sum(m * n for m, n in counts)),
                     math.prod((q ** (s * m) - 1) ** n for m, n in counts))
        t = x if closed is None else abs(closed - x)
        return Fraction(t.numerator * scale // t.denominator, scale)
