"""Closed points of P1 over F_q and exact zeta values for curves over F_q.

A closed point is either the infinite point (poly None) or a monic irreducible
in the affine coordinate t.  Curves other than P1 enter only through their
numerical data (genus, Jacobian order, L-polynomial); enumeration always
happens on P1.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import gf
from .errors import OutsideConvergenceRegion
from .value import Value


class ClosedPoint(Value):
    __slots__ = _fields = ("poly", "degree")

    def __init__(self, poly, degree):
        self._init(poly, degree)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.poly == other.poly and self.degree == other.degree
        return NotImplemented

    def __hash__(self):
        return hash((self.poly, self.degree))

    @property
    def is_infinity(self):
        return self.poly is None


INFINITY = ClosedPoint(None, 1)


def point_from_poly(F, f):
    f = gf.poly_trim(F, f)
    if gf.deg(f) < 1 or f[-1] != F.one or not gf.poly_is_irreducible(F, f):
        raise ValueError("closed point needs a monic irreducible polynomial")
    return ClosedPoint(f, gf.deg(f))


def point_sort_key(F, P):
    """Deterministic order: by degree, infinity first, then coefficient indices."""
    if P.is_infinity:
        return (P.degree, 0, ())
    return (P.degree, 1, tuple(F.to_index(c) for c in P.poly))


def point_str(F, P):
    if P.is_infinity:
        return "infinity"
    parts = []
    for i in range(gf.deg(P.poly), -1, -1):
        c = P.poly[i]
        if c == F.zero:
            continue
        if i == 0:
            parts.append(_coeff_str(F, c))
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            parts.append(tpow if c == F.one else f"{_coeff_str(F, c)}*{tpow}")
    return " + ".join(parts) if parts else "0"


def _coeff_str(F, c):
    return str(c) if F.degree == 1 else str(F.to_digits(c))


def residue_field(F, P):
    """kappa(P): F itself for degree 1, else the extension F[t]/(P)."""
    if P.degree == 1:
        return F
    return gf.ExtField(F, P.poly)


def residue_of_poly(F, P, f):
    """Image of the affine polynomial f(t) in kappa(P); P must be affine."""
    if P.is_infinity:
        raise ValueError("affine reduction is undefined at infinity")
    if P.degree == 1:
        return gf.poly_eval(F, f, F.neg(P.poly[0]))
    return residue_field(F, P).reduce(f)


@lru_cache(maxsize=None)
def closed_points_up_to(F, B):
    """All closed points of P1 of degree <= B, sorted deterministically, as a tuple."""
    pts = []
    if B >= 1:
        pts.append(INFINITY)
    for n in range(1, B + 1):
        for low in itertools.product(F.elements(), repeat=n):
            f = tuple(low) + (F.one,)
            if gf.poly_is_irreducible(F, f):
                pts.append(ClosedPoint(f, n))
    pts.sort(key=lambda P: point_sort_key(F, P))
    return tuple(pts)


def _mobius(m):
    out, n, p = 1, m, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def point_count(q, m):
    """Number of degree-m closed points of P1 over F_q."""
    if m == 1:
        return q + 1
    total = sum(_mobius(d) * q ** (m // d) for d in range(1, m + 1) if m % d == 0)
    return total // m


class CurveDescriptor(Value):
    __slots__ = _fields = ("genus", "jacobian", "l_poly")

    def __init__(self, genus, jacobian, l_poly):
        if genus < 0 or jacobian < 1:
            raise ValueError("genus must be >= 0 and the Jacobian order positive")
        if len(l_poly) != 2 * genus + 1 or l_poly[0] != 1:
            raise ValueError("L-polynomial needs constant term 1 and degree 2*genus")
        if genus == 0 and (jacobian != 1 or tuple(l_poly) != (1,)):
            raise ValueError("genus 0 forces a trivial Jacobian and L-polynomial 1")
        self._init(genus, jacobian, l_poly)


P1_CURVE = CurveDescriptor(0, 1, (1,))


def zeta_value(curve, F, s):
    """Exact zeta value L(q^-s) / ((1 - q^-s)(1 - q^(1-s))) as a Fraction; needs s >= 2."""
    if s <= 1:
        raise OutsideConvergenceRegion(f"s = {s} is outside the convergence region s > 1")
    q = F.order
    T = Fraction(1, q ** s)
    num = sum(Fraction(c) * T ** i for i, c in enumerate(curve.l_poly))
    return num / ((1 - T) * (1 - q * T))


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


def decimal_of_fraction(x, digits):
    """Floor-rounded decimal string of an exact rational, no binary floats."""
    if digits < 1:
        raise ValueError("digits must be positive")
    if isinstance(x, int):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"expected an exact rational, got {type(x).__name__}")
    scale = 10 ** digits
    total = (x.numerator * scale) // x.denominator
    sign = "-" if total < 0 else ""
    whole, frac = divmod(abs(total), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


def zeta_truncated(F, s, B):
    """Enclosure of the partial Euler product of the P1 zeta over closed points of degree <= B.

    With N_m = point_count(q, m), each factor (1 - q^(-sm))^(-N_m) is
    (q^(sm) / (q^(sm) - 1))^(N_m).  The exact product has millions of bits by
    degree 12, so it is enclosed with 64 fraction bits; floor_decimal adds
    bits as far as the digits it is asked for need.
    """
    if s <= 1:
        raise OutsideConvergenceRegion(f"s = {s} is outside the convergence region s > 1")
    q = F.order
    return _enclose(q, s, tuple((m, point_count(q, m)) for m in range(1, B + 1)), 64)
