"""Closed points of P1 over F_q and exact zeta values for curves over F_q.

A closed point is either the infinite point (poly None) or a monic irreducible
in the affine coordinate t.  Curves other than P1 enter only through their
numerical data (genus, Jacobian order, L-polynomial); enumeration always
happens on P1.
"""

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import gf
from .errors import OutsideConvergenceRegion


@dataclass(frozen=True)
class ClosedPoint:
    poly: tuple | None
    degree: int

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


@dataclass(frozen=True)
class CurveDescriptor:
    genus: int
    jacobian: int
    l_poly: tuple

    def __post_init__(self):
        if self.genus < 0 or self.jacobian < 1:
            raise ValueError("genus must be >= 0 and the Jacobian order positive")
        if len(self.l_poly) != 2 * self.genus + 1 or self.l_poly[0] != 1:
            raise ValueError("L-polynomial needs constant term 1 and degree 2*genus")
        if self.genus == 0 and (self.jacobian != 1 or tuple(self.l_poly) != (1,)):
            raise ValueError("genus 0 forces a trivial Jacobian and L-polynomial 1")


P1_CURVE = CurveDescriptor(0, 1, (1,))


def zeta_value(curve, F, s):
    """Exact zeta value L(q^-s) / ((1 - q^-s)(1 - q^(1-s))) as a Fraction; needs s >= 2."""
    if s <= 1:
        raise OutsideConvergenceRegion(f"s = {s} is outside the convergence region s > 1")
    q = F.order
    T = Fraction(1, q ** s)
    num = sum(Fraction(c) * T ** i for i, c in enumerate(curve.l_poly))
    return num / ((1 - T) * (1 - q * T))


class _LowestTerms:
    """A numerator/denominator pair already in lowest terms, denominator > 0."""
    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator


# Fraction(x) copies the pair of a single Rational argument as it is, gcd-free
numbers.Rational.register(_LowestTerms)


def zeta_truncated(F, s, B):
    """Partial Euler product of the P1 zeta over closed points of degree <= B.

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
    counts = [(m, point_count(q, m)) for m in range(1, B + 1)]
    num = q ** (s * sum(m * n for m, n in counts))
    den = math.prod((q ** (s * m) - 1) ** n for m, n in counts)
    assert den % F.char, f"zeta truncation denominator is divisible by p = {F.char}"
    return Fraction(_LowestTerms(num, den))
