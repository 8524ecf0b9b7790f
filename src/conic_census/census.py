"""Exact constants and predicted counts for the multisection census.

Counts of irreducible multisections of even fiber degree d grow like
leading * sqrt(q)^((d+1)e) in the height e.  The leading coefficient is
assembled from exact rational data: the Jacobian order and zeta value of
the base curve, a power of sqrt(q) fixed by the genus and the singular
locus degree, and one correction factor per singular fiber.  Everything
here stays in exact arithmetic (Fraction pairs u + v*sqrt(q)); decimals
are rendered by integer square roots, never through binary floats.
"""

import math
from fractions import Fraction
from functools import lru_cache

from . import curve
from .bundle import FiberClass
# kept as a census name: tests and perfbench's traced spans read it here
from .curve import decimal_of_fraction  # noqa: F401
from .errors import BOutOfRange
from .value import Value


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class SqrtQRational(Value):
    """Exact value u + v*sqrt(q); collapses to a rational when q is square."""

    __slots__ = _fields = ("u", "v", "q")

    def __init__(self, u, v, q):
        if q < 2:
            raise ValueError("q must be at least 2")
        u, v = _frac(u), _frac(v)
        root = math.isqrt(q)
        if root * root == q and v:
            u, v = u + v * root, Fraction(0)
        self._init(u, v, q)

    def _coerce(self, other):
        if isinstance(other, SqrtQRational):
            if other.q != self.q:
                raise ValueError("mixed sqrt bases")
            return other
        return SqrtQRational(_frac(other), Fraction(0), self.q)

    @property
    def is_rational(self):
        return self.v == 0

    def as_fraction(self):
        if self.v:
            raise ValueError("value has an irrational part")
        return self.u

    def __add__(self, other):
        o = self._coerce(other)
        return SqrtQRational(self.u + o.u, self.v + o.v, self.q)

    __radd__ = __add__

    def __neg__(self):
        return SqrtQRational(-self.u, -self.v, self.q)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        return SqrtQRational(self.u * o.u + self.v * o.v * self.q,
                            self.u * o.v + self.v * o.u, self.q)

    __rmul__ = __mul__

    def _inverse(self):
        norm = self.u * self.u - self.v * self.v * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero value")
        return SqrtQRational(self.u / norm, -self.v / norm, self.q)

    def __truediv__(self, other):
        return self * self._coerce(other)._inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self._inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer exponents only")
        if n < 0:
            return self._inverse() ** (-n)
        out = SqrtQRational(Fraction(1), Fraction(0), self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _sign(self):
        if self.v == 0:
            return (self.u > 0) - (self.u < 0)
        if self.u == 0:
            return 1 if self.v > 0 else -1
        if self.u > 0 and self.v > 0:
            return 1
        if self.u < 0 and self.v < 0:
            return -1
        big = self.u * self.u > self.v * self.v * self.q
        return (1 if big else -1) * (1 if self.u > 0 else -1)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.u == o.u and self.v == o.v

    def __hash__(self):
        return hash((self.u, self.v, self.q)) if self.v else hash(self.u)

    def __lt__(self, other):
        return (self - self._coerce(other))._sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other))._sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other))._sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other))._sign() >= 0

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def to_decimal(self, digits=50):
        """Render floor-rounded to the given digits via exact integer roots."""
        if digits < 1:
            raise ValueError("digits must be positive")
        scale = 10 ** digits
        a = self.u * scale
        b = self.v * scale
        den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
        ai = a.numerator * (den // a.denominator)
        bi = b.numerator * (den // b.denominator)
        root2 = bi * bi * self.q
        root = math.isqrt(root2)
        if bi >= 0:
            sfloor = root
        else:
            sfloor = -root - (0 if root * root == root2 else 1)
        total = (ai + sfloor) // den
        sign = "-" if total < 0 else ""
        whole, frac = divmod(abs(total), scale)
        return f"{sign}{whole}.{frac:0{digits}d}"


def sqrtq(q, u, v=0):
    return SqrtQRational(_frac(u), _frac(v), q)


def sqrt_power(q, n):
    """Exact sqrt(q)^n for any integer n."""
    half, odd = divmod(n, 2)
    base = Fraction(q) ** half
    if not odd:
        return SqrtQRational(base, Fraction(0), q)
    return SqrtQRational(Fraction(0), base, q)


def a_const(q, g, l, d):
    """Genus and singular-locus power of sqrt(q) in the leading coefficient."""
    if d <= 0 or d % 2:
        raise ValueError("d must be even and positive")
    return sqrt_power(q, (d + 1) * (2 - 2 * g) - l * ((d // 2 + 1) ** 2 - 1))


def _bundle_catalog(b):
    c1 = []
    c2 = []
    for f in b.singular:
        if f.fiber_class is FiberClass.NONSPLIT_PAIR:
            c1.append(f.point.degree)
        else:
            c2.append(f.point.degree)
    return tuple(c1), tuple(c2)


def _b_range(d, deg):
    from . import picard  # imported here, as in compare_table: zeta loads census alone

    return picard.twist_cap(d // 2, deg)


def k_bar_catalog(q, d, c1_degrees, c2_degrees, bbar):
    """Per-fiber correction for one twist tuple, from singular degrees alone."""
    dprime = d // 2
    if len(bbar) != len(c2_degrees):
        raise ValueError("one twist per split fiber required")
    out = Fraction(1)
    for m in c1_degrees:
        out *= Fraction(q ** (m * (d + 2)) - 1, q ** (m * (d + 2)))
        out /= Fraction(q ** (m * (d + 1)) - 1, q ** (m * (d + 1)))
    for m, bp in zip(c2_degrees, bbar):
        cap = _b_range(d, m)
        if abs(bp) > cap:
            raise BOutOfRange(f"twist {bp} exceeds {cap} for a degree-{m} fiber")
        out *= Fraction(q ** (m * (dprime - bp + 1)) - 1, q ** (m * (dprime - bp + 1)))
        out *= Fraction(q ** (m * (dprime + bp + 1)) - 1, q ** (m * (dprime + bp + 1)))
        out /= Fraction(q ** (m * (d + 1)) - 1, q ** (m * (d + 1)))
    return out


@lru_cache(maxsize=None)
def k_const_catalog(q, d, c1_degrees, c2_degrees):
    """Sum the twist corrections, weighted down by sqrt(q) per squared twist.

    Each summand is the c1 factor times a product over the split fibers of
    k_m(b) sqrt(q)^(-b^2 m), so the sum over all twist tuples is that factor
    times the product over the split fibers of sum_b k_m(b) sqrt(q)^(-b^2 m),
    exactly.  A parity restriction on the twists (ROADMAP item 11) would turn
    this product into a sum over the two parity classes.

    Cached: `predict` and `leading_coeff` ask for the same K at every height."""
    total = sqrtq(q, k_bar_catalog(q, d, c1_degrees, (), ()))
    for m in c2_degrees:
        cap = _b_range(d, m)
        total = total * sum((k_bar_catalog(q, d, (), (m,), (bp,)) * sqrt_power(q, -bp * bp * m)
                             for bp in range(-cap, cap + 1)), sqrtq(q, 0))
    return total


def K_bar(b, d, bbar):
    """Correction factor for a bundle and a split-point twist map."""
    c1, _ = _bundle_catalog(b)
    split = b.split_points
    for P in bbar:
        if P not in split:
            raise ValueError("twists must be indexed by split points")
    degrees = tuple(P.degree for P in split)
    tup = tuple(bbar.get(P, 0) for P in split)
    return k_bar_catalog(b.field.order, d, c1, degrees, tup)


def K_const(b, d):
    c1, c2 = _bundle_catalog(b)
    return k_const_catalog(b.field.order, d, c1, c2)


def leading_coeff(b, cv, d):
    """Exact coefficient of sqrt(q)^((d+1)e) in the predicted count."""
    q = b.field.order
    zeta = curve.zeta_value(cv, b.field, d + 1)
    out = K_const(b, d) * a_const(q, cv.genus, b.l, d)
    return out * Fraction(cv.jacobian) / (Fraction(q - 1) * zeta)


def predict(b, cv, d, e):
    """Predicted main term and error scale for type (d, e)."""
    q = b.field.order
    main = leading_coeff(b, cv, d) * sqrt_power(q, (d + 1) * e)
    return main, sqrt_power(q, d * e)


def compare_table(b, cv, d, e_list, budget=None):
    """Predicted versus enumerated counts, one row per height."""
    from . import linsys, picard

    rows = []
    for e in e_list:
        main, err = predict(b, cv, d, e)
        mf = sum(linsys.fiberfree_count(b, D, budget=budget)
                 for D in picard.classes_of_type(b, d, e))
        m = linsys.prime_count(b, d, e, budget=budget)
        rows.append({
            "d": d,
            "e": e,
            "predicted": main,
            "error_scale": err,
            "enumerated_Mf": mf,
            "enumerated_M": m,
            "ratio": m / main,
        })
    return rows
