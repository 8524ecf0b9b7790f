"""The singular locus: where a coefficient form vanishes and how the fiber there splits.

A conic bundle's singular fibers lie over the zeros of its coefficient forms:
infinity where a form's s-order is 1, and the monic irreducible factors of
its affine part.  Finding them needs factoring over F_q (`factor_poly`), and
classifying the fiber over a point P needs the residue field kappa(P)
(`ExtField` for deg P >= 2) with squares and square roots in it.

On l = 0 no form has a zero, so no fiber is singular; `bundle.validate_bundle`
loads this module only on l >= 1, and `curve.residue_field` only at the first
point of degree >= 2.  The polynomial arithmetic that every non-prime field
and the closed points need (`gf.poly_is_irreducible`, `gf.canonical_modulus`)
stays in `gf`.
"""

import itertools

from . import curve, gf
from .bundle import FiberClass, SingularFiber, bf_value_at
from .errors import ZeroElement, ZeroPolynomial


class ExtField(gf._Ops):
    """Extension base[x]/(modulus) of a base Field, elements are tuples over the base.

    Serves the residue fields kappa(P) of closed points of degree >= 2.
    """

    def __init__(self, base, modulus):
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = tuple(modulus)
        self.char = base.char
        self.degree = len(modulus) - 1
        self.order = base.order ** self.degree
        self.zero = (base.zero,) * self.degree
        self.one = self.embed(base.one)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        return self.reduce(gf.poly_mul(self.base, a, b))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.order - 2)

    def reduce(self, f):
        """The image of a polynomial over the base, f(x) mod the modulus."""
        r = gf.poly_mod(self.base, f, self.modulus)
        return r + (self.base.zero,) * (self.degree - len(r))

    def embed(self, a):
        """Lift a base field element into this extension."""
        return (a,) + (self.base.zero,) * (self.degree - 1)

    def elements(self):
        return itertools.product(self.base.elements(), repeat=self.degree)

    def to_index(self, a):
        idx = 0
        for x in reversed(a):
            idx = idx * self.base.order + self.base.to_index(x)
        return idx

    def from_index(self, i):
        out = []
        for _ in range(self.degree):
            i, r = divmod(i, self.base.order)
            out.append(self.base.from_index(r))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, ExtField) and other.base == self.base and other.modulus == self.modulus

    def __hash__(self):
        return hash(("ExtField", self.base, self.modulus))

    def __repr__(self):
        return f"F{self.order}"


def is_square(F, a):
    """Euler criterion: a^((#F-1)/2) == 1; rejects a = 0."""
    if a == F.zero:
        raise ZeroElement("squareness of 0 is not defined here")
    return F.pow(a, (F.order - 1) // 2) == F.one


def sqrt(F, a):
    """A square root of a nonzero square, via Tonelli-Shanks with a scanned nonresidue."""
    if not is_square(F, a):
        raise ValueError("not a square")
    q = F.order
    if q % 4 == 3:
        return F.pow(a, (q + 1) // 4)
    s, m = q - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = next(x for x in F.elements() if x != F.zero and not is_square(F, x))
    c = F.pow(z, s)
    t = F.pow(a, s)
    r = F.pow(a, (s + 1) // 2)
    while t != F.one:
        i, t2 = 0, t
        while t2 != F.one:
            t2 = F.mul(t2, t2)
            i += 1
        b = F.pow(c, 1 << (m - i - 1))
        m = i
        c = F.mul(b, b)
        t = F.mul(t, c)
        r = F.mul(r, b)
    return r


# --- factoring over F_q ---


def poly_deriv(F, f):
    return gf.poly_trim(F, [F.mul(F.from_int(i), c) for i, c in enumerate(f)][1:])


def _pth_root(F, f):
    # f = g(t^p) with g_i = f_{p*i}^{q/p}, so that g has p-th power f
    p = F.char
    e = F.order // p
    return tuple(F.pow(f[i], e) for i in range(0, len(f), p))


def _ddf_edf(F, f):
    """Distinct-degree then deterministic equal-degree split of a squarefree monic f."""
    out = []
    q = F.order
    x = (F.zero, F.one)
    xq = gf.poly_pow_mod(F, x, q, f)
    frob = xq
    k = 1
    rest = f
    while gf.deg(rest) >= 2 * k:
        g = gf.poly_gcd(F, gf.poly_sub(F, gf.poly_mod(F, frob, rest), x), rest)
        if gf.deg(g) > 0:
            out.extend(_edf(F, g, k))
            rest = gf.poly_divmod(F, rest, g)[0]
        k += 1
        frob = gf.poly_pow_mod(F, frob, q, f)
    if gf.deg(rest) > 0:
        out.append(rest)
    return out


def _edf(F, f, k):
    """Split a product of distinct degree-k irreducibles by scanning split candidates."""
    if gf.deg(f) == k:
        return [f]
    half = (F.order ** k - 1) // 2
    for m in range(1, 2 * k + 1):
        for low in itertools.product(F.elements(), repeat=m):
            u = gf.poly_trim(F, tuple(low) + (F.one,))
            w = gf.poly_pow_mod(F, u, half, f)
            g = gf.poly_gcd(F, gf.poly_sub(F, w, (F.one,)), f)
            if 0 < gf.deg(g) < gf.deg(f):
                return _edf(F, g, k) + _edf(F, gf.poly_divmod(F, f, g)[0], k)
    raise AssertionError("equal-degree split not found")


def factor_poly(F, f):
    """Factor f into monic irreducibles; returns (unit, {factor: multiplicity})."""
    f = gf.poly_trim(F, f)
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f[-1]
    out = {}
    _factor_monic(F, gf.poly_monic(F, f), out, 1)
    return unit, out


def _factor_monic(F, f, out, mult):
    if gf.deg(f) <= 0:
        return
    fp = poly_deriv(F, f)
    if not fp:
        _factor_monic(F, _pth_root(F, f), out, mult * F.char)
        return
    g = gf.poly_gcd(F, f, fp)
    sqf = gf.poly_divmod(F, f, g)[0]
    for h in _ddf_edf(F, sqf):
        out[h] = out.get(h, 0) + mult
    _factor_monic(F, g, out, mult)


# --- the singular fibers ---


def _singular_catalog(F, forms, sords, facs):
    """The singular fibers over the zeros of each form: infinity where its
    s-order is 1, and the monic irreducible factors of its affine part."""
    fibers = []
    for idx, (sord, fac) in enumerate(zip(sords, facs)):
        if sord == 1:
            fibers.append(_classify_at(F, forms, idx, curve.INFINITY))
        for g in fac:
            fibers.append(_classify_at(F, forms, idx, curve.ClosedPoint(g, gf.deg(g))))
    fibers.sort(key=lambda f: curve.point_sort_key(F, f.point))
    return tuple(fibers)


def _classify_at(F, forms, vanishing_idx, P):
    # fiber over P with forms[vanishing_idx] = 0: a binary quadratic in the two surviving variables
    K = curve.residue_field(F, P)
    vals = [bf_value_at(F, f, P) for f in forms]
    # cyclic convention: a=0 tests -c/b, b=0 tests -a/c, c=0 tests -b/a
    i = vanishing_idx
    w1, w2 = (i + 1) % 3, (i + 2) % 3
    ratio = K.neg(K.div(vals[w2], vals[w1]))
    if not is_square(K, ratio):
        return SingularFiber(P, FiberClass.NONSPLIT_PAIR, None)
    r = sqrt(K, ratio)
    # forms[w1] u^2 + forms[w2] w^2 = forms[w1] (u - r w)(u + r w) in surviving coords (u, w)
    line1, line2 = [K.zero] * 3, [K.zero] * 3
    line1[w1], line1[w2] = K.one, K.neg(r)
    line2[w1], line2[w2] = K.one, r
    lines = sorted((_normalize_line(K, line1), _normalize_line(K, line2)),
                   key=lambda v: tuple(K.to_index(x) for x in v))
    return SingularFiber(P, FiberClass.SPLIT_PAIR, tuple(lines))


def _normalize_line(K, vec):
    lead = next(c for c in vec if c != K.zero)
    inv = K.inv(lead)
    return tuple(K.mul(inv, c) for c in vec)
