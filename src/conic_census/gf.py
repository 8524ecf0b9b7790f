"""Exact arithmetic in F_q for odd q, in extensions of F_q, and in F_q[t].

Every base field F_q, prime or not, is a `Field` whose elements are the ints
range(q), coded by their coefficient digits over F_p, with arithmetic by table
lookup.  The residue fields of closed points of degree n >= 2 are `ExtField`s
over their base Field, with elements tuples of n base elements, low degree
first.  Every field carries the row kernel of elimination, `sub_scaled`
(v - c*w on whole vectors) and `scaled` (c*w); a Field runs both by lookups
in one table row per scalar c.  Polynomials over any field are trimmed tuples
of elements, constant term first; () is the zero polynomial.  Field objects
carry the arithmetic and are hashable, so they can key caches and sit inside
the package's immutable value classes.
"""

import itertools

from .errors import CharTwoUnsupported, FieldTooLarge, NotPrime, ZeroElement, ZeroPolynomial

MAX_BASE_ORDER = 27


class _Ops:
    """Division, powers and the row kernel, from a field's sub, mul and inv."""

    def sub_scaled(self, v, c, w):
        """The vector v - c*w."""
        return [self.sub(x, self.mul(c, y)) for x, y in zip(v, w)]

    def scaled(self, c, w):
        """The vector c*w."""
        return [self.mul(c, y) for y in w]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        out = self.one
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out


class Field(_Ops):
    """F_q = F_p[x]/(modulus) with the ints range(q) as elements.

    The element c_0 + c_1 x + ... + c_{n-1} x^{n-1} is the int whose base-p
    digits, most significant first, are c_0, ..., c_{n-1}.  Int order is then
    the lexicographic order of coefficient vectors, and one is p^(n-1).  The
    prime field has modulus x.  Arithmetic is lookups in tables of q^2
    entries built once at construction.
    """

    def __init__(self, p, modulus=(0, 1)):
        self.char, self.modulus = p, tuple(modulus)
        self.degree = n = len(modulus) - 1
        self.order = q = p ** n
        self.zero, self.one = 0, p ** (n - 1)
        vecs = [tuple(self.to_digits(a)) for a in range(q)]
        code = {v: a for a, v in enumerate(vecs)}.__getitem__
        table = lambda op: tuple(tuple(code(op(u, v)) for v in vecs) for u in vecs)
        self._add = table(lambda u, v: tuple((x + y) % p for x, y in zip(u, v)))
        self._sub = table(lambda u, v: tuple((x - y) % p for x, y in zip(u, v)))
        self._mul = table(lambda u, v: _mul_mod(u, v, self.modulus, p))
        self._neg = self._sub[0]
        self._inv = (None,) + tuple(row.index(self.one) for row in self._mul[1:])

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._sub[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def sub_scaled(self, v, c, w):
        sub, mc = self._sub, self._mul[c]
        return [sub[x][mc[y]] for x, y in zip(v, w)]

    def scaled(self, c, w):
        mc = self._mul[c]
        return [mc[y] for y in w]

    def from_int(self, k):
        return k % self.char * self.one

    def elements(self):
        return range(self.order)

    def to_digits(self, a):
        """The coefficients c_0, ..., c_{n-1} of a: its base-p digits."""
        return [a // self.char ** i % self.char for i in range(self.degree - 1, -1, -1)]

    def from_digits(self, digits):
        if len(digits) != self.degree:
            raise ValueError("digit vector length mismatch" if len(digits) % self.degree
                             else "prime field element has one digit")
        out = 0
        for c in digits:
            out = out * self.char + c % self.char
        return out

    def to_index(self, a):
        """The index with c_0 least significant: the digits of a reversed."""
        return self.from_digits(self.to_digits(a)[::-1])

    # reversing the digits twice is the identity
    from_index = to_index

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Field", self.char, self.modulus))

    def __repr__(self):
        return f"F{self.order}"


def _mul_mod(u, v, modulus, p):
    """Product of two coefficient vectors over F_p, reduced mod the monic modulus."""
    n = len(u)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):  # x^n = -(m_0 + ... + m_{n-1} x^{n-1})
        for j in range(n):
            prod[k - n + j] -= prod[k] * modulus[j]
    return tuple(c % p for c in prod[:n])


class ExtField(_Ops):
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
        return self.reduce(poly_mul(self.base, a, b))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.order - 2)

    def reduce(self, f):
        """The image of a polynomial over the base, f(x) mod the modulus."""
        r = poly_mod(self.base, f, self.modulus)
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


def _is_prime(m):
    if m < 2:
        return False
    for d in range(2, int(m ** 0.5) + 1):
        if m % d == 0:
            return False
    return True


def make_field(p, n=1, max_order=MAX_BASE_ORDER):
    """Build F_{p^n} with the canonical modulus; p an odd prime, p^n <= max_order."""
    if not isinstance(p, int) or not isinstance(n, int) or n < 1:
        raise NotPrime(f"p={p}, n={n}: need an integer prime p and integer n >= 1")
    if p == 2:
        raise CharTwoUnsupported("characteristic 2 is not supported")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p ** n > max_order:
        raise FieldTooLarge(f"q = {p}^{n} = {p ** n} exceeds the cap {max_order}")
    base = Field(p)
    if n == 1:
        return base
    return Field(p, canonical_modulus(base, n))


def canonical_modulus(F, n):
    """Lexicographically least monic irreducible of degree n, low-degree coefficients first."""
    for low in itertools.product(F.elements(), repeat=n):
        f = tuple(low) + (F.one,)
        if poly_is_irreducible(F, f):
            return f
    raise AssertionError("no irreducible of requested degree")


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


# --- polynomials over a field, as trimmed coefficient tuples ---


def poly_trim(F, f):
    f = tuple(f)
    while f and f[-1] == F.zero:
        f = f[:-1]
    return f


def deg(f):
    return len(f) - 1


def poly_add(F, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return poly_trim(F, out)


def poly_neg(F, f):
    return tuple(F.neg(c) for c in f)


def poly_sub(F, f, g):
    return poly_add(F, f, poly_neg(F, g))


def poly_scale(F, f, c):
    if c == F.zero:
        return ()
    return tuple(F.mul(x, c) for x in f)


def poly_mul(F, f, g):
    if not f or not g:
        return ()
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x == F.zero:
            continue
        for j, y in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(F, out)


def poly_divmod(F, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg, lead_inv = deg(g), F.inv(g[-1])
    quo = [F.zero] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        c = F.mul(f[-1], lead_inv)
        k = len(f) - 1 - dg
        quo[k] = c
        for i, gc in enumerate(g):
            f[k + i] = F.sub(f[k + i], F.mul(c, gc))
        while f and f[-1] == F.zero:
            f.pop()
    return poly_trim(F, quo), poly_trim(F, f)


def poly_mod(F, f, g):
    return poly_divmod(F, f, g)[1]


def poly_monic(F, f):
    if not f:
        return ()
    return poly_scale(F, f, F.inv(f[-1]))


def poly_gcd(F, f, g):
    while g:
        f, g = g, poly_mod(F, f, g)
    return poly_monic(F, f)


def poly_pow_mod(F, f, k, m):
    out, f = (F.one,), poly_mod(F, f, m)
    while k:
        if k & 1:
            out = poly_mod(F, poly_mul(F, out, f), m)
        f = poly_mod(F, poly_mul(F, f, f), m)
        k >>= 1
    return out


def poly_eval(F, f, x):
    out = F.zero
    for c in reversed(f):
        out = F.add(F.mul(out, x), c)
    return out


def poly_deriv(F, f):
    return poly_trim(F, [F.mul(F.from_int(i), c) for i, c in enumerate(f)][1:])


def poly_is_irreducible(F, f):
    """Rabin test: x^{q^n} = x mod f, and gcd(x^{q^{n/r}} - x, f) = 1 for primes r | n."""
    n = deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = (F.zero, F.one)
    q = F.order
    for r in sorted({r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)}):
        h = poly_pow_mod(F, x, q ** (n // r), f)
        if deg(poly_gcd(F, poly_sub(F, h, x), f)) != 0:
            return False
    return poly_pow_mod(F, x, q ** n, f) == poly_mod(F, x, f)


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
    xq = poly_pow_mod(F, x, q, f)
    frob = xq
    k = 1
    rest = f
    while deg(rest) >= 2 * k:
        g = poly_gcd(F, poly_sub(F, poly_mod(F, frob, rest), x), rest)
        if deg(g) > 0:
            out.extend(_edf(F, g, k))
            rest = poly_divmod(F, rest, g)[0]
        k += 1
        frob = poly_pow_mod(F, frob, q, f)
    if deg(rest) > 0:
        out.append(rest)
    return out


def _edf(F, f, k):
    """Split a product of distinct degree-k irreducibles by scanning split candidates."""
    if deg(f) == k:
        return [f]
    half = (F.order ** k - 1) // 2
    for m in range(1, 2 * k + 1):
        for low in itertools.product(F.elements(), repeat=m):
            u = poly_trim(F, tuple(low) + (F.one,))
            w = poly_pow_mod(F, u, half, f)
            g = poly_gcd(F, poly_sub(F, w, (F.one,)), f)
            if 0 < deg(g) < deg(f):
                return _edf(F, g, k) + _edf(F, poly_divmod(F, f, g)[0], k)
    raise AssertionError("equal-degree split not found")


def factor_poly(F, f):
    """Factor f into monic irreducibles; returns (unit, {factor: multiplicity})."""
    f = poly_trim(F, f)
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f[-1]
    out = {}
    _factor_monic(F, poly_monic(F, f), out, 1)
    return unit, out


def _factor_monic(F, f, out, mult):
    if deg(f) <= 0:
        return
    fp = poly_deriv(F, f)
    if not fp:
        _factor_monic(F, _pth_root(F, f), out, mult * F.char)
        return
    g = poly_gcd(F, f, fp)
    sqf = poly_divmod(F, f, g)[0]
    for h in _ddf_edf(F, sqf):
        out[h] = out.get(h, 0) + mult
    _factor_monic(F, g, out, mult)
