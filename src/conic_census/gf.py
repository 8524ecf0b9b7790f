"""Exact arithmetic in F_q for odd q and in F_q[t].

Every base field F_q, prime or not, is a `Field` whose elements are the ints
range(q), coded by their coefficient digits over F_p, with arithmetic by table
lookup.  Every field carries the row kernel of elimination, `sub_scaled`
(v - c*w on whole vectors) and `scaled` (c*w); a Field runs both by lookups
in one table row per scalar c.  Polynomials over any field are trimmed tuples
of elements, constant term first; () is the zero polynomial.  Field objects
carry the arithmetic and are hashable, so they can key caches and sit inside
the package's immutable value classes.

The residue fields of closed points of degree >= 2 (`locus.ExtField`), square
roots and factoring live in `locus`, which only a run that reaches a singular
fiber or such a point loads.  The irreducibility test and the canonical
modulus, which every non-prime field and the closed points need, stay here.
"""

import itertools
import operator

from .errors import CharTwoUnsupported, FieldTooLarge, NotPrime

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
    entries built once at construction: sums digit by digit, products and
    inverses from the discrete log to the least generator of F_q^x, which
    takes a few times q products of digit vectors.
    """

    def __init__(self, p, modulus=(0, 1)):
        self.char, self.modulus = p, tuple(modulus)
        self.degree = n = len(modulus) - 1
        self.order = q = p ** n
        self.zero, self.one = 0, p ** (n - 1)
        # sums digit by digit: the table on k digits is F_p's on the leading
        # digit, laid over the table on the k - 1 digits after it
        fp = [[(x + y) % p for y in range(p)] for x in range(p)]
        add = fp
        for k in range(1, n):
            m = p ** k
            add = [[s * m + x for s in fp[hi] for x in row] for hi in range(p) for row in add]
        self._add = tuple(map(tuple, add))
        self._neg = neg = tuple(row.index(0) for row in add)
        self._sub = tuple(tuple(map(row.__getitem__, neg)) for row in add)
        # products and inverses from the powers of the least generator of F_q^x
        exp = _generator_powers(p, self.modulus)
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        logs = log[1:]
        exp2 = exp + exp
        self._mul = ((0,) * q,) + tuple((0,) + tuple(map(exp2[log[a]:].__getitem__, logs))
                                        for a in range(1, q))
        self._inv = (None,) + tuple(exp[-log[a]] for a in range(1, q))

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


def _generator_powers(p, modulus):
    """g^0, ..., g^(q-2) as ints, for g the least int that generates F_q^x.

    Each candidate's powers are walked until they return to one, so a
    candidate of order k costs k products of digit vectors."""
    n = len(modulus) - 1
    q, one = p ** n, p ** (n - 1)
    weights = [p ** i for i in range(n - 1, -1, -1)]
    code = lambda v: sum(map(operator.mul, v, weights))
    for g in range(1, q):
        gv = tuple(g // w % p for w in weights)
        exp, u = [one], gv
        while (x := code(u)) != one:
            exp.append(x)
            u = _mul_mod(u, gv, modulus, p)
        if len(exp) == q - 1:
            return exp
    raise AssertionError("the multiplicative group has no generator")


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
