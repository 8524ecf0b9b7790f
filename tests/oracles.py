"""Test oracles: slow, plain recounts of what the package counts faster.

Tests import this module as `oracles`; pytest puts the tests directory on
sys.path for the test files beside it.
"""

import itertools
import math
import numbers
from fractions import Fraction
from functools import lru_cache
from operator import eq, mul

from conic_census import census, curve, gf, linsys, picard
from conic_census.bundle import BinaryForm, bf_mul, fiber_lines, point_form
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


@lru_cache(maxsize=None)
def z_source_rows(b, dp, A):
    """Flat generators of (conic) * (forms of degree dp-2, coefficient degree A-l)
    on the ambient layout of forms in (x, y, z), for every l: on l = 0 this is
    the plane model that the ruled layout replaces in the package."""
    F = b.field
    monos = linsys.monomial_basis(dp)
    midx = {m: i for i, m in enumerate(monos)}
    N = len(monos) * (A + 1)
    if dp < 2 or A - b.l < 0 or N == 0:
        return ()
    rows = []
    squares = ((b.a, (2, 0, 0)), (b.b, (0, 2, 0)), (b.c, (0, 0, 2)))
    for m2 in linsys.monomial_basis(dp - 2):
        for t2 in range(A - b.l + 1):
            row = [F.zero] * N
            for form, sq in squares:
                M = (m2[0] + sq[0], m2[1] + sq[1], m2[2] + sq[2])
                base = midx[M] * (A + 1)
                for k, cf in enumerate(form.coeffs):
                    if cf != F.zero:
                        row[base + t2 + k] = F.add(row[base + t2 + k], cf)
            rows.append(tuple(row))
    return tuple(rows)


def ambient_basis(b, D):
    """Basis of the ambient model of a class, built the long way: the joint
    kernel of all its condition rows in the full ambient space of forms in
    (x, y, z), each kernel vector reduced by the rref of the conic multiples,
    then rref.  On l = 0 it is the plane model of the class.  The layout is
    read from the normalized stored form, not from `linsys._layout`: A is a
    plus every stored c deg P, and a stored component conditions the opposite
    line over its point."""
    F = b.field
    D = picard.normalize(b, D)
    A = D.a + sum(c * P.degree for P, _, c in D.parts)
    N = len(linsys.monomial_basis(D.dprime)) * (A + 1) if A >= 0 else 0
    zech, zpiv = linsys._rref(F, z_source_rows(b, D.dprime, A))
    cond = [row for P, side, c in D.parts
            for row in linsys._ann_rows(b, D.dprime, A, P, "Ep" if side == "E" else "E", c)]
    kernel = linsys._nullspace(F, cond, N)
    basis, _ = linsys._rref(F, [linsys._reduce_vec(F, zech, zpiv, v) for v in kernel])
    return tuple(tuple(r) for r in basis)


def ruled_basis(b, D):
    """Basis of the ruled model of a class of type (d, e) on l = 0: the bidegree
    (d, e/2) forms, all (d + 1)(e/2 + 1) of them, as the identity basis."""
    F = b.field
    delta, e = picard.type_of(b, D)
    n = (delta + 1) * (e // 2 + 1) if e >= 0 else 0
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def full_ann_rows(b, dp, A, P, level):
    """Rows whose joint kernel is p_P^level multiples plus conic multiples, on
    the ambient layout of (dp, A) for every l: the reference for
    `linsys._ann_rows` on a full fiber."""
    F = b.field
    monos = linsys.monomial_basis(dp)
    midx = {mm: i for i, mm in enumerate(monos)}
    N = len(monos) * (A + 1) if A >= 0 else 0
    if N == 0:
        return ()
    pf = point_form(F, P)
    power = BinaryForm(0, (F.one,))
    for _ in range(level):
        power = bf_mul(F, power, pf)
    gens = [list(r) for r in z_source_rows(b, dp, A)]
    rem = A - level * P.degree
    if rem >= 0:
        for mc in monos:
            base = midx[mc] * (A + 1)
            for tau in range(rem + 1):
                row = [F.zero] * N
                for k, cf in enumerate(power.coeffs):
                    if cf != F.zero:
                        row[base + tau + k] = cf
                gens.append(row)
    ann = linsys._nullspace(F, gens, N)
    ech, _ = linsys._rref(F, ann)
    return tuple(tuple(r) for r in ech)


def global_ann_rows(b, dp, A, P, side, level):
    """Rows over F, in rref, whose joint kernel in the layout of (dp, A) is
    (component ideal)^level plus the conic multiples, from one nullspace in
    all N = |monos|(A + 1) columns: the reference for `linsys._ann_rows`,
    full fibers and lines alike.

    A full fiber's ideal is (p_P), taken over F.  A line's is (p, L) at one
    place of kappa(P), p that place's linear form and L the line, since p_P
    itself would also pin the conjugate lines; its annihilator over kappa(P)
    gives one row per coordinate of kappa(P) over F."""
    F = b.field
    monos = linsys._monos(b, dp)
    N = len(monos) * (A + 1) if A >= 0 else 0
    if N == 0:
        return ()
    if side == "full":
        K = F
        power = BinaryForm(0, (F.one,))
        for _ in range(level):
            power = bf_mul(F, power, point_form(F, P))
        # (multiplier form, spots): a spot is the (monomial index, coefficient)
        # list of the monomial part of one generator
        terms = [(power, [((i, F.one),) for i in range(len(monos))])]
    else:
        line = fiber_lines(b, P)[0 if side == "E" else 1]
        K = curve.residue_field(F, P)
        if P.degree == 1:
            pf = point_form(F, P)
        else:
            theta = curve.residue_of_poly(F, P, (F.zero, F.one))
            pf = BinaryForm(1, (K.neg(theta), K.one))
        powers = [BinaryForm(0, (K.one,))]
        for _ in range(level):
            powers.append(bf_mul(K, powers[-1], pf))
        lvec = {(1, 0, 0): line[0], (0, 1, 0): line[1], (0, 0, 1): line[2]}
        lpow = [{(0, 0, 0): K.one}]
        for _ in range(level):
            nxt = {}
            for mm, cm in lpow[-1].items():
                for mv, cv in lvec.items():
                    if cv == K.zero or cm == K.zero:
                        continue
                    MM = (mm[0] + mv[0], mm[1] + mv[1], mm[2] + mv[2])
                    nxt[MM] = K.add(nxt.get(MM, K.zero), K.mul(cm, cv))
            lpow.append(nxt)
        midx = {mm: i for i, mm in enumerate(monos)}
        # p^i L^(level - i) times every monomial of degree dp - (level - i)
        terms = [(powers[i], [tuple((midx[(mc[0] + ml[0], mc[1] + ml[1], mc[2] + ml[2])], cl)
                                    for ml, cl in lpow[level - i].items())
                              for mc in linsys.monomial_basis(dp - level + i)])
                 for i in range(level + 1)]
    emb = (lambda c: c) if K is F else K.embed
    zrows = linsys._z_source_rows(b, dp, A)
    gens = [[emb(c) for c in r] for r in zrows]
    for pi, spots in terms:
        for spot in spots:
            for tau in range(A - pi.degree + 1):
                row = [K.zero] * N
                for m, cl in spot:
                    base = m * (A + 1) + tau
                    for k, cf in enumerate(pi.coeffs):
                        if cf != K.zero:
                            row[base + k] = K.add(row[base + k], K.mul(cl, cf))
                gens.append(row)
    ann = linsys._nullspace(K, gens, N)
    if K is not F:
        ann = [[c[sig] for c in y] for y in ann for sig in range(P.degree)]
    ech, _ = linsys._rref(F, ann)
    if any(linsys._dot(F, r, z) != F.zero for r in ech for z in zrows):
        raise AssertionError("conic multiples escaped the condition kernel")
    return tuple(tuple(r) for r in ech)


def param_full_rows(b, D, P):
    """Coefficient-divisibility rows for a full fiber on the ruled l = 0 layout
    of D: every coefficient form reduces to 0 in kappa(P), or has no s^A term
    at infinity.  The reference for `linsys._ann_rows` there."""
    F = b.field
    delta, e = picard.type_of(b, D)
    A = e // 2
    width = A + 1
    N = (delta + 1) * width if e >= 0 else 0
    if N == 0:
        return []
    rows = []
    if P.is_infinity:
        for i in range(delta + 1):
            row = [F.zero] * N
            row[i * width + A] = F.one
            rows.append(row)
    else:
        K = curve.residue_field(F, P)
        red = [curve.residue_of_poly(F, P, ((F.zero,) * t) + (F.one,)) for t in range(width)]
        red = [[x] if K is F else list(x) for x in red]
        for i in range(delta + 1):
            for sig in range(P.degree):
                row = [F.zero] * N
                for t in range(width):
                    row[i * width + t] = red[t][sig]
                rows.append(row)
    return rows


def binary_val(F, form, P):
    """Order of p_P dividing a nonzero binary form, by polynomial division."""
    g = gf.poly_trim(F, form.coeffs)
    if P.is_infinity:
        return form.degree - gf.deg(g)
    v = 0
    while True:
        quo, rem = gf.poly_divmod(F, g, tuple(P.poly))
        if rem:
            return v
        g, v = quo, v + 1


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


def scan_threshold_by_classes(b, cv, d):
    """`linsys.scan_dimension_threshold` as it was on classes: each class of
    the type is built and sorted by `picard.classes_of_type`, its dim read
    from its echelon (`linsys._echelon_dim`, not the a0 table that the scan
    and `linsys._dim` read) and its chi by `picard.euler_char` through the
    pairing."""
    e_lo, e_hi = -(2 * d + 4), (d * b.l) // 2 + 2 * d + 8
    fail_at = None
    for e in range(e_hi, e_lo - 1, -1):
        if any(linsys._echelon_dim(b, *picard.coords(b, D)) != picard.euler_char(b, cv, D)
               for D in picard.classes_of_type(b, d, e)):
            fail_at = e
            break
    if fail_at is None:
        return e_lo
    e = fail_at + 1
    while not picard.classes_of_type(b, d, e):
        e += 1
    return e


def conditions_from_scratch(b, D):
    """`linsys._conditions` with every block of the class appended in turn to
    one new semi-echelon basis: no prefix echelon is read."""
    dp, A, lines = linsys._layout(b, D)
    ech, piv = [], []
    for P, side, c in lines:
        for row in linsys._line_rows_on_cols(b, dp, A, P, side, c):
            linsys._append_row(b.field, ech, piv, row)
    return linsys._cols(b, dp, A), ech, piv


def k_const_by_twists(q, d, c1_degrees, c2_degrees):
    """`census.k_const_catalog` as the literal sum over every twist tuple."""
    total = census.sqrtq(q, 0)
    ranges = [range(-census._b_range(d, m), census._b_range(d, m) + 1) for m in c2_degrees]
    for bbar in itertools.product(*ranges):
        weight = sum(bp * bp * m for bp, m in zip(bbar, c2_degrees))
        k_bar = census.k_bar_catalog(q, d, c1_degrees, c2_degrees, bbar)
        total = total + k_bar * census.sqrt_power(q, -weight)
    return total


def _class_sort_key(D):
    dp, a, bs = D.canonical()
    return (Fraction(dp), a, tuple((P.degree, P.is_infinity, P.poly or (), c) for P, c in bs))


def decompositions(b, D):
    """`picard.decompositions` by its former body: every class pair of the twist
    boxes and heights in [0, e], deduplicated through a set, each pair and the
    list sorted by the classes' sort key."""
    d, e = picard.type_of(b, D)
    split = b.split_points
    _, _, bs = D.canonical()
    bmap = dict(bs)
    target_b = [bmap.get(P, 0) for P in split]
    halves = b.l == 0
    seen = set()
    out = []
    d_steps = [Fraction(k, 2) for k in range(0, d + 1)] if halves else list(range(0, d // 2 + 1))
    for dp1 in d_steps:
        dp2 = (Fraction(d, 2) if halves else d // 2) - dp1
        if dp2 < dp1:
            continue
        b_ranges = []
        for P, tb in zip(split, target_b):
            lo = max(-int(dp1 // P.degree), tb - int(dp2 // P.degree))
            hi = min(int(dp1 // P.degree), tb + int(dp2 // P.degree))
            b_ranges.append(range(lo, hi + 1))
        for combo in itertools.product(*b_ranges):
            b1 = dict(zip(split, combo))
            b2 = {P: tb - c for P, tb, c in zip(split, target_b, combo)}
            w1 = sum(c * P.degree for P, c in b1.items())
            w2 = sum(c * P.degree for P, c in b2.items())
            for e1 in range(0, e + 1):
                e2 = e - e1
                n1 = e1 - dp1 * b.l - w1
                n2 = e2 - dp2 * b.l - w2
                if isinstance(n1, Fraction):
                    if n1.denominator != 1 or n2.denominator != 1:
                        continue
                    n1, n2 = int(n1), int(n2)
                if n1 % 2 or n2 % 2:
                    continue
                if (dp1 == 0 and e1 == 0) or (dp2 == 0 and e2 == 0):
                    continue  # the zero class is not a genuine factor
                D1 = picard.class_from_canonical(dp1, n1 // 2, b1)
                D2 = picard.class_from_canonical(dp2, n2 // 2, b2)
                key = tuple(sorted((_class_sort_key(D1), _class_sort_key(D2))))
                if key in seen:
                    continue
                seen.add(key)
                pair = sorted((D1, D2), key=_class_sort_key)
                out.append((pair[0], pair[1]))
    out.sort(key=lambda pr: (_class_sort_key(pr[0]), _class_sort_key(pr[1])))
    return out


def p1_prime_counts(q, n_max, m_max):
    """Irreducible curves of bidegree (n, m) on P1 x P1 over F_q, as a dict on
    (n, m) for n <= n_max and m <= m_max, with no linear algebra.

    Effective divisors of bidegree (n, m) number N(n, m) = (q^((n+1)(m+1)) -
    1)/(q - 1), and they form the free commutative monoid on the irreducible
    ones, so sum N(n, m) x^n y^m = prod (1 - x^i y^j)^(-I(i, j)).  Its log
    derivative along x d/dx + y d/dy gives, on w = n + m,
    w N(n, m) = sum of c(i, j) N(n - i, m - j) over nonzero (i, j) <= (n, m),
    with c(i, j) the sum of (i + j)/k I(i/k, j/k) over the common divisors k."""
    def N(n, m):
        return (q ** ((n + 1) * (m + 1)) - 1) // (q - 1)

    c, I = {}, {}
    for w in range(1, n_max + m_max + 1):
        for n in range(max(0, w - m_max), min(w, n_max) + 1):
            m = w - n
            c[n, m] = w * N(n, m) - sum(c[i, j] * N(n - i, m - j)
                                        for i in range(n + 1) for j in range(m + 1)
                                        if 0 < i + j < w)
            rest = c[n, m] - sum(w // k * I[n // k, m // k]
                                 for k in range(2, w + 1) if n % k == 0 == m % k)
            assert rest % w == 0, (q, n, m)
            I[n, m] = rest // w
    return I
