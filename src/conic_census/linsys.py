"""Section spaces on a conic bundle, component valuations, and exact counts.

One function turns a class into its model data (`_layout`), read from its
canonical coordinates.  A class D with dprime >= 0 is modelled by the forms in
the monomials of its layout whose coefficients are binary forms of degree
A = a + sum of c_P deg P over the c_P > 0, taken modulo the conic multiples;
each c_P != 0 asks order |c_P| along E'_P if c_P > 0, along E_P if c_P < 0.
Two functions fix the coordinates: `_monos` and `_z_source_rows`.  On l >= 1 the
monomials are those of integer degree dprime in (x, y, z).  On l = 0 the
conic factor is a smooth plane conic, so O(D) matches the bidegree (d, e/2)
forms on a product of two projective lines: the monomials are (d - i, i),
dprime may be a half-integer, and there are no conic multiples and no
conditions, so the basis is the identity.  Coefficient vectors are laid out
monomial-major (graded lex) with ascending t-degree inside each binary form,
and every basis is kept in reduced row echelon form, so coset
representatives are canonical.

Vanishing to order k along a fiber component, a line over a split point or a
whole fiber, has one builder on both layouts (`_ann_rows`): the rows that
annihilate the k-th power of the component's ideal plus the conic multiples.
It reduces each coefficient form mod pi, p_P^k over F for a fiber and the
place's linear form to the k-th over kappa(P) for a line, and eliminates in
|monos| deg pi columns whatever the coefficient degree.  Condition rows,
containment rows and multiplicities all read it.

Dims, component pools and proportions read ranks from one echelon of a
class's condition rows (`_conditions`), empty on l = 0; only `section_space`
builds a basis (`_basis`).  The echelon of a class's lines is a copy of the
memoized one of all its lines but the last, which every class with that
prefix shares, plus the last block.  Dims have one memo, keyed on canonical
coordinates (`_dim_at`) and read with no class built; above a per-(dp, cs)
threshold (`_a0`) it is chi, and the threshold scan reads that table alone.

Fiber-free members are counted from section-space dims alone: a sieve over
the vertical prime divisors, E_P and E'_P over each split point and F_P over
every other point, reads the dims of D minus vertical classes and builds no
member and no containment row.  On l >= 1 with dprime >= 2 the subset sum over
the component pool, whose blocks are the containment rows of each component,
counts instead, because the model dims and those rows disagree on some of
these classes (ROADMAP item 2).  A class whose space has more than the
budget's q^dim vectors is refused before it is counted.
Fiber-free divisors form the free commutative monoid on the horizontal prime
divisors, so the irreducible counts follow from the fiber-free counts of the
sub-classes by a recursion on the fiber degree.  The recursion, its memos and
the sieve work on canonical coordinates (dp, a, cs), take the sub-classes
from `picard.sub_classes` and build no member; only the pool builds a class.
"""

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, count

from . import curve, picard
from .bundle import BinaryForm, FiberClass, bf_mul, fiber_lines, point_form
from .errors import (EmptySpace, EnumerationBudgetExceeded, NotASplitFiber,
                     OddDegreeUnsupported, ZeroSection)
from .value import Value

DEFAULT_BUDGET = 10 ** 8


# --- linear algebra over a field object ---


def _reduce_vec(F, ech, piv, v):
    for row, pc in zip(ech, piv):
        c = v[pc]
        if c != F.zero:
            v = F.sub_scaled(v, c, row)
    return v


def _append_row(F, ech, piv, row):
    """Append a row, reduced and scaled to 1 at its pivot, to a semi-echelon
    basis in place; False when it reduces to zero.  Earlier rows are untouched."""
    row = _reduce_vec(F, ech, piv, row)
    lead = next((i for i, c in enumerate(row) if c != F.zero), None)
    if lead is None:
        return False
    ech.append(F.scaled(F.inv(row[lead]), row))
    piv.append(lead)
    return True


def _rref(F, rows):
    """Reduced row echelon form; returns (rows, pivots) with zero rows dropped."""
    ech, piv = [], []
    for row in rows:
        if _append_row(F, ech, piv, row):
            for i, r in enumerate(ech[:-1]):  # clear the new pivot from earlier rows
                if r[piv[-1]] != F.zero:
                    ech[i] = F.sub_scaled(r, r[piv[-1]], ech[-1])
    order = sorted(range(len(piv)), key=lambda i: piv[i])
    return [ech[i] for i in order], [piv[i] for i in order]


def _nullspace(F, rows, n):
    """Basis of the joint kernel of the rows, echelonized over the free columns."""
    ech, piv = _rref(F, rows)
    pivset = set(piv)
    out = []
    for j in range(n):
        if j in pivset:
            continue
        v = [F.zero] * n
        v[j] = F.one
        for row, pc in zip(ech, piv):
            v[pc] = F.neg(row[j])
        out.append(v)
    return out


def _dot(F, row, vec):
    out = zero = F.zero
    for a, b in zip(row, vec):
        if b != zero and a != zero:
            out = F.add(out, F.mul(a, b))
    return out


# --- ambient layout ---


@lru_cache(maxsize=None)
def monomial_basis(dprime):
    """Monomials of total degree dprime in (x, y, z), graded lex with x > y > z."""
    if dprime < 0:
        return ()
    return tuple((i, j, dprime - i - j)
                 for i in range(dprime, -1, -1)
                 for j in range(dprime - i, -1, -1))


@lru_cache(maxsize=None)
def _z_source_rows(b, dp, A):
    """Flat generators of (conic) * (forms of degree dp-2, coefficient degree A-l);
    none on the ruled l = 0 layout, whose dp may be a half-integer."""
    if b.l == 0:
        return ()
    F = b.field
    monos = monomial_basis(dp)
    midx = {m: i for i, m in enumerate(monos)}
    N = len(monos) * (A + 1)
    if dp < 2 or A - b.l < 0 or N == 0:
        return ()
    rows = []
    squares = ((b.a, (2, 0, 0)), (b.b, (0, 2, 0)), (b.c, (0, 0, 2)))
    for m2 in monomial_basis(dp - 2):
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


def _monos(b, dp):
    """The monomials of a class's layout: (2dp - i, i) on the ruled l = 0
    layout, where dp may be a half-integer, else `monomial_basis(dp)`."""
    if b.l:
        return monomial_basis(dp)
    return tuple((int(2 * dp) - i, i) for i in range(int(2 * dp) + 1))


def _layout(b, D):
    """(dp, A, lines) of a class, read from `D.canonical()`: A and the lines
    (P, side, order) are as the module docstring states.  It is the one place
    that refuses a class with no model: a coefficient over a point that does
    not split, half-integer dprime on l >= 1, and dprime < 0."""
    dp, a, parts = D.canonical()
    for P, _ in parts:
        fiber_lines(b, P)  # raises NotASplitFiber where P does not split
    if b.l != 0 and isinstance(dp, Fraction):
        raise OddDegreeUnsupported(
            "half-integer fiber degree needs the ruled model, available only for l = 0")
    if dp < 0:
        raise EmptySpace(f"no sections for fiber half-degree {dp} < 0")
    return (dp, *_lines(a, parts))


def _lines(a, parts):
    """(A, lines) of `_layout` from a and the nonzero (P, c_P), refusing nothing."""
    A = a + sum(c * P.degree for P, c in parts if c > 0)
    return A, tuple((P, "Ep" if c > 0 else "E", abs(c)) for P, c in parts)


def _basis(b, D):
    """The sections of O(D) in rref on the flat layout of (dp, A): the kernel of
    `_conditions`, zero at the conic multiples' pivots."""
    F = b.field
    dp, A, _ = _layout(b, D)
    cols, ech, _ = _conditions(b, D)
    at = {j: i for i, j in enumerate(cols)}
    N = len(_monos(b, dp)) * (A + 1)  # negative, so no column, when A < 0
    kernel = [[v[at[j]] if j in at else F.zero for j in range(N)]
              for v in _nullspace(F, ech, len(cols))]
    return _rref(F, kernel)[0]


def _dim(b, D):
    """The dim of H^0(D), read from ranks without building a basis: `_dim_at`
    of its canonical coordinates, once `_layout` has admitted the class."""
    _layout(b, D)
    return _dim_at(b, *picard.coords(b, D))


@lru_cache(maxsize=None)
def _dim_at(b, dp, a, cs):
    """The dim of H^0(D), D = (dp, a, cs) in canonical coordinates with cs in
    `b.split_points` order: chi on P1 at a >= `_a0` on l = 0 and at dp <= 1,
    where the model's dims are exact, else `_echelon_dim`.  The one memo of
    dims; it refuses nothing, so dp must be one `_layout` admits."""
    if (b.l == 0 or dp <= 1) and a >= _a0(b, dp, cs):
        return _chi(b, dp, a, cs)
    return _echelon_dim(b, dp, a, cs)


def _echelon_dim(b, dp, a, cs):
    """`_cols` less the rank of the condition echelon, so on l = 0 every column."""
    A, lines = _lines(a, [(P, c) for P, c in zip(b.split_points, cs) if c])
    return len(_cols(b, dp, A)) - len(_echelon(b, dp, A, lines)[0])


def _chi(b, dp, a, cs):
    """chi of (dp, a, cs) on P1: every caller counts over the projective line."""
    return picard.euler_char_formula(int(2 * dp), picard.height(b, dp, a, cs), 0, b.l,
                                     sum(c * c * P.degree for c, P in zip(cs, b.split_points)))


@lru_cache(maxsize=None)
def _a0(b, dp, cs):
    """The least a at which `_echelon_dim` of (dp, a, cs) is chi on P1: the a0
    table that `_dim_at` and the threshold scan read.  For dp >= 0 and every
    |c_P| <= dp + 1, h^2 = 0 and h^1 = dim - chi never rises with a (ROADMAP
    item 18), so a steps up from the least a with chi >= 0, below which
    dim >= 0 > chi.  On l >= 1 with dp >= 2 it starts at A >= l - 1, below
    which the model lacks item 2's H^1 kernel.  Outside that box: inf."""
    if dp < 0 or any(abs(c) > dp + 1 for c in cs):
        return math.inf
    a = -(_chi(b, dp, 0, cs) // (int(2 * dp) + 1))  # chi rises by d + 1 per step
    if b.l and dp >= 2:
        a = max(a, b.l - 1 - sum(c * P.degree for c, P in zip(cs, b.split_points) if c > 0))
    while _echelon_dim(b, dp, a, cs) != _chi(b, dp, a, cs):
        a += 1
    return a


@lru_cache(maxsize=None)
def _cols(b, dp, A):
    """The columns off the pivots of the conic multiples for (dp, A): they
    coordinatize forms modulo the conic multiples, and a row that kills the
    conic multiples is fixed by its entries there.

    The generator conic * m * t^tau leads in the block of x^2 m, the first of
    its monomials in graded lex, at column tau + ord_t(a).  These leading
    columns differ, so they are the pivots of the rref: no elimination is
    needed."""
    zrows = _z_source_rows(b, dp, A)
    leads = {next(compress(count(), z)) for z in zrows}  # F's zero is 0
    if len(leads) != len(zrows):
        raise AssertionError("two conic multiples lead at one column")
    return tuple(j for j in range(len(_monos(b, dp)) * (A + 1)) if j not in leads)


def _conditions(b, D):
    """(cols, ech, piv): the condition rows of a class, one block per line of
    its `_layout`, restricted to `_cols`, in one semi-echelon basis
    (`_append_row`); none on l = 0.  H^0(D) is their kernel there, so its dim
    is len(cols) - len(ech).  The rows and pivots are those of appending
    every block in turn to one basis (`_echelon`)."""
    dp, A, lines = _layout(b, D)
    return (_cols(b, dp, A), *_echelon(b, dp, A, lines))


def _echelon(b, dp, A, lines):
    """(ech, piv) of the condition blocks of `lines` in order, as new lists:
    the memoized echelon of lines[:-1] with the last block appended.  An
    appended row is never changed, so the copy shares the rows."""
    if not lines:
        return [], []
    ech, piv = map(list, _prefix_echelon(b, dp, A, lines[:-1]))
    for row in _line_rows_on_cols(b, dp, A, *lines[-1]):
        _append_row(b.field, ech, piv, row)
    return ech, piv


@lru_cache(maxsize=None)
def _prefix_echelon(b, dp, A, lines):
    """`_echelon` of a proper prefix of a class's lines, which classes of one
    (dp, A) share; a class's full echelon is not kept."""
    ech, piv = _echelon(b, dp, A, lines)
    return tuple(ech), tuple(piv)


# --- vanishing rows over residue fields ---


@lru_cache(maxsize=None)
def _ann_rows(b, dp, A, P, side, level):
    """Rows over F, in rref, whose joint kernel in the layout of (dp, A) is
    (component ideal)^level plus the conic multiples.

    A full fiber's ideal is (p_P), taken over F.  A line's is (p, L) at one
    place of kappa(P), p that place's linear form and L the line, since p_P
    itself would also pin the conjugate lines; its annihilator over kappa(P)
    gives one row per coordinate of kappa(P) over F.

    With pi = p_P^level or p^level, R reduces each coefficient form mod pi,
    into the sum over the monomials of K[u]/(pi).  Its kernel, pi times the
    forms of degree A - deg pi, is a full fiber's ideal I and the p^level
    generators of a line's, so ker R lies in I, and the rows killing I plus the
    conic multiples Z are psi o R for the psi killing R(I) + R(Z)."""
    F = b.field
    monos = _monos(b, dp)
    if A < 0 or not monos or level < 1:
        return ()
    if side == "full":
        K = F
        pi = BinaryForm(0, (F.one,))
        for _ in range(level):
            pi = bf_mul(F, pi, point_form(F, P))
        # (multiplier form, spots) of the generators off the kernel of R: none
        terms = []
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
        pi = powers[-1]
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
        # p^i L^(level - i) times every monomial of degree dp - (level - i);
        # i = level spans the kernel of R and is left out
        terms = [(powers[i], [tuple((midx[(mc[0] + ml[0], mc[1] + ml[1], mc[2] + ml[2])], cl)
                                    for ml, cl in lpow[level - i].items())
                              for mc in monomial_basis(dp - level + i)])
                 for i in range(level)]
    # res[tau] is t^tau s^(A - tau) mod pi in the chart where pi is monic: u = t
    # at a finite point, u = s (exponent A - tau) at infinity.  nres holds
    # -res, so v + c res[tau] is K.sub_scaled(v, c, nres[tau])
    n, width = pi.degree, len(monos) * pi.degree
    mod = pi.coeffs[::-1] if P.is_infinity else pi.coeffs
    upow = [[K.one] + [K.zero] * (n - 1)]
    for _ in range(A):
        upow.append(K.sub_scaled([K.zero] + upow[-1][:-1], upow[-1][-1], mod))
    nres = [[K.neg(x) for x in r] for r in (upow[::-1] if P.is_infinity else upow)]
    S = []
    for f, spots in terms:
        # R(f t^tau s^(...)) is f u^x mod pi, x the cofactor's exponent in u;
        # f divides pi, so x < n - deg f spans them all and needs no reduction
        chart = list(f.coeffs[::-1] if P.is_infinity else f.coeffs)
        for x in range(min(A, n - 1) - f.degree + 1):
            beta = [K.zero] * x + chart + [K.zero] * (n - 1 - f.degree - x)
            for spot in spots:
                row = [K.zero] * width
                for m, cl in spot:
                    row[m * n:(m + 1) * n] = K.scaled(cl, beta)
                S.append(row)
    emb = (lambda c: c) if K is F else K.embed
    zrows = _z_source_rows(b, dp, A)
    for z in zrows:
        row = [K.zero] * width
        for j in compress(range(len(z)), z):  # the nonzero entries: F's zero is 0
            m, tau = divmod(j, A + 1)
            row[m * n:(m + 1) * n] = K.sub_scaled(row[m * n:(m + 1) * n], emb(z[j]), nres[tau])
        S.append(row)
    # y = psi o R by monomial blocks: a block is sum_j psi_j (column j of res)
    ncols, ann = list(zip(*nres)), []
    for psi in _nullspace(K, S, width):
        y = []
        for m in range(len(monos)):
            blk = [K.zero] * (A + 1)
            for j, c in enumerate(psi[m * n:(m + 1) * n]):
                if c != K.zero:
                    blk = K.sub_scaled(blk, c, ncols[j])
            y += blk
        ann.append(y)
    if K is not F:
        ann = [[c[sig] for c in y] for y in ann for sig in range(P.degree)]
    ech, _ = _rref(F, ann)
    # `_conditions` and the pool read these rows on `_cols` only
    if any(_dot(F, r, z) != F.zero for r in ech for z in zrows):
        raise AssertionError("conic multiples escaped the condition kernel")
    return tuple(tuple(r) for r in ech)


@lru_cache(maxsize=None)
def _line_rows_on_cols(b, dp, A, P, side, level):
    """`_ann_rows` of a line restricted to `_cols`, once per cached block."""
    return tuple([r[j] for j in _cols(b, dp, A)] for r in _ann_rows(b, dp, A, P, side, level))


# --- sections ---


class Section(Value):
    __slots__ = _fields = ("cls", "ambient_coeffs")

    def __init__(self, cls, ambient_coeffs):
        self._init(cls, ambient_coeffs)


class SectionSpace(Value):
    __slots__ = _fields = ("cls", "basis", "dim")

    def __init__(self, cls, basis, dim):
        self._init(cls, basis, dim)


def section_space(b, D):
    """Basis of the sections of O(D) as canonical ambient representatives."""
    D = picard.normalize(b, D)
    dp, A, _ = _layout(b, D)
    monos = _monos(b, dp)
    sections = tuple(Section(D, {m: BinaryForm(A, tuple(v[i * (A + 1):(i + 1) * (A + 1)]))
                                 for i, m in enumerate(monos)})
                     for v in _basis(b, D))
    return SectionSpace(D, sections, len(sections))


# --- component multiplicities ---


def component_multiplicity(b, s, P, side):
    """Largest power of the named component ideal containing the section."""
    F = b.field
    dp, A, _ = _layout(b, s.cls)
    monos = _monos(b, dp)
    midx = {m: i for i, m in enumerate(monos)}
    flat = [F.zero] * (len(monos) * (A + 1))
    for m, form in s.ambient_coeffs.items():
        if m not in midx or form.degree != A:
            raise ValueError(f"a coefficient at {m} of degree {form.degree} is outside "
                             f"the layout of monomials {monos} in degree {A}")
        flat[midx[m] * (A + 1):(midx[m] + 1) * (A + 1)] = form.coeffs
    # a multiple of the conic is the zero section on X
    zrows = _z_source_rows(b, dp, A)
    if all(c == F.zero for c in _reduce_vec(F, *_rref(F, zrows), flat)):
        raise ZeroSection("the zero section has no divisor")
    guard = dp + A + 2
    k = 0
    while k <= guard:
        if any(_dot(F, r, flat) != F.zero for r in _ann_rows(b, dp, A, P, side, k + 1)):
            return k
        k += 1
    raise AssertionError("valuation loop failed to terminate")


# --- component sets and sieve proportions ---


class ComponentSet(Value):
    __slots__ = _fields = ("elements", "height")

    def __init__(self, elements, height):
        self._init(elements, height)


def component_set(b, items):
    """Validated set of fiber components; side is 'E', 'Ep' or 'full'."""
    F = b.field
    seen = set()
    elems = []
    height = 0
    for P, side in items:
        sf = b.singular_fiber_at(P)
        split = sf is not None and sf.fiber_class is FiberClass.SPLIT_PAIR
        if side in ("E", "Ep"):
            if not split:
                raise NotASplitFiber(
                    f"no split fiber at {curve.point_str(F, P)}")
            height += P.degree
        elif side == "full":
            height += 2 * P.degree
        else:
            raise ValueError(f"unknown side {side!r}")
        key = (P, side)
        if key in seen:
            raise ValueError("duplicate component")
        seen.add(key)
        elems.append(key)
    elems.sort(key=lambda e: (curve.point_sort_key(F, e[0]), e[1]))
    return ComponentSet(tuple(elems), height)


def _containment_rows(b, D, P, side):
    """Flat rows expressing that the member divisor contains the component; a
    full fiber over a split point is both its lines, and a line asks one order
    above the one the class's `_layout` already forces there."""
    dp, A, lines = _layout(b, D)
    if side == "full" and P not in b.split_points:
        return _ann_rows(b, dp, A, P, "full", 1)
    forced = {(Q, ls): c for Q, ls, c in lines}
    return [row for ls in (("E", "Ep") if side == "full" else (side,))
            for row in _ann_rows(b, dp, A, P, ls, forced.get((P, ls), 0) + 1)]


def _on_coords(b, D, blocks):
    """Blocks of `_containment_rows` as functionals on the dim coordinates of
    H^0(D), each in rref.  A row, fixed by its entries on `_cols`, is reduced
    by `_conditions` and read off the condition pivots, so its rank on H^0(D)
    is rank(conditions and rows) - rank(conditions)."""
    F = b.field
    cols, ech, piv = _conditions(b, D)
    keep = [j for j in range(len(cols)) if j not in piv]
    blocks = [[[row[j] for j in keep]
               for row in (_reduce_vec(F, ech, piv, [r[c] for c in cols]) for r in blk)]
              for blk in blocks]
    return [[tuple(r) for r in _rref(F, blk)[0]] for blk in blocks]


def proportion_exact(b, D, S):
    """Share of sections whose member divisor contains every component of S."""
    rows = [row for P, side in S.elements for row in _containment_rows(b, D, P, side)]
    return Fraction(1, b.field.order ** len(_on_coords(b, D, [rows])[0]))


def proportion_product(b, D, S):
    """Independence heuristic for the same event, one exponent per component;
    it refuses a class through `_layout`, as `proportion_exact` does."""
    _layout(b, D)
    d, _ = picard.type_of(b, D)
    expo = 0
    for P, side in S.elements:
        if side == "full":
            singular = b.singular_fiber_at(P) is not None
            expo += P.degree * ((d + 2) if singular else (d + 1))
        else:
            dP = picard.intersect(b, D, picard.component_class(P, side)) // P.degree
            expo += P.degree * (dP + 1)
    return Fraction(1, b.field.order ** expo)


# --- inclusion-exclusion over component subsets ---


def _component_pool(b, D):
    """Containment row blocks, on the dim coordinates of `_on_coords`, for every
    component a member of |D| could contain."""
    F = b.field
    _, e = picard.type_of(b, D)
    catalog = {sf.point for sf in b.singular}
    components = [(P, ls) for P in b.split_points for ls in ("E", "Ep")]
    components += [(sf.point, "full") for sf in b.singular
                   if sf.fiber_class is not FiberClass.SPLIT_PAIR]
    components += [(P, "full") for P in curve.closed_points_up_to(F, max(e // 2, 0))
                   if P not in catalog]
    return _on_coords(b, D, [_containment_rows(b, D, P, side) for P, side in components])


def _tri_count(F, pool, n):
    """Fiber-free member count of an n-dimensional model by signed sums over
    subsets of its component pool; a subset S adds (-1)^|S| (q^(n - rank S) - 1).

    Only the rank is read, so a node keeps a semi-echelon basis: each row is 1
    at its pivot and 0 at earlier rows' pivots, so reducing in insertion order
    is exact, and rows never change, so a child copies only the list.  A spanning
    subset and all its supersets add 0."""
    if n == 0 or not all(pool):
        return 0  # every member contains the component of an empty block
    q = F.order
    total = 0

    def rec(start, ech, piv, sign):
        nonlocal total
        total += sign * (q ** (n - len(ech)) - 1)
        for jj in range(start, len(pool)):
            ech2, piv2 = list(ech), list(piv)
            for row in pool[jj]:
                _append_row(F, ech2, piv2, row)
                if len(ech2) == n:
                    break
            else:
                rec(jj + 1, ech2, piv2, -sign)

    rec(0, [], [], 1)
    if total % (q - 1):
        raise AssertionError("subset sum is not divisible by the scalar count")
    return total // (q - 1)


# --- fiber-free counting ---


def _check_budget(q, dim, budget):
    """Refuse a class whose section space has more than budget vectors.

    The refusal is a size rule on q^dim; no member is scanned.  Its wording
    predates that and is kept, since refused reports carry it.
    """
    steps = q ** dim
    if steps > budget:
        raise EnumerationBudgetExceeded(
            f"{q}^{dim} = {steps} scan steps exceed the budget {budget}")


def _vertical_series(q, degrees, n):
    """Coefficients of T^0..T^n in (1 - T)(1 - qT) / prod over split points of
    (1 - T^deg P): the fibers over the points that do not split, since
    (1 - T)(1 - qT) is 1/Z of the projective line."""
    c = [1, -(q + 1), q][:n + 1] + [0] * max(n - 2, 0)
    for deg in degrees:
        for m in range(deg, n + 1):
            c[m] += c[m - deg]
    return c


def _sieve(b, dp, a, cs):
    """Fiber-free count of the class (dp, a, cs) from section-space dims alone.

    The vertical prime divisors are E_P and E'_P over the split points and F_P
    over every other point, so the fiber-free members of |D| are
    sum over sigma, m of sign(sigma) c_m M(D - shift(sigma) - mF), where sigma
    picks none (+), E_P (-), E'_P (-) or F_P (+) at each split point, c_m are
    the `_vertical_series` coefficients and M(X) = (q^h(X) - 1)/(q - 1).  The
    split points are walked one at a time; none and F_P keep the coordinates
    and fold into the series as 1 + T^deg P, and a branch whose class has dim 0
    is dropped, since subtracting an effective class never raises a dim.
    """
    q = b.field.order
    split = b.split_points

    def h(a, cs):
        if picard.height(b, dp, a, cs) < 0:
            return 0  # H is nef, so a class with D.H < 0 has no sections
        return _dim_at(b, dp, a, cs)  # dp >= 0: `_fiberfree` reads admitted classes

    total = 0

    def walk(i, a, cs, series):
        nonlocal total
        if i == len(split):
            for m, c in enumerate(series):
                if c:
                    dim = h(a - m, cs)
                    if not dim:
                        break
                    total += c * (q ** dim - 1)
            return
        deg = split[i].degree
        walk(i + 1, a, cs, [c + series[m - deg] if m >= deg else c
                            for m, c in enumerate(series)])
        minus = [-c for c in series]
        for da, dc in ((0, -1), (-deg, 1)):  # E_P, then E'_P = deg P F - E_P
            cs2 = cs[:i] + (cs[i] + dc,) + cs[i + 1:]
            if h(a + da, cs2):
                walk(i + 1, a + da, cs2, minus)

    if h(a, cs):
        e = picard.height(b, dp, a, cs)
        walk(0, a, cs, _vertical_series(q, [P.degree for P in split], e // 2))
    if total % (q - 1):
        raise AssertionError("sieve sum is not divisible by the scalar count")
    return total // (q - 1)


@lru_cache(maxsize=None)
def _fiberfree(b, dp, a, cs):
    """Fiber-free count of the admitted class (dp, a, cs): the sieve over dims
    (`_sieve`), or on l >= 1 with dprime >= 2 the subset sum over the pool.

    The pool stays there because its containment rows and the model dims
    disagree on some of those classes (ROADMAP item 2), and reports freeze the
    pool's values."""
    if b.l and dp >= 2:
        D = picard.from_coords(b, (dp, a, cs))
        return _tri_count(b.field, _component_pool(b, D), _dim_at(b, dp, a, cs))
    return _sieve(b, dp, a, cs)


def fiberfree_count(b, D, budget=None):
    """Members of |D| whose divisor contains no fiber component, counted by
    `_fiberfree` (the sieve over dims; the subset sum over the component pool
    on l >= 1 with dprime >= 2) once the q^dim budget admits the class."""
    budget = DEFAULT_BUDGET if budget is None else budget
    try:
        dim = _dim(b, D)
    except EmptySpace:
        return 0  # dprime < 0: no sections, so no members
    _check_budget(b.field.order, dim, budget)
    return _fiberfree(b, *picard.coords(b, D))


# --- irreducible counts by unique factorization ---


@lru_cache(maxsize=None)
def _weighted(b, dp, a, cs, k0=1):
    """c(E) = sum of d(E/k) I(E/k) over the lattice classes E/k, here for k >= k0,
    with E = (dp, a, cs); on l = 0 a quotient may have a half-integer dprime."""
    d, total = int(2 * dp), 0
    for k in range(k0, d + 1):
        dk = picard.half_degree(b, d // k)
        if d % k or dk is None or a % k or any(c % k for c in cs):
            continue
        total += d // k * _prime(b, dk, a // k, tuple(c // k for c in cs))
    return total


@lru_cache(maxsize=None)
def _prime(b, dp, a, cs):
    """Prime count I(D) of D = (dp, a, cs), d = 2 dp >= 1, from fiber-free counts N.

    Fiber-free divisors are the free commutative monoid on the horizontal
    primes, so d N(D) = sum over E + R = D, E != 0, of c(E) N(R), with N(0) = 1
    and c(E) = sum over k D' = E of d(D') I(D').  The term R = 0 is c(D), which
    holds d I(D); the terms with R != 0 are the ordered pairs of
    `picard.sub_classes`, less those with a vertical side, which has no
    fiber-free member of positive fiber degree.
    """
    d = int(2 * dp)
    n = _fiberfree(b, dp, a, cs)
    total = d * n - _weighted(b, dp, a, cs, 2)
    for E, R in picard.sub_classes(b, dp, a, cs):
        if E[0] and R[0]:
            nr = _fiberfree(b, *R)
            if nr:
                total -= _weighted(b, *E) * nr
    if total % d or not 0 <= total // d <= n:
        raise AssertionError(
            f"prime-count identity fails: d I(D) = {total} with d = {d}, N(D) = {n}")
    return total // d


def prime_count(b, d, e, budget=None):
    """Irreducible fiber-free multisections of type (d, e): the sum of I(D) over
    the classes of the type, by unique factorization (`_prime`).

    No member and no class is built outside the pool.  The identity raises
    AssertionError when it gives I(D) < 0 or I(D) > N(D), or a sum that d does
    not divide.  The pre-check of the q^dim budget over each class and its
    factor classes is the one budget gate: the recursion reads the counts
    without charging the budget again.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    if d < 1:
        return 0  # every horizontal prime divisor has D.F >= 1
    if d % 2 and b.l > 0:
        raise OddDegreeUnsupported(
            "odd fiber degree requires the ruled model, available only for l = 0")
    if b.l > 0 and b.generic_fiber_trivial:
        # odd-degree primes outside the lattice break the identity; the message
        # is kept as it was, since refused reports carry it
        raise OddDegreeUnsupported(
            "every singular fiber splits, so odd-degree multisections exist but the "
            "integer class lattice cannot represent them; the marked set would be "
            "incomplete for any d")
    total = 0
    for D in sorted(picard.canonical_of_type(b, d, e), key=partial(picard.coord_key, b)):
        # the budget covers the class, then both sides of each factor pair in
        # the walk's order, on every call, memoized or not; the recursion
        # reads the counts of all of them
        for X in [D, *(X for E, R in picard.sub_classes(b, *D) if E[0] and R[0] for X in (E, R))]:
            _check_budget(b.field.order, _dim_at(b, *X), budget)
        total += _prime(b, *D)
    return total


# --- empirical dimension threshold ---


def scan_dimension_threshold(b, cv, d):
    """Least height above which every class of fiber degree d has dim equal to chi.

    In the window -(2d + 4) <= e <= floor(dl/2) + 2d + 8 it reads the a0 table
    alone (`_a0`): the classes (dp, a, cs) of a twist tuple fail exactly at
    a < a0, so the largest failing height of cs is h(cs) + 2 (min(a0, a_hi + 1)
    - 1).  Returns the next height above the largest at which classes exist,
    or the window floor when none fails.  Hypothesis: for dp >= 0 and
    |c_P| <= dp + 1, h^2 = 0 and h^1 never rises with a; proven for the
    model's dims on l = 0 and at dp <= 1, measured on l >= 1 with dp >= 2,
    where it holds once A >= l - 1 (item 2's missing H^1 kernel is then zero).
    The table is P1's: every caller passes genus 0 (the CLI scans for predict
    only at genus 0)."""
    e_lo, e_hi = -(2 * d + 4), (d * b.l) // 2 + 2 * d + 8
    dp = picard.half_degree(b, d)
    if dp is None:
        return e_lo  # odd d on l >= 1: the type has no class
    fail_at = e_lo - 1
    for cs in picard.twist_box(b, dp):
        h = picard.height(b, dp, 0, cs)
        fail_at = max(fail_at, h + 2 * (min(_a0(b, dp, cs), (e_hi - h) // 2 + 1) - 1))
    if fail_at < e_lo:
        return e_lo
    e = fail_at + 1
    while next(picard.canonical_of_type(b, d, e), None) is None:
        e += 1
    return e
