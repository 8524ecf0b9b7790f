"""Section spaces on a conic bundle, component valuations, and exact counts.

A class D with integer dprime >= 0 is modelled inside the ambient space of
forms of degree dprime in (x, y, z) whose coefficients are binary forms of
degree A = a + sum of b_P deg P over the stored components, taken modulo
multiples of the defining conic; each stored component imposes vanishing
conditions on the opposite line over its split point.  Coefficient vectors
are laid out monomial-major (graded lex, x > y > z) with ascending t-degree
inside each binary form, and every basis is kept in reduced row echelon
form, so coset representatives are canonical.  Bundles with l = 0 also
carry a ruled model: the conic factor is a smooth plane conic, so O(D)
matches the bidegree (d, e/2) forms on a product of two projective lines;
that model covers the half-integer dprime classes of odd fiber degree.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import curve, gf, picard
from .bundle import BinaryForm, FiberClass, bf_mul, fiber_lines, point_form
from .errors import (EmptySpace, EnumerationBudgetExceeded, NotASplitFiber,
                     OddDegreeUnsupported, ZeroSection)

DEFAULT_BUDGET = 10 ** 8


# --- linear algebra over a field object ---


def _reduce_vec(F, ech, piv, v):
    v = list(v)
    for row, pc in zip(ech, piv):
        c = v[pc]
        if c != F.zero:
            v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
    return v


def _insert_row(F, ech, piv, row, npivot=None):
    """Add a row to a reduced echelon basis in place; False when it reduces to zero.

    Pivots are confined to the first npivot columns (all columns when None).
    """
    row = _reduce_vec(F, ech, piv, row)
    lead = next((i for i, c in enumerate(row[:npivot]) if c != F.zero), None)
    if lead is None:
        return False
    inv = F.inv(row[lead])
    row = [F.mul(inv, c) for c in row]
    for r, pc in zip(ech, piv):
        c = r[lead]
        if c != F.zero:
            r[:] = [F.sub(x, F.mul(c, y)) for x, y in zip(r, row)]
    ech.append(row)
    piv.append(lead)
    return True


def _rref(F, rows, npivot=None):
    """Reduced row echelon form; returns (rows, pivots) with zero rows dropped."""
    ech, piv = [], []
    for row in rows:
        _insert_row(F, ech, piv, row, npivot)
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
    out = F.zero
    for a, b in zip(row, vec):
        if a != F.zero and b != F.zero:
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
    """Flat generators of (conic) * (forms of degree dp-2, coefficient degree A-l)."""
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


class _Model:
    """Frozen computational model of one normalized class."""

    __slots__ = ("kind", "cls", "dp", "A", "monos", "N", "zech", "zpiv",
                 "basis", "dim", "delta", "beta")


def _ambient_A(D):
    return D.a + sum(c * P.degree for P, _, c in D.parts)


@lru_cache(maxsize=None)
def _model(b, D):
    """Build the cached space model for a class; the argument is normalized first."""
    D = picard.normalize(b, D)
    F = b.field
    m = _Model()
    m.cls = D
    if isinstance(D.dprime, Fraction):
        if b.l != 0:
            raise OddDegreeUnsupported(
                "half-integer fiber degree needs the ruled model, available only for l = 0")
        m.kind = "param"
        m.delta = int(2 * D.dprime)
        m.beta = D.a
        m.dim = (m.delta + 1) * (m.beta + 1) if m.beta >= 0 else 0
        m.dp = m.A = m.monos = m.zech = m.zpiv = None
        m.N = m.dim
        m.basis = None
        return m
    if D.dprime < 0:
        raise EmptySpace(f"no sections for fiber half-degree {D.dprime} < 0")
    m.kind = "ambient"
    m.dp = D.dprime
    m.A = _ambient_A(D)
    m.monos = monomial_basis(m.dp)
    m.N = len(m.monos) * (m.A + 1) if m.A >= 0 else 0
    m.delta = m.beta = None
    if m.N == 0:
        m.zech, m.zpiv, m.basis, m.dim = (), (), (), 0
        return m
    zech, zpiv = _rref(F, _z_source_rows(b, m.dp, m.A))
    m.zech = tuple(tuple(r) for r in zech)
    m.zpiv = tuple(zpiv)
    cond = []
    for P, side, c in D.parts:
        cond.extend(_line_ann_rows(b, m.dp, m.A, P, _other_side(side), c))
    kernel = _nullspace(F, cond, m.N)
    reduced = [_reduce_vec(F, m.zech, m.zpiv, v) for v in kernel]
    basis, _ = _rref(F, reduced)
    m.basis = tuple(tuple(r) for r in basis)
    m.dim = len(m.basis)
    if len(kernel) - len(m.zech) != m.dim:
        raise AssertionError("conic multiples escaped the condition kernel")
    return m


def _other_side(side):
    return "Ep" if side == "E" else "E"


# --- condition rows over residue fields ---


def _kappa_coords(K, F, x):
    return [x] if K is F or K == F else list(x)


@lru_cache(maxsize=None)
def _line_ann_rows(b, dp, A, P, side, level):
    """Rows whose joint kernel is (component ideal)^level plus conic multiples."""
    F = b.field
    monos = monomial_basis(dp)
    midx = {mm: i for i, mm in enumerate(monos)}
    N = len(monos) * (A + 1) if A >= 0 else 0
    if N == 0:
        return ()
    K = curve.residue_field(F, P)
    emb = (lambda c: c) if P.degree == 1 else K.embed
    line = fiber_lines(b, P)[0 if side == "E" else 1]
    deg = P.degree
    if deg == 1:
        pf = point_form(F, P)
    else:
        # one place of kappa(P) only: p_P itself would also pin the conjugates
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
    gens = [[emb(c) for c in r] for r in _z_source_rows(b, dp, A)]
    for i in range(level + 1):
        j = level - i
        if j > dp or A - i < 0:
            continue
        pi = powers[i]
        for mc in monomial_basis(dp - j):
            for tau in range(A - i + 1):
                row = [K.zero] * N
                for ml, cl in lpow[j].items():
                    M = (mc[0] + ml[0], mc[1] + ml[1], mc[2] + ml[2])
                    base = midx[M] * (A + 1)
                    for k, cf in enumerate(pi.coeffs):
                        if cf != K.zero:
                            row[base + tau + k] = K.add(row[base + tau + k],
                                                        K.mul(cl, cf))
                gens.append(row)
    ann = _nullspace(K, gens, N)
    rows = []
    for y in ann:
        coords = [_kappa_coords(K, F, c) for c in y]
        for sig in range(deg):
            rows.append([coords[i][sig] for i in range(N)])
    ech, _ = _rref(F, rows)
    return tuple(tuple(r) for r in ech)


@lru_cache(maxsize=None)
def _full_ann_rows(b, dp, A, P, level):
    """Rows whose joint kernel is p_P^level multiples plus conic multiples."""
    F = b.field
    monos = monomial_basis(dp)
    midx = {mm: i for i, mm in enumerate(monos)}
    N = len(monos) * (A + 1) if A >= 0 else 0
    if N == 0:
        return ()
    pf = point_form(F, P)
    power = BinaryForm(0, (F.one,))
    for _ in range(level):
        power = bf_mul(F, power, pf)
    gens = [list(r) for r in _z_source_rows(b, dp, A)]
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
    ann = _nullspace(F, gens, N)
    ech, _ = _rref(F, ann)
    return tuple(tuple(r) for r in ech)


# --- sections ---


@dataclass(frozen=True)
class Section:
    cls: picard.NumClass
    ambient_coeffs: dict


@dataclass(frozen=True)
class SectionSpace:
    cls: picard.NumClass
    basis: tuple
    dim: int


def _coeff_dict(model, flat):
    if model.kind == "param":
        width = model.beta + 1
        out = {}
        for i in range(model.delta + 1):
            out[(model.delta - i, i)] = BinaryForm(model.beta,
                                                   tuple(flat[i * width:(i + 1) * width]))
        return out
    width = model.A + 1
    return {mm: BinaryForm(model.A, tuple(flat[i * width:(i + 1) * width]))
            for i, mm in enumerate(model.monos)}


def _flat_of_section(b, model, s):
    F = b.field
    if model.kind == "param":
        width = model.beta + 1
        flat = [F.zero] * model.dim
        for (i, j), form in s.ambient_coeffs.items():
            for k, c in enumerate(form.coeffs):
                flat[j * width + k] = c
        return flat
    width = model.A + 1
    midx = {mm: i for i, mm in enumerate(model.monos)}
    flat = [F.zero] * model.N
    for mm, form in s.ambient_coeffs.items():
        base = midx[mm] * width
        for k, c in enumerate(form.coeffs):
            flat[base + k] = c
    return flat


def section_space(b, D):
    """Basis of the sections of O(D) as canonical ambient representatives."""
    Dn = picard.normalize(b, D)
    if not isinstance(Dn.dprime, Fraction) and Dn.dprime < 0:
        raise EmptySpace(f"no sections for fiber half-degree {Dn.dprime} < 0")
    model = _model(b, Dn)
    if model.kind == "param":
        flats = []
        for i in range(model.dim):
            v = [b.field.zero] * model.dim
            v[i] = b.field.one
            flats.append(v)
    else:
        flats = model.basis
    sections = tuple(Section(Dn, _coeff_dict(model, v)) for v in flats)
    return SectionSpace(Dn, sections, model.dim)


# --- component multiplicities ---


def _binary_val(F, form, P):
    """Order of p_P dividing a nonzero binary form."""
    if P.is_infinity:
        aff = gf.poly_trim(F, form.coeffs)
        return form.degree - gf.deg(aff)
    g = gf.poly_trim(F, form.coeffs)
    ppoly = tuple(P.poly)
    v = 0
    while True:
        quo, rem = gf.poly_divmod(F, g, ppoly)
        if rem:
            return v
        g, v = quo, v + 1


def component_multiplicity(b, s, P, side):
    """Largest power of the named component ideal containing the section."""
    model = _model(b, s.cls)
    F = b.field
    flat = _flat_of_section(b, model, s)
    if all(c == F.zero for c in flat):
        raise ZeroSection("the zero section has no divisor")
    if model.kind == "param":
        if side != "full":
            raise NotASplitFiber("a trivial bundle has no split fibers")
        width = model.beta + 1
        vals = []
        for i in range(model.delta + 1):
            form = BinaryForm(model.beta, tuple(flat[i * width:(i + 1) * width]))
            if any(c != F.zero for c in form.coeffs):
                vals.append(_binary_val(F, form, P))
        return min(vals)
    guard = model.dp + model.A + 2
    k = 0
    while k <= guard:
        if side == "full":
            rows = _full_ann_rows(b, model.dp, model.A, P, k + 1)
        else:
            rows = _line_ann_rows(b, model.dp, model.A, P, side, k + 1)
        if any(_dot(F, r, flat) != F.zero for r in rows):
            return k
        k += 1
    raise AssertionError("valuation loop failed to terminate")


# --- component sets and sieve proportions ---


@dataclass(frozen=True)
class ComponentSet:
    elements: tuple
    height: int


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


def _forced_level(D, P, line_side):
    """Baseline valuation the space already forces on a line over P."""
    for Q, side, c in D.parts:
        if Q == P and _other_side(side) == line_side:
            return c
    return 0


def _containment_rows(b, D, model, P, side):
    """Flat rows expressing that the member divisor contains the component."""
    if side == "full":
        sf = b.singular_fiber_at(P)
        if sf is not None and sf.fiber_class is FiberClass.SPLIT_PAIR:
            rows = []
            for ls in ("E", "Ep"):
                rows.extend(_line_ann_rows(b, model.dp, model.A, P, ls,
                                           _forced_level(D, P, ls) + 1))
            return rows
        return list(_full_ann_rows(b, model.dp, model.A, P, 1))
    return list(_line_ann_rows(b, model.dp, model.A, P, side,
                               _forced_level(D, P, side) + 1))


def _rows_on_coords(F, rows, basis):
    out = [[_dot(F, row, base) for base in basis] for row in rows]
    ech, _ = _rref(F, out)
    return [tuple(r) for r in ech]


def _param_full_rows(b, model, P):
    """Coefficient-divisibility rows for a full fiber on the ruled model."""
    F = b.field
    width = model.beta + 1
    rows = []
    if P.is_infinity:
        for i in range(model.delta + 1):
            row = [F.zero] * model.dim
            row[i * width + model.beta] = F.one
            rows.append(row)
    else:
        K = curve.residue_field(F, P)
        red = [_kappa_coords(K, F, curve.residue_of_poly(F, P, ((F.zero,) * t) + (F.one,)))
               for t in range(width)]
        for i in range(model.delta + 1):
            for sig in range(P.degree):
                row = [F.zero] * model.dim
                for t in range(width):
                    row[i * width + t] = red[t][sig]
                rows.append(row)
    ech, _ = _rref(F, rows)
    return [tuple(r) for r in ech]


def proportion_exact(b, D, S):
    """Share of sections whose member divisor contains every component of S."""
    Dn = picard.normalize(b, D)
    F = b.field
    model = _model(b, Dn)
    rows = []
    if model.kind == "param":
        for P, side in S.elements:
            if side != "full":
                raise NotASplitFiber("a trivial bundle has no split fibers")
            rows.extend(_param_full_rows(b, model, P))
        ech, _ = _rref(F, rows)
        return Fraction(1, F.order ** len(ech))
    flat_rows = []
    for P, side in S.elements:
        flat_rows.extend(_containment_rows(b, Dn, model, P, side))
    coord = _rows_on_coords(F, flat_rows, model.basis)
    return Fraction(1, F.order ** len(coord))


def proportion_product(b, D, S):
    """Independence heuristic for the same event, one exponent per component."""
    Dn = picard.normalize(b, D)
    d, _ = picard.type_of(b, Dn)
    expo = 0
    for P, side in S.elements:
        if side == "full":
            singular = b.singular_fiber_at(P) is not None
            expo += P.degree * ((d + 2) if singular else (d + 1))
        else:
            dP = picard.intersect(b, Dn, picard.component_class(P, side)) // P.degree
            expo += P.degree * (dP + 1)
    return Fraction(1, b.field.order ** expo)


# --- member enumeration ---


def _member_start(idx, n, q):
    """Coordinates of the member with the given scan index."""
    j = 0
    while True:
        block = q ** (n - 1 - j)
        if idx < block:
            break
        idx -= block
        j += 1
    coords = [0] * n
    coords[j] = 1
    for pos in range(n - 1, j, -1):
        idx, r = divmod(idx, q)
        coords[pos] = r
    return j, coords


def _digit_blocks(F, pool):
    """Pool blocks as sparse F_p rows over the digits of the basis coordinates.

    F_q is an F_p-vector space on 1, alpha, ..., alpha^(k-1), so a member
    coordinate x_t is k digits and position t*k + s holds the alpha^s digit;
    an F_q row r vanishes on a member exactly when its k digit rows
    row_sig[(t, s)] = digit sig of r[t] * alpha^s all vanish.
    """
    k = F.degree
    alpha = [F.from_index(F.char ** s) for s in range(k)]
    blocks = []
    for block in pool:
        rows = []
        for r in block:
            digits = [[F.to_digits(F.mul(c, a)) for a in alpha] for c in r]
            for sig in range(k):
                rows.append(tuple((t * k + s, ds[s][sig])
                                  for t, ds in enumerate(digits)
                                  for s in range(k) if ds[s][sig]))
        blocks.append(rows)
    return blocks


def _member_flat(F, basis, digits):
    """Flat coefficients of the member with the given coordinate digits."""
    k, p = F.degree, F.char
    flat = [F.zero] * len(basis[0])
    for t, v in enumerate(basis):
        x = F.from_index(sum(digits[t * k + s] * p ** s for s in range(k)))
        if x != F.zero:
            flat = [F.add(y, F.mul(x, c)) for y, c in zip(flat, v)]
    return tuple(flat)


def _literal_scan(b, D, model, collect=False):
    """Count (and with collect, list) the fiber-free members of |D| one by one.

    A member is fiber-free when it clears every block of the component pool
    that the subset sum runs over.  Members are scanned once per scalar class,
    leading coordinate 1, as base-p digit vectors.
    """
    F = b.field
    p, k, n = F.char, F.degree, model.dim
    if n == 0:
        return (0, []) if collect else 0
    _, e = picard.type_of(b, D)
    blocks = _digit_blocks(F, _component_pool(b, D, model, e))
    if any(not blk for blk in blocks):
        return (0, []) if collect else 0
    total = (F.order ** n - 1) // (F.order - 1)
    width = n * k
    digits = [0] * width
    digits[0] = 1
    j = 0
    count = 0
    members = []
    idx = 0
    while True:
        ok = True
        for blk in blocks:
            hit = True
            for row in blk:
                s = 0
                for i, c in row:
                    s += c * digits[i]
                if s % p:
                    hit = False
                    break
            if hit:
                ok = False
                break
        if ok:
            count += 1
            if collect:
                members.append(_member_flat(F, model.basis, digits))
        idx += 1
        if idx >= total:
            break
        pos = width - 1
        while True:
            digits[pos] += 1
            if digits[pos] < p:
                break
            digits[pos] = 0
            pos -= 1
            if pos < (j + 1) * k:
                digits[j * k] = 0
                j += 1
                digits[j * k] = 1
                break
    return (count, members) if collect else count


# --- inclusion-exclusion over component subsets ---


def _component_pool(b, D, model, e):
    """Containment row blocks for every component a member could contain."""
    F = b.field
    pool = []
    for P in sorted(b.split_points, key=lambda P: curve.point_sort_key(F, P)):
        for ls in ("E", "Ep"):
            rows = _line_ann_rows(b, model.dp, model.A, P, ls,
                                  _forced_level(D, P, ls) + 1)
            pool.append(_rows_on_coords(F, rows, model.basis))
    for sf in b.singular:
        if sf.fiber_class is not FiberClass.SPLIT_PAIR:
            rows = _full_ann_rows(b, model.dp, model.A, sf.point, 1)
            pool.append(_rows_on_coords(F, rows, model.basis))
    catalog = {sf.point for sf in b.singular}
    for P in curve.closed_points_up_to(F, max(e // 2, 0)):
        if P in catalog:
            continue
        rows = _full_ann_rows(b, model.dp, model.A, P, 1)
        pool.append(_rows_on_coords(F, rows, model.basis))
    return pool


def _tri_count(b, D, model, e):
    """Fiber-free member count by signed sums over component subsets."""
    F = b.field
    q = F.order
    n = model.dim
    pool = _component_pool(b, D, model, e)
    total = 0

    def rec(start, ech, piv, sign):
        nonlocal total
        total += sign * (q ** (n - len(ech)) - 1)
        for jj in range(start, len(pool)):
            ech2 = [list(r) for r in ech]
            piv2 = list(piv)
            grew = False
            for row in pool[jj]:
                if _insert_row(F, ech2, piv2, row):
                    grew = True
            if len(ech2) == n and grew:
                continue
            rec(jj + 1, ech2, piv2, -sign)

    rec(0, [], [], 1)
    if total % (q - 1):
        raise AssertionError("subset sum is not divisible by the scalar count")
    return total // (q - 1)


# --- ruled-model engines for l = 0 ---


def _ruled_fold(F, state, digits, width):
    g, top = state
    aff = gf.poly_trim(F, digits)
    if not aff:
        return state
    g2 = gf.poly_gcd(F, g, aff) if g else gf.poly_monic(F, aff)
    return g2, top or len(aff) == width


def _ruled_trivial(state):
    g, top = state
    return top and gf.deg(g) == 0


def _ruled_direct(F, delta, beta):
    """Fiber-free members of the bidegree (delta, beta) system, by direct scan."""
    width = beta + 1
    q = F.order
    forms = list(itertools.product(F.elements(), repeat=width))
    groups = {}
    for prefix in itertools.product(forms, repeat=delta):
        state = ((), False)
        for f in prefix:
            state = _ruled_fold(F, state, f, width)
        groups[state] = groups.get(state, 0) + 1
    last = {}
    count = 0
    for state, cnt in groups.items():
        if state not in last:
            last[state] = sum(1 for f in forms
                              if _ruled_trivial(_ruled_fold(F, state, f, width)))
        count += cnt * last[state]
    if count % (q - 1):
        raise AssertionError("scan total is not divisible by the scalar count")
    return count // (q - 1)


def _ruled_sieve(q, delta, beta):
    """Same count through the divisor sieve of the projective line."""
    r = delta + 1
    coef = (1, -(q + 1), q)
    total = sum(c * (q ** (r * (beta - k + 1)) - 1)
                for k, c in enumerate(coef) if k <= beta)
    if total % (q - 1):
        raise AssertionError("sieve total is not divisible by the scalar count")
    return total // (q - 1)


def _ruled_members(F, delta, beta):
    """Flat tuples of the fiber-free members on the ruled model."""
    width = beta + 1
    n = (delta + 1) * width
    q = F.order
    out = []
    total = (q ** n - 1) // (q - 1)
    elems = list(F.elements())
    for idx in range(total):
        _, coords = _member_start(idx, n, q)
        flat = [elems[c] for c in coords]
        state = ((), False)
        for i in range(delta + 1):
            state = _ruled_fold(F, state, flat[i * width:(i + 1) * width], width)
        if _ruled_trivial(state):
            out.append(tuple(flat))
    return out


# --- fiber-free counting ---


def _check_budget(q, dim, budget):
    steps = q ** dim
    if steps > budget:
        raise EnumerationBudgetExceeded(
            f"{q}^{dim} = {steps} scan steps exceed the budget {budget}")


def fiberfree_count(b, D, budget=None):
    """Members of |D| whose divisor contains no fiber component."""
    budget = DEFAULT_BUDGET if budget is None else budget
    F = b.field
    Dn = picard.normalize(b, D)
    d, e = picard.type_of(b, Dn)
    if b.l == 0:
        if e % 2 or d < 0 or e < 0:
            return 0
        delta, beta = d, e // 2
        _check_budget(F.order, (delta + 1) * (beta + 1), budget)
        direct = _ruled_direct(F, delta, beta)
        sieve = _ruled_sieve(F.order, delta, beta)
        if direct != sieve:
            raise AssertionError(f"ruled engines disagree: {direct} != {sieve}")
        return direct
    if isinstance(Dn.dprime, Fraction):
        raise OddDegreeUnsupported(
            "half-integer fiber degree needs the ruled model, available only for l = 0")
    if Dn.dprime < 0:
        return 0
    model = _model(b, Dn)
    _check_budget(F.order, model.dim, budget)
    scan = _literal_scan(b, Dn, model)
    tri = _tri_count(b, Dn, model, e)
    if scan != tri:
        raise AssertionError(f"scan and subset-sum engines disagree: {scan} != {tri}")
    return scan


# --- products of members and the prime sieve ---


def _product_flat(F, dp1, A1, flat1, dp2, A2, flat2):
    """Flat coefficients of the product form, bidegree (dp1+dp2, A1+A2)."""
    monos1, monos2 = monomial_basis(dp1), monomial_basis(dp2)
    monos = monomial_basis(dp1 + dp2)
    midx = {mm: i for i, mm in enumerate(monos)}
    W = A1 + A2 + 1
    out = [F.zero] * (len(monos) * W)
    for i1, m1 in enumerate(monos1):
        for t1 in range(A1 + 1):
            c1 = flat1[i1 * (A1 + 1) + t1]
            if c1 == F.zero:
                continue
            for i2, m2 in enumerate(monos2):
                base = midx[(m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])] * W
                for t2 in range(A2 + 1):
                    c2 = flat2[i2 * (A2 + 1) + t2]
                    if c2 == F.zero:
                        continue
                    k = base + t1 + t2
                    out[k] = F.add(out[k], F.mul(c1, c2))
    return out


def _division_table(b, dp, A_big, delta_map, A_out):
    """Echelon rewriting p^delta multiples modulo the conic as (dp, A_out) flats."""
    F = b.field
    monos = monomial_basis(dp)
    midx = {mm: i for i, mm in enumerate(monos)}
    N_big = len(monos) * (A_big + 1)
    n_units = len(monos) * (A_out + 1)
    power = BinaryForm(0, (F.one,))
    for P, mult in delta_map.items():
        pf = point_form(F, P)
        for _ in range(mult):
            power = bf_mul(F, power, pf)
    rows = []
    for mi, mm in enumerate(monos):
        for tau in range(A_out + 1):
            row = [F.zero] * (N_big + n_units)
            base = midx[mm] * (A_big + 1)
            for k, cf in enumerate(power.coeffs):
                if cf != F.zero:
                    row[base + tau + k] = cf
            row[N_big + mi * (A_out + 1) + tau] = F.one
            rows.append(row)
    for zr in _z_source_rows(b, dp, A_big):
        rows.append(list(zr) + [F.zero] * n_units)
    ech, piv = _rref(F, rows, N_big)
    return ech, piv, N_big, n_units


def _divide_flat(F, table, flat_big):
    """Solve p^delta * h + conic * u = flat and return the flat of h."""
    ech, piv, N_big, n_units = table
    x = list(flat_big) + [F.zero] * n_units
    for row, pc in zip(ech, piv):
        c = x[pc]
        if c != F.zero:
            x = [F.sub(a, F.mul(c, r)) for a, r in zip(x, row)]
    if any(c != F.zero for c in x[:N_big]):
        raise AssertionError("product is not divisible by the forced fiber power")
    return [F.neg(c) for c in x[N_big:]]


def _member_key(F, flat):
    digits = []
    for c in flat:
        digits.extend(F.to_digits(c))
    return bytes(digits)


def _normalize_scalar(F, flat):
    lead = next((c for c in flat if c != F.zero), None)
    if lead is None:
        raise AssertionError("zero member escaped enumeration")
    inv = F.inv(lead)
    return [F.mul(inv, c) for c in flat]


def _ruled_product_keys(F, mem1, d1, b1, mem2, d2, b2, same):
    """Marked keys of pairwise products of ruled-model members."""
    W1, W2 = b1 + 1, b2 + 1
    S = b1 + b2 + 1
    marked = set()
    prime = isinstance(F, gf.PrimeField)
    if prime:
        p = F.p
        terms = (min(d1, d2) + 1) * (min(b1, b2) + 1)
        wbits = (terms * (p - 1) * (p - 1)).bit_length() + 1
        ndig = (d1 + d2 + 1) * S

        def enc(flat, dd, ww):
            x = 0
            for i in range(dd + 1):
                for t in range(ww):
                    c = flat[i * ww + t]
                    if c:
                        x |= c << ((i * S + t) * wbits)
            return x

        enc1 = [enc(m, d1, W1) for m in mem1]
        enc2 = enc1 if same else [enc(m, d2, W2) for m in mem2]
        mask = (1 << wbits) - 1
        for i1, x1 in enumerate(enc1):
            start = i1 if same else 0
            for x2 in (enc2[start:] if same else enc2):
                z = x1 * x2
                flat = [0] * ndig
                pos = 0
                while z:
                    dcur = z & mask
                    if dcur:
                        flat[pos] = dcur % p
                    z >>= wbits
                    pos += 1
                marked.add(_member_key(F, _normalize_scalar(F, flat)))
        return marked
    for i1, m1 in enumerate(mem1):
        seq2 = mem2[i1:] if same else mem2
        for m2 in seq2:
            out = [F.zero] * ((d1 + d2 + 1) * S)
            for i in range(d1 + 1):
                for t1 in range(W1):
                    c1 = m1[i * W1 + t1]
                    if c1 == F.zero:
                        continue
                    for jj in range(d2 + 1):
                        for t2 in range(W2):
                            c2 = m2[jj * W2 + t2]
                            if c2 == F.zero:
                                continue
                            k = (i + jj) * S + t1 + t2
                            out[k] = F.add(out[k], F.mul(c1, c2))
            marked.add(_member_key(F, _normalize_scalar(F, out)))
    return marked


def prime_count(b, d, e, budget=None):
    """Irreducible fiber-free multisections of type (d, e), by marked-set subtraction."""
    budget = DEFAULT_BUDGET if budget is None else budget
    F = b.field
    q = F.order
    if d % 2 and b.l > 0:
        raise OddDegreeUnsupported(
            "odd fiber degree requires the ruled model, available only for l = 0")
    if b.l > 0 and b.generic_fiber_trivial:
        raise OddDegreeUnsupported(
            "every singular fiber splits, so odd-degree multisections exist but the "
            "integer class lattice cannot represent them; the marked set would be "
            "incomplete for any d")
    used = 0
    total = 0
    member_cache = {}

    def ruled_members_of(D1):
        dd, ee = picard.type_of(b, D1)
        key = (dd, ee)
        if key not in member_cache:
            _check_budget(q, (dd + 1) * (ee // 2 + 1), budget - used)
            member_cache[key] = _ruled_members(F, dd, ee // 2)
        return member_cache[key], dd, ee // 2

    def ambient_members_of(D1):
        if D1 not in member_cache:
            model1 = _model(b, D1)
            _check_budget(q, model1.dim, budget - used)
            cnt, mem = _literal_scan(b, D1, model1, collect=True)
            tri = _tri_count(b, D1, model1, picard.type_of(b, D1)[1])
            if cnt != tri:
                raise AssertionError(f"factor engines disagree: {cnt} != {tri}")
            member_cache[D1] = (mem, model1)
        return member_cache[D1]

    for D in picard.classes_of_type(b, d, e):
        mf = fiberfree_count(b, D, budget=budget)
        marked = set()
        if b.l == 0:
            for D1, D2 in picard.decompositions(b, D):
                if D1.dprime == 0 or D2.dprime == 0:
                    continue
                mem1, d1, b1 = ruled_members_of(D1)
                mem2, d2, b2 = ruled_members_of(D2)
                if not mem1 or not mem2:
                    continue
                used += len(mem1) * len(mem2)
                if used > budget:
                    raise EnumerationBudgetExceeded(
                        f"{used} product steps exceed the budget {budget}")
                marked |= _ruled_product_keys(F, mem1, d1, b1, mem2, d2, b2,
                                              D1 == D2)
        else:
            model = _model(b, D)
            for D1, D2 in picard.decompositions(b, D):
                if D1.dprime == 0 or D2.dprime == 0:
                    continue
                mem1, model1 = ambient_members_of(D1)
                mem2, model2 = ambient_members_of(D2)
                if not mem1 or not mem2:
                    continue
                used += len(mem1) * len(mem2)
                if used > budget:
                    raise EnumerationBudgetExceeded(
                        f"{used} product steps exceed the budget {budget}")
                _, _, c1 = D1.canonical()
                _, _, c2 = D2.canonical()
                m1map, m2map = dict(c1), dict(c2)
                delta_map = {}
                for P in set(m1map) | set(m2map):
                    v1, v2 = m1map.get(P, 0), m2map.get(P, 0)
                    if v1 * v2 < 0:
                        delta_map[P] = min(abs(v1), abs(v2))
                A_big = model1.A + model2.A
                table = None
                if delta_map:
                    table = _division_table(b, model.dp, A_big, delta_map, model.A)
                same = D1 == D2
                for i1, f1 in enumerate(mem1):
                    seq2 = mem2[i1:] if same else mem2
                    for f2 in seq2:
                        prod = _product_flat(F, model1.dp, model1.A, f1,
                                             model2.dp, model2.A, f2)
                        if table is not None:
                            prod = _divide_flat(F, table, prod)
                        prod = _reduce_vec(F, model.zech, model.zpiv, prod)
                        marked.add(_member_key(F, _normalize_scalar(F, prod)))
        if len(marked) > mf:
            raise AssertionError("marked composite members exceed the fiber-free count")
        total += mf - len(marked)
    return total


# --- empirical dimension threshold ---


def scan_dimension_threshold(b, cv, d, e_lo=None, e_hi=None):
    """Least height above which every class of fiber degree d has dim equal to chi.

    Scans heights downward through the window, finds the largest height with a
    failing class, and returns the next height at which classes exist; returns
    the window floor when the dimension law holds everywhere in the window.
    """
    if e_lo is None:
        e_lo = -(2 * d + 4)
    if e_hi is None:
        e_hi = (d * b.l) // 2 + 2 * d + 8
    fail_at = None
    for e in range(e_hi, e_lo - 1, -1):
        for D in picard.classes_of_type(b, d, e):
            dim = section_space(b, D).dim
            if dim != picard.euler_char(b, cv, D):
                fail_at = e
                break
        if fail_at is not None:
            break
    if fail_at is None:
        return e_lo
    e = fail_at + 1
    while not picard.classes_of_type(b, d, e):
        e += 1
    return e
