"""Condition rows of the class model on l >= 1: vanishing along fiber components.

Vanishing to order k along a fiber component, a line over a split point or a
whole fiber, has one builder on both layouts (`_ann_rows`): the rows that
annihilate the k-th power of the component's ideal plus the conic multiples.
It reduces each coefficient form mod pi, p_P^k over F for a fiber and the
place's linear form to the k-th over kappa(P) for a line, and eliminates in
|monos| deg pi columns whatever the coefficient degree.  Condition rows,
containment rows and multiplicities all read it.

A class's condition rows are one block per line of its `_layout`,
restricted to `_cols`, in one echelon (`_conditions`).  The echelon of
a class's lines is a copy of the memoized one of all its lines but the last,
which every class with that prefix shares, plus the last block.  A class with
no lines, every class on l = 0, has no condition row, so `linsys` loads this
module only for a class that has lines.  The layout (monomials, conic
multiples, columns and lines) stays in `linsys`.
"""

from functools import lru_cache
from itertools import compress

from . import curve
from .bundle import BinaryForm, bf_mul, fiber_lines, point_form
from .linsys import _cols, _layout, _monos, _z_source_rows, monomial_basis


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


# --- condition echelons ---


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
