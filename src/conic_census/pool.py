"""The component pool and the subset sum over it: fiber-free counts on l >= 1
with d >= 4, where the model dims and the containment rows disagree on
some classes (ROADMAP item 2), so `linsys._fiberfree` counts here instead of
sieving over dims, and loads this module only then.

A component's containment rows ask its member divisors to contain it; the
pool holds them for every component a member of |D| could contain, as
functionals on the dim coordinates of H^0(D), and the subset sum reads only
their ranks.  Proportions read the same rows.  Once item 2 lands the sieve
counts these classes too, and this module moves to the test oracles (item 5).
"""

from . import conditions, curve, picard
from .bundle import FiberClass
from .linsys import _layout


def _containment_rows(b, D, P, side):
    """Flat rows expressing that the member divisor contains the component; a
    full fiber over a split point is both its lines, and a line asks one order
    above the one the class's `_layout` already forces there."""
    d, A, lines = _layout(b, D)
    if side == "full" and P not in b.split_points:
        return conditions._ann_rows(b, d, A, P, "full", 1)
    forced = {(Q, ls): c for Q, ls, c in lines}
    return [row for ls in (("E", "Ep") if side == "full" else (side,))
            for row in conditions._ann_rows(b, d, A, P, ls, forced.get((P, ls), 0) + 1)]


def _on_coords(b, D, blocks):
    """Blocks of `_containment_rows` as functionals on the dim coordinates of
    H^0(D), each in rref.  A row, fixed by its entries on `_cols`, is reduced
    by `_conditions` and read off the condition pivots, so its rank on H^0(D)
    is rank(conditions and rows) - rank(conditions)."""
    F = b.field
    cols, ech, piv = conditions._conditions(b, D)
    keep = [j for j in range(len(cols)) if j not in piv]
    blocks = [[[row[j] for j in keep]
               for row in (conditions._reduce_vec(F, ech, piv, [r[c] for c in cols])
                           for r in blk)]
              for blk in blocks]
    return [[tuple(r) for r in conditions._rref(F, blk)[0]] for blk in blocks]


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
    subset and all its supersets add 0, so a block that spans on its own is
    dropped before the walk; only a block of n rows or more can."""
    if n == 0 or not all(pool):
        return 0  # every member contains the component of an empty block
    pool = [blk for blk in pool if len(blk) < n or len(conditions._rref(F, blk)[1]) < n]
    q = F.order
    total = 0

    def rec(start, ech, piv, sign):
        nonlocal total
        total += sign * (q ** (n - len(ech)) - 1)
        for jj in range(start, len(pool)):
            ech2, piv2 = list(ech), list(piv)
            for row in pool[jj]:
                conditions._append_row(F, ech2, piv2, row)
                if len(ech2) == n:
                    break
            else:
                rec(jj + 1, ech2, piv2, -sign)

    rec(0, [], [], 1)
    if total % (q - 1):
        raise AssertionError("subset sum is not divisible by the scalar count")
    return total // (q - 1)
