"""Section spaces, component multiplicities and sieve proportions: the library
surface of the class model, which no CLI task runs.

`section_space` is the one place that builds a basis (`_basis`), the kernel of
a class's condition rows on the columns off the conic multiples.  Proportions
read the ranks of the containment rows of `pool` on H^0(D), and
multiplicities read `conditions._ann_rows` at rising order.  Counting runs
read dims and never load this module.
"""

from fractions import Fraction

from . import conditions, curve, picard, pool
from .bundle import BinaryForm, FiberClass
from .errors import NotASplitFiber, ZeroSection
from .linsys import _layout, _monos, _z_source_rows
from .value import Value


class Section(Value):
    __slots__ = _fields = ("cls", "ambient_coeffs")

    def __init__(self, cls, ambient_coeffs):
        self._init(cls, ambient_coeffs)


class SectionSpace(Value):
    __slots__ = _fields = ("cls", "basis", "dim")

    def __init__(self, cls, basis, dim):
        self._init(cls, basis, dim)


def _basis(b, D):
    """The sections of O(D) in rref on the flat layout of (d, A): the kernel of
    `_conditions`, zero at the conic multiples' pivots."""
    F = b.field
    d, A, _ = _layout(b, D)
    cols, ech, _ = conditions._conditions(b, D)
    at = {j: i for i, j in enumerate(cols)}
    N = len(_monos(b, d)) * (A + 1)  # negative, so no column, when A < 0
    kernel = [[v[at[j]] if j in at else F.zero for j in range(N)]
              for v in conditions._nullspace(F, ech, len(cols))]
    return conditions._rref(F, kernel)[0]


def section_space(b, D):
    """Basis of the sections of O(D) as canonical ambient representatives."""
    D = picard.normalize(b, D)
    d, A, _ = _layout(b, D)
    monos = _monos(b, d)
    sections = tuple(Section(D, {m: BinaryForm(A, tuple(v[i * (A + 1):(i + 1) * (A + 1)]))
                                 for i, m in enumerate(monos)})
                     for v in _basis(b, D))
    return SectionSpace(D, sections, len(sections))


# --- component multiplicities ---


def component_multiplicity(b, s, P, side):
    """Largest power of the named component ideal containing the section."""
    F = b.field
    d, A, _ = _layout(b, s.cls)
    monos = _monos(b, d)
    midx = {m: i for i, m in enumerate(monos)}
    flat = [F.zero] * (len(monos) * (A + 1))
    for m, form in s.ambient_coeffs.items():
        if m not in midx or form.degree != A:
            raise ValueError(f"a coefficient at {m} of degree {form.degree} is outside "
                             f"the layout of monomials {monos} in degree {A}")
        flat[midx[m] * (A + 1):(midx[m] + 1) * (A + 1)] = form.coeffs
    # a multiple of the conic is the zero section on X
    zrows = _z_source_rows(b, d, A)
    if all(c == F.zero for c in conditions._reduce_vec(F, *conditions._rref(F, zrows), flat)):
        raise ZeroSection("the zero section has no divisor")
    guard = d // 2 + A + 2
    k = 0
    while k <= guard:
        if any(conditions._dot(F, r, flat) != F.zero
               for r in conditions._ann_rows(b, d, A, P, side, k + 1)):
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


def proportion_exact(b, D, S):
    """Share of sections whose member divisor contains every component of S."""
    rows = [row for P, side in S.elements for row in pool._containment_rows(b, D, P, side)]
    return Fraction(1, b.field.order ** len(pool._on_coords(b, D, [rows])[0]))


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
