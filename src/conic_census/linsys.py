"""Class layouts, dims and exact counts of fiber-free and irreducible members.

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

The later stages live in modules of their own: the condition rows of a class
with lines (`conditions`) and the subset sum over the component pool (`pool`),
each loaded by the first class that reaches it, and the section API,
multiplicities and proportions, which no count reads (`sections`).  Dims read
ranks from one echelon of a class's condition rows, and a class with no lines,
every class on l = 0, has all of its columns.  Dims have one memo, keyed on
canonical coordinates (`_dim_at`) and read with no class built; above a
per-(dp, cs) threshold (`_a0`) it is chi, and the threshold scan reads that
table alone.

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

from . import picard
from .bundle import fiber_lines
from .errors import EmptySpace, EnumerationBudgetExceeded, OddDegreeUnsupported

DEFAULT_BUDGET = 10 ** 8


def __getattr__(name):
    # perfbench traces `linsys.section_space` by name, so that one name still
    # resolves here; the section API lives in `sections`, which counting runs
    # never load.  Every other missing name is an AttributeError as usual
    if name == "section_space":
        from . import sections
        return sections.section_space
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """`_cols` less the rank of the condition echelon, so on l = 0 every column.
    Only a class with lines has condition rows, so only it loads `conditions`."""
    A, lines = _lines(a, [(P, c) for P, c in zip(b.split_points, cs) if c])
    if not lines:
        return len(_cols(b, dp, A))
    from . import conditions
    return len(_cols(b, dp, A)) - len(conditions._echelon(b, dp, A, lines)[0])


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
        from . import pool
        D = picard.from_coords(b, (dp, a, cs))
        return pool._tri_count(b.field, pool._component_pool(b, D), _dim_at(b, dp, a, cs))
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
