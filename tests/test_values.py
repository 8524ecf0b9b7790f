"""Value semantics of the package's immutable value classes.

Each class is built positionally and by keyword; equal values compare equal
and hash alike, no value equals the tuple of its fields, assigning or
deleting a field raises AttributeError, and copies and pickles round-trip.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from conic_census import bundle, curve, gf, sections
from conic_census.bundle import BinaryForm, ConicBundle, FiberClass, SingularFiber
from conic_census.census import SqrtQRational
from conic_census.curve import ClosedPoint, CurveDescriptor
from conic_census.numberfield import NumberFieldInputs
from conic_census.picard import NumClass
from conic_census.sections import ComponentSet, Section, SectionSpace

F3 = gf.make_field(3)
P_T1 = ClosedPoint((1, 1), 1)
B_MIXED = bundle.validate_bundle(F3, 1, (0, 1), (1, 0), (1, 1))
D = NumClass(1, 0, ((P_T1, "E", 1),))
NF = dict(r=1, s=0, disc_norm=1, class_number=1, regulator=1.0, roots_of_unity=2,
          zeta_at=1.2, vr=2.5, vc=1.7, hx=1, primes1=(2,), primes2=())

# (class, field names, field values) for each value class
VALUES = [
    (BinaryForm, ("degree", "coeffs"), (1, (1, 2))),
    (SingularFiber, ("point", "fiber_class", "lines"),
     (P_T1, FiberClass.SPLIT_PAIR, ((1, 0, 2), (1, 0, 1)))),
    (ConicBundle, ("field", "l", "a", "b", "c", "singular"),
     (F3, 1, B_MIXED.a, B_MIXED.b, B_MIXED.c, B_MIXED.singular)),
    (ClosedPoint, ("poly", "degree"), (None, 1)),
    (CurveDescriptor, ("genus", "jacobian", "l_poly"), (1, 3, (1, -1, 3))),
    (NumClass, ("dprime", "a", "parts"), (2, 1, ((P_T1, "Ep", 1),))),
    (Section, ("cls", "ambient_coeffs"), (D, {(0, 0, 1): BinaryForm(0, (1,))})),
    (SectionSpace, ("cls", "basis", "dim"), (D, (), 0)),
    (ComponentSet, ("elements", "height"), (((P_T1, "E"),), 1)),
    (SqrtQRational, ("u", "v", "q"), (Fraction(1, 2), Fraction(3), 3)),
    (NumberFieldInputs, tuple(NF), tuple(NF.values())),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, names, values", VALUES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values):
    pos = cls(*values)
    kw = cls(**dict(zip(names, values)))
    assert tuple(getattr(pos, n) for n in names) == values
    assert pos == kw and not pos != kw
    assert pos != values
    if cls is Section:
        # a dict field makes a section unhashable, as it always was
        with pytest.raises(TypeError):
            hash(pos)
    else:
        assert hash(pos) == hash(kw)
    assert copy.copy(pos) == pos
    assert pickle.loads(pickle.dumps(pos)) == pos


@pytest.mark.parametrize("cls, names, values", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(cls, names, values):
    v = cls(*values)
    with pytest.raises(AttributeError):
        setattr(v, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(v, names[-1])
    with pytest.raises(AttributeError):
        v.not_a_field = 1
    assert getattr(v, names[0]) == values[0]


def test_unequal_fields_are_unequal():
    assert BinaryForm(1, (1, 2)) != BinaryForm(1, (2, 1))
    assert ClosedPoint((1, 1), 1) != ClosedPoint((2, 1), 1) != curve.INFINITY
    assert SingularFiber(P_T1, FiberClass.NONSPLIT_PAIR, None) != SingularFiber(
        curve.INFINITY, FiberClass.NONSPLIT_PAIR, None)
    other = bundle.validate_bundle(F3, 1, (0, 1), (1, 0), (1, 2))
    assert B_MIXED != other and B_MIXED == ConicBundle(F3, 1, B_MIXED.a, B_MIXED.b, B_MIXED.c,
                                                       B_MIXED.singular)
    assert ComponentSet(((P_T1, "E"),), 1) != ComponentSet(((P_T1, "Ep"),), 1)
    assert NumberFieldInputs(**NF) != NumberFieldInputs(**{**NF, "hx": 2})


def test_num_class_defaults_and_canonical_form():
    assert NumClass(1, 0) == NumClass(dprime=1, a=0, parts=()) == NumClass.make(1, 0)
    assert NumClass(1, 0).parts == ()
    # E' = deg(P) F - E moves the coefficient onto the E side
    E = NumClass(2, 2, ((P_T1, "Ep", 1),))
    assert E.canonical() is E.canonical() == (2, 3, ((P_T1, -1),))
    same = NumClass(2, 3, ((P_T1, "E", -1),))
    assert E == same and hash(E) == hash(same)


def test_reprs():
    assert repr(curve.INFINITY) == "ClosedPoint(poly=None, degree=1)"
    assert repr(P_T1) == "ClosedPoint(poly=(1, 1), degree=1)"
    assert repr(BinaryForm(2, (1, 0, 2))) == "BinaryForm(degree=2, coeffs=(1, 0, 2))"
    assert repr(SingularFiber(curve.INFINITY, FiberClass.SPLIT_PAIR, ((1, 0, 2), (1, 0, 1)))) == (
        "SingularFiber(point=ClosedPoint(poly=None, degree=1), "
        "fiber_class=<FiberClass.SPLIT_PAIR: 'SplitPair'>, lines=((1, 0, 2), (1, 0, 1)))")
    assert repr(SqrtQRational(1, 1, 4)) == "SqrtQRational(u=Fraction(3, 1), v=Fraction(0, 1), q=4)"
    assert repr(SqrtQRational(Fraction(1, 2), -1, 3)) == (
        "SqrtQRational(u=Fraction(1, 2), v=Fraction(-1, 1), q=3)")
    assert repr(sections.component_set(B_MIXED, [(P_T1, "Ep"), (curve.INFINITY, "full")])) == (
        "ComponentSet(elements=((ClosedPoint(poly=None, degree=1), 'full'), "
        "(ClosedPoint(poly=(1, 1), degree=1), 'Ep')), height=3)")


def test_checks_raise_their_messages():
    with pytest.raises(ValueError, match=r"^coefficient count must be degree \+ 1$"):
        BinaryForm(2, (1, 2))
    cases = [((-1, 1, ()), "genus must be >= 0 and the Jacobian order positive"),
             ((1, 0, (1, 0, 3)), "genus must be >= 0 and the Jacobian order positive"),
             ((1, 4, (1,)), r"L-polynomial needs constant term 1 and degree 2\*genus"),
             ((1, 4, (2, 0, 3)), r"L-polynomial needs constant term 1 and degree 2\*genus"),
             ((0, 2, (1,)), "genus 0 forces a trivial Jacobian and L-polynomial 1")]
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            CurveDescriptor(*args)
    with pytest.raises(ValueError, match="^q must be at least 2$"):
        SqrtQRational(1, 0, 1)
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        SqrtQRational(0.5, 0, 3)


def test_one_field_class_is_refused():
    from conic_census.value import Value
    with pytest.raises(TypeError, match="^One needs two fields or more$"):
        class One(Value):
            __slots__ = _fields = ("x",)
