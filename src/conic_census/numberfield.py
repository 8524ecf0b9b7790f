"""The number-field analogue of the leading coefficient, in mpmath floats.

Its inputs are the invariants of a number field and a conic, taken as given
numbers; prime norms stand where the function field has q^deg P.  This is the
one non-exact arithmetic of the package, and no CLI task reaches it, so only
a caller that imports this module loads `mpmath`.
"""

import itertools

import mpmath

from .value import Value


class NumberFieldInputs(Value):
    """Invariants of a number field and a conic, taken as given numbers."""

    __slots__ = _fields = ("r", "s", "disc_norm", "class_number", "regulator", "roots_of_unity",
                           "zeta_at", "vr", "vc", "hx", "primes1", "primes2")

    def __init__(self, r, s, disc_norm, class_number, regulator, roots_of_unity,
                 zeta_at, vr, vc, hx, primes1, primes2):
        self._init(r, s, disc_norm, class_number, regulator, roots_of_unity,
                   zeta_at, vr, vc, hx, primes1, primes2)


def number_field_k(inputs, d):
    """Twist-sum correction with prime norms in place of q^deg."""
    dprime = d // 2
    one = mpmath.mpf(1)
    base = one
    for nw in inputs.primes1:
        base *= (1 - mpmath.mpf(nw) ** -(d + 2)) / (1 - mpmath.mpf(nw) ** -(d + 1))
    total = mpmath.mpf(0)
    ranges = [range(-dprime, dprime + 1) for _ in inputs.primes2]
    for bbar in itertools.product(*ranges):
        term = base
        for nw, bp in zip(inputs.primes2, bbar):
            nw = mpmath.mpf(nw)
            term *= (1 - nw ** -(dprime + bp + 1)) * (1 - nw ** -(dprime - bp + 1))
            term /= 1 - nw ** -(d + 1)
            term /= mpmath.sqrt(nw) ** (bp * bp)
        total += term
    return total


def number_field_leading(inputs, d):
    """High-precision leading coefficient for the number-field analogue."""
    if d <= 0 or d % 2:
        raise ValueError("d must be even and positive")
    for name in ("disc_norm", "class_number", "regulator", "roots_of_unity",
                 "zeta_at", "vr", "vc", "hx"):
        if getattr(inputs, name) <= 0:
            raise ValueError(f"{name} must be positive")
    k = number_field_k(inputs, d)
    out = k / mpmath.mpf(inputs.hx) ** (d * d // 4 + d)
    out *= d * mpmath.mpf(inputs.vr) ** inputs.r * mpmath.mpf(inputs.vc) ** inputs.s
    out *= mpmath.mpf(d + 1) ** (inputs.r + inputs.s - 1)
    out *= (2 ** inputs.r * (2 * mpmath.pi) ** inputs.s
            / mpmath.sqrt(inputs.disc_norm)) ** (d + 1)
    out *= inputs.class_number * mpmath.mpf(inputs.regulator)
    out /= inputs.roots_of_unity * mpmath.mpf(inputs.zeta_at)
    return out
