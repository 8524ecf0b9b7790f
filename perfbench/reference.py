"""Fixed reference work that gauges how fast the host runs Python right now.

    python3 perfbench/reference.py KIND

Prints the seconds the work of KIND took.  The work never changes and imports
nothing from the package, so its time moves only with the host: other tenants,
cache and memory contention, frequency.  run.py runs it between CLI runs and
scales their times by it.  Each kind resembles the work of some workloads:

  interp  method calls on tuple-based field elements, polynomial remainders,
          a large set of integer keys and a few Fraction products, all run
          by the interpreter loop
  bigint  Euler-product-like Fraction powers, where nearly all the time goes
          to multiplying and taking gcds of integers of up to 250,000 digits
"""

import sys
import time
from fractions import Fraction

P = 5


class Base:
    def add(self, a, b):
        return (a + b) % P

    def sub(self, a, b):
        return (a - b) % P

    def mul(self, a, b):
        return (a * b) % P


class Ext:
    """F_25 as F_5[x]/(x^2 + 2), elements are pairs."""

    def __init__(self):
        self.base = Base()
        self.modulus = (2, 0)

    def mul(self, a, b):
        F = self.base
        prod = [0, 0, 0]
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                prod[i + j] = F.add(prod[i + j], F.mul(x, y))
        c = prod[2]
        if c:
            for j in range(2):
                prod[j] = F.sub(prod[j], F.mul(c, self.modulus[j]))
        return tuple(prod[:2])


def poly_mod(F, f, g):
    f = list(f)
    inv = pow(g[-1], P - 2, P)
    while len(f) >= len(g) and f:
        c = F.mul(f[-1], inv)
        shift = len(f) - len(g)
        for i, y in enumerate(g):
            f[shift + i] = F.sub(f[shift + i], F.mul(c, y))
        while f and f[-1] == 0:
            f.pop()
    return f


def interp_work():
    E = Ext()
    elems = [(a, b) for a in range(P) for b in range(P)]
    acc = 0
    for _ in range(80):
        for a in elems:
            for b in elems:
                acc += E.mul(a, b)[0]
    F = E.base
    cubics = [[c0, c1, c2, 1] for c0 in range(P) for c1 in range(P) for c2 in range(P)]
    quadratics = [[c0, c1, 1] for c0 in range(P) for c1 in range(P)]
    for _ in range(2):
        for f in cubics:
            for g in quadratics:
                h, k = f, g
                while k:
                    h, k = k, poly_mod(F, h, k)
                acc += len(h)
    seen = set()
    x = 1
    for _ in range(300000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFF
        seen.add(x)
    acc += len(seen)
    z = Fraction(1)
    for k in range(1, 1500):
        z *= Fraction(k * k + 1, k * k + 3)
    acc += z.denominator % 7
    return acc


def bigint_work():
    out = Fraction(1)
    for m in range(1, 12):
        out *= (1 - Fraction(1, 3 ** (2 * m))) ** (-(3 ** m // m))
    return out.denominator % 7


KINDS = {"interp": interp_work, "bigint": bigint_work}


def main():
    work = KINDS[sys.argv[1]]
    t0 = time.perf_counter()
    work()
    print(f"{time.perf_counter() - t0:.9f}")


if __name__ == "__main__":
    main()
