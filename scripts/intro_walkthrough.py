#!/usr/bin/env python3
"""Walk through the one-parameter running example from every angle.

Computes the generic standard basis of <a*x2 - x1*x2 + x1> off a = 0 and
on a = 0, prints truncated reduced bases at several cutoffs, and checks a
few specializations against from-scratch computations.
"""

from fractions import Fraction

from parastd.orders import matrix_order
from parastd.polyring import AScalar, render_poly
from parastd.genstd import (
    PrimeContext,
    generic_basis,
    generic_reduced_basis,
    verify_specialization,
)
from parastd.problems import poly_from_string

PARAMS = ("a",)
VARS = ("x1", "x2")
ORDER = matrix_order([[-1, -1], [-1, 0]])  # local, x2 leads x1


def show(f):
    return render_poly(f, ORDER, VARS, PARAMS)


def main():
    f = poly_from_string("a*x2 - x1*x2 + x1", PARAMS, VARS)
    print(f"ideal generator: {show(f)}")

    for label, qgens in (("Q = <0>", []), ("Q = <a>", [AScalar.var(0, 1)])):
        ctx = PrimeContext.from_generators(qgens, 1)
        basis = generic_basis([f], ORDER, ctx)
        print(f"\n--- generic standard basis on V({label})")
        for g in basis.gens:
            print(f"  {show(g)}")
        print(f"  staircase: {list(basis.staircase.generators)}")
        print(f"  excluded locus h: {render_poly_h(basis)}")
        for d in (1, 2, 3, 5):
            red = generic_reduced_basis(basis, d)
            print(f"  reduced (degree <= {d}): "
                  + "; ".join(show(g) for g in red.gens))

    ctx0 = PrimeContext.trivial(1)
    basis = generic_basis([f], ORDER, ctx0)
    points = [(Fraction(1),), (Fraction(-2),), (Fraction(5, 3),)]
    print("\nspecialization checks off V(h):")
    for check in verify_specialization(basis, points):
        print(f"  a = {check.point[0]}: staircase "
              f"{list(check.got.generators)} "
              f"{'ok' if check.ok else 'MISMATCH'}")


def render_poly_h(basis):
    from parastd.polyring import render_ascalar
    return render_ascalar(basis.h_poly(), PARAMS)


if __name__ == "__main__":
    main()
