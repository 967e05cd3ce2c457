#!/usr/bin/env python3
"""Milnor-number strata of two singularity families.

Partitions the parameter line by the local Hilbert-Samuel polynomial of
the Jacobian ideal and prints the Milnor number on each stratum.
"""

from parastd.orders import matrix_order, neg_grevlex
from parastd.polyring import render_ascalar
from parastd.hilbert import hilbert_partition
from parastd.problems import poly_from_string

FAMILIES = [
    ("x1^3 + x2^3 + a*x1*x2",
     ["3*x1^2 + a*x2", "3*x2^2 + a*x1"],
     matrix_order([[-1, -1], [-1, 0]])),
    ("x2^2 - x1^3 - a*x1^2",
     ["3*x1^2 + 2*a*x1", "2*x2"],
     neg_grevlex(2)),
]


def describe(cells):
    out = []
    for cell in cells:
        van = ", ".join(render_ascalar(v, ("a",)) for v in cell.vanish) or "-"
        non = ", ".join(render_ascalar(v, ("a",)) for v in cell.nonvanish) or "-"
        out.append(f"{{{van} = 0, {non} != 0}}")
    return " u ".join(out)


def main():
    for family, jacobian, order in FAMILIES:
        print(f"\nfamily f = {family}")
        polys = [poly_from_string(s, ("a",), ("x1", "x2")) for s in jacobian]
        for stratum in hilbert_partition(polys, order):
            print(f"  stratum {describe(stratum.cells)}: "
                  f"HSP = {stratum.data.polynomial_text()}, "
                  f"milnor = {stratum.data.milnor}")


if __name__ == "__main__":
    main()
