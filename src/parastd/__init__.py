"""Standard bases of parametric polynomial ideals under arbitrary monomial orders."""

from .orders import (
    MonomialOrder,
    Staircase,
    classify,
    combined_order,
    compare,
    grevlex,
    lex,
    matrix_order,
    neg_grevlex,
)
from .polyring import AScalar, ParamPoly, ParamScalar, render_poly
from .division import DivisionResult, divide, divide_series, divide_truncated, s_function
from .buchberger import BasisResult, buchberger, minimalize, reduce_basis
from .genstd import (
    GenericBasis,
    PrimeContext,
    divide_mod_q,
    generic_basis,
    generic_reduced_basis,
    verify_specialization,
)
from .comprehensive import Cell, ComprehensiveResult, comprehensive_basis, locate
from .hilbert import HilbertData, hilbert_partition, hilbert_polynomial, hsf, milnor_number
from .problems import Problem, parse_problem, poly_from_string

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
