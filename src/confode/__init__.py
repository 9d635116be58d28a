"""confode: closed-form solutions of sequential linear conformable
fractional differential equations with constant coefficients.

The change of variable u = t^alpha / alpha turns the conformable
derivative of order alpha into d/du, so every equation here reduces to a
classical constant-coefficient problem over a small closed term algebra
(powers of u times exponentials times sin/cos).  The package exposes:

- :mod:`confode.ualgebra` — the exact-rate term algebra and calculus on it
- :mod:`confode.chareq` — characteristic polynomials and clustered roots
- :mod:`confode.solver` — solution bases, particular solutions by
  exponential-shift inversion, initial-value fitting
- :mod:`confode.conformable` — the independent numeric oracle
  (limit-quotient derivatives and adaptive quadrature)
- :mod:`confode.eqparse` — the equation text front end
- :mod:`confode.cli` — solve / verify / sample commands
"""

from .chareq import CharPoly, RootFindingError, RootSet, find_roots
from .conformable import (
    DomainError,
    GridFn,
    OracleGrid,
    QuadratureError,
    expr_grid,
    log_grid,
    numeric_conformable_integral,
    numeric_t_alpha_derivative,
    operator_residual,
)
from .eqparse import (
    EquationAst,
    EquationSyntaxError,
    parse_equation,
    problem_from_source,
    render_equation,
)
from .solver import (
    GeneralSolution,
    ProblemSpec,
    SingularSystemError,
    SolutionBasis,
    SolverError,
    fit_constants,
    format_solution,
    homogeneous_basis,
    particular_solution,
    solution_from_doc,
    solution_to_doc,
    solve_problem,
)
from .ualgebra import (
    SubstMap,
    UExpr,
    UTerm,
    diff_u,
    eval_expr,
    expr,
    format_t,
    format_u,
)

__version__ = "0.1.0"

__all__ = [
    "CharPoly",
    "DomainError",
    "EquationAst",
    "EquationSyntaxError",
    "GeneralSolution",
    "GridFn",
    "OracleGrid",
    "ProblemSpec",
    "QuadratureError",
    "RootFindingError",
    "RootSet",
    "SingularSystemError",
    "SolutionBasis",
    "SolverError",
    "SubstMap",
    "UExpr",
    "UTerm",
    "diff_u",
    "eval_expr",
    "expr",
    "expr_grid",
    "find_roots",
    "fit_constants",
    "format_solution",
    "format_t",
    "format_u",
    "homogeneous_basis",
    "log_grid",
    "numeric_conformable_integral",
    "numeric_t_alpha_derivative",
    "operator_residual",
    "parse_equation",
    "particular_solution",
    "problem_from_source",
    "render_equation",
    "solution_from_doc",
    "solution_to_doc",
    "solve_problem",
    "__version__",
]
