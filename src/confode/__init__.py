"""confode: closed-form solutions of sequential linear conformable
fractional differential equations with constant coefficients.

The change of variable u = t^alpha / alpha turns the conformable
derivative of order alpha into d/du, so every equation here reduces to a
classical constant-coefficient problem over a small closed term algebra
(powers of u times exponentials times sin/cos).  The package exposes:

- :mod:`confode.ualgebra` — the exact term algebra, its calculus, and
  its binary64 rows for evaluation
- :mod:`confode.chareq` — characteristic polynomials and their exact or
  certified roots
- :mod:`confode.solver` — solution bases, particular solutions by
  exponential-shift inversion, initial-value fitting
- :mod:`confode.conformable` — the independent numeric oracle
  (the limit quotient on a verify grid, and the equation residual)
- :mod:`confode.eqparse` — the equation text front end, which reads text
  at a given alpha straight into a problem over the term algebra
- :mod:`confode.cli` — solve / verify / sample commands
"""

from .chareq import CharPoly, RootFindingError, RootSet, find_roots
from .conformable import DomainError, OracleGrid, log_grid, operator_residual
from .eqparse import EquationSyntaxError, problem_from_source
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
)

__version__ = "0.1.0"

__all__ = [
    "CharPoly",
    "DomainError",
    "EquationSyntaxError",
    "GeneralSolution",
    "OracleGrid",
    "ProblemSpec",
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
    "find_roots",
    "fit_constants",
    "format_solution",
    "format_t",
    "homogeneous_basis",
    "log_grid",
    "operator_residual",
    "particular_solution",
    "problem_from_source",
    "solution_from_doc",
    "solution_to_doc",
    "solve_problem",
    "__version__",
]
