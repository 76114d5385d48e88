"""trihyp: hypergeometric and closed-form roots of x^n - x + t = 0 with a
differentially tested catalog of special-function reduction identities
and semi-infinite integrals."""

__version__ = "0.1.0"

from .errors import BudgetError, DivergenceError, DomainError, TrihypError
from .specfun import (
    SeriesResult,
    bell_polynomial,
    gamma,
    gauss_sum_2f1,
    hyp0f1,
    hyp1f1,
    hyp2f1,
    hyp3f2,
    hyp_pfq,
    hyp_pfq_regularized,
    incomplete_beta,
    legendre_p,
    legendre_polynomial,
    lower_incomplete_gamma,
    parabolic_cylinder_d,
    pochhammer,
    rgamma,
    whipple_sum_3f2,
)
from .roots import (
    RootSet,
    TrinomialInstance,
    g_function,
    lagrange_coefficient,
    quadratic_roots,
    quartic_roots,
    residual,
    root_hypergeometric,
    root_lagrange_partial,
    trinomial_closed_roots,
)
from .identities import (
    CheckRecord,
    IdentityDescriptor,
    check_point,
    default_grid,
    eval_identity,
    faa_di_bruno_derivative,
    list_identities,
)
from .quad import QuadResult, integrate_semi_infinite
