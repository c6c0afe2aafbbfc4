"""Desk-scale numerics for Laplace-type asymptotics of rough differential
equations driven by fractional Brownian motion.

The pipeline: fractional Brownian rough paths (grids, variation norms,
lifts), Young-regime ODEs and their perturbation expansions around a
Cameron-Martin path, Hilbert-Schmidt Hessian diagnostics, and Monte Carlo
verification of the small-parameter expansion of
E[G(Y) exp(-F(Y)/eps^2)].
"""

from .grids import SampledPath, TimeGrid
from .variation import cosine_pvar, pvar_values
from .roughpath import (
    RoughPath,
    chen_residual,
    lift,
    pair,
    running_signature,
    scale_rough,
    shift,
)
from .fbm import (
    CameronMartinVector,
    HurstParams,
    cm_basis,
    cm_map,
    fbm_cov,
    onb_interp,
    sample_fbm,
    sample_fbm_ensemble,
)
from .odes import DivergenceError, VectorFieldSpec
from .functionals import (
    FunctionalSpec,
    constant_field,
    endpoint_linear,
    endpoint_quadratic,
    integral_quadratic,
    one_functional,
    rotation_field,
    tanh_field,
    zero_functional,
)
from .taylor import (
    ExpansionContext,
    expansion_context,
    solve_rde,
    taylor_remainder_slope,
)
from .hessian import HSTailReport, det2, hessian_matrix, hs_tail
from .laplace import (
    KappaLadder,
    LaplaceReport,
    OptConfig,
    expansion_constants,
    expansion_fit,
    kappa_ladder,
    mc_laplace,
    minimize_F_Lambda,
)

__version__ = "0.1.0"
