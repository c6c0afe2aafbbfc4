"""Desk-scale numerics for Laplace-type asymptotics of rough differential
equations driven by fractional Brownian motion.

The pipeline: fractional Brownian rough paths (grids, variation norms,
lifts), Young-regime ODEs and their perturbation expansions around a
Cameron-Martin path, Hilbert-Schmidt Hessian diagnostics, and Monte Carlo
verification of the small-parameter expansion of
E[G(Y) exp(-F(Y)/eps^2)].
"""

from .grids import SampledPath, TimeGrid, path_to_csv
from .variation import (
    VariationResult,
    besov_norm,
    cosine_pvar,
    dyadic_approx,
    holder_norm,
    pvar_exact,
    pvar_jogfree,
)
from .roughpath import (
    RoughPath,
    XiValue,
    chen_residual,
    djp_seminorm,
    lift,
    pair,
    running_signature,
    scale_rough,
    shift,
    xi_norm,
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
    volterra_kernel,
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
    TaylorBundle,
    compute_chi,
    compute_phi0,
    compute_phi1,
    compute_phi2,
    compute_psi,
    compute_theta1,
    compute_theta2,
    expansion_context,
    solve_rde,
    taylor_bundle,
    taylor_remainder_slope,
)
from .hessian import (
    HessianMatrix,
    HSTailReport,
    det2,
    hessian_matrix,
    hs_tail,
    r_forms,
    v_forms,
)
from .laplace import (
    KappaLadder,
    LaplaceReport,
    OptConfig,
    ShortTimeMap,
    expansion_constants,
    expansion_fit,
    kappa_ladder,
    mc_laplace,
    minimize_F_Lambda,
    short_time_transform,
)

__version__ = "0.1.0"
