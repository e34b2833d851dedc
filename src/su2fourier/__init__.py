"""Fourier partial sums on SU(2).

Subpackages: ``group`` (arithmetic, metric, quadrature), ``representations``
(characters, matrices, truncation sets), ``fourier`` (coefficients, kernels,
partial sums, Lebesgue constants), ``divergence`` (sawtooth witnesses and the
lower-bound chain), ``convergence`` (modulus of continuity, Dini integral,
Jackson quotients, log-weighted block sums), ``cli`` (reproducible tables).
"""

__version__ = "0.1.0"

from .group import (
    GroupElement,
    IDENTITY,
    QuadratureRule,
    WeylRule,
    conj_angle,
    haar_grid,
    make_element,
    metric_d,
    weyl_grid,
)
from .representations import (
    char_eval,
    char_table,
    repr_matrices,
    repr_matrix,
    truncation_set,
)
from .fourier import (
    CentralFn,
    band_limited_fn,
    char_fn,
    const_fn,
    dirichlet_closed,
    dirichlet_direct,
    from_breakpoints,
    lebesgue_constant,
    left_translate,
    matrix_coeffs,
    partial_sum_central,
    partial_sum_general,
)
from .divergence import (
    ChainReport,
    divergence_table,
    holder_bound,
    partial_sum_at_identity,
    sawtooth,
    sawtooth_normalized,
    verify_chain,
)
from .convergence import (
    ModulusProfile,
    best_approx,
    dini_integral,
    holder_test_function,
    integral_modulus,
    jackson_ratio,
    log_weighted_block_sum,
    modulus_profile,
    sqrt_shift_fn,
    uniform_error_central,
)
