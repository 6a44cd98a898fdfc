"""Upper bounds for sphere packing density in Euclidean and hyperbolic space.

Submodules: :mod:`specfun` (log-scaled numerics and special functions),
:mod:`orthopoly` (normalized Gegenbauer tables and largest roots), :mod:`euclid_bounds`
(the four Euclidean density bounds), :mod:`spherical_lp` (the code-bound LP
with verified certificates and the Euclidean transfer), :mod:`hyperbolic`
(volumes, density bounds, ball overlaps), and :mod:`cli`.
"""

from .euclid_bounds import (
    BoundRecord,
    RateResult,
    best_method,
    cz_bound,
    kl_bound,
    kl_spherical_code_bound,
    levenshtein_bound,
    optimize_asymptotic_rate,
    rogers_bound,
)
from .hyperbolic import (
    hyp_ball_volume,
    hyp_bound_optimized,
    hyp_density_bound,
    overlap_finite,
    overlap_limit,
    overlap_monte_carlo,
    radius_from_angle,
)
from .orthopoly import GegenbauerContext
from .specfun import (
    LogScaled,
    bessel_first_zero,
    incomplete_beta,
    integrate,
    log_gamma,
    scaled_erfc_complex,
)
from .spherical_lp import (
    LPCertificate,
    LPProblem,
    TransferProbe,
    euclid_bound_from_certificate,
    lp_solve_spherical,
    transfer_g_to_f,
    verify_certificate,
)

__version__ = "0.1.0"
