"""The error contract of the public API: over a fixed product of edge values
for each argument, every public function of ``euclid_bounds``,
``hyperbolic``, ``specfun``, ``orthopoly`` and ``spherical_lp`` but the few
named in ``NOT_SWEPT`` returns finite values or raises one of the typed
errors.  Under tier-1's RuntimeWarning-as-error setting a numpy warning on
the way counts as a breach too."""

import cmath
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from packbounds import euclid_bounds as eb
from packbounds import hyperbolic as hyp
from packbounds import orthopoly
from packbounds import specfun as sf
from packbounds import spherical_lp as slp
from packbounds.orthopoly import DEGREE_CAP, GegenbauerContext
from packbounds.specfun import IntegrandError, LogScaled, NonConvergenceError, log_gamma
from packbounds.spherical_lp import LPInfeasibleError

FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e-9, math.pi / 3, math.nextafter(math.pi / 3, 4.0), 1.0,
          math.pi, math.nextafter(math.pi, 4.0), 50.0, 50.0 + 1e-6, 710.5, 1e308,
          math.inf, -math.inf, math.nan, -1.0]
INTS = [-1, 0, 1, 2, 3, 4, 200, 201, 400, 800, 801, 100_000]
# degrees and sizes, capped so that each call stays cheap: the walks and
# tables past these run the same code longer
DEGREES = [-1, 0, 1, 2, 3, 4, 5, 40, DEGREE_CAP + 1]
TYPED = (ValueError, NonConvergenceError, IntegrandError, LPInfeasibleError)


def _crossover_ends():
    # each lo with hi one below, at and one above it: a wider valid span
    # reruns the whole table, which the table tests already cover
    return [(lo, lo + d) for lo in INTS for d in (-1, 0, 1)]


# each public function, with the axes whose product it is called on
CALLS = {
    "rogers_bound": (eb.rogers_bound, [INTS]),
    "levenshtein_bound": (eb.levenshtein_bound, [INTS]),
    "kl_bound": (eb.kl_bound, [INTS]),
    "cz_bound": (eb.cz_bound, [INTS]),
    "best_method": (eb.best_method, [INTS]),
    "kl_spherical_code_bound": (eb.kl_spherical_code_bound, [INTS, FLOATS]),
    "bounds": (eb.bounds, [[[m] for m in (*eb.METHODS, "nope")], [[n] for n in INTS]]),
    "crossover_scan": (lambda ends: eb.crossover_scan(*ends), [_crossover_ends()]),
    "optimize_asymptotic_rate": (eb.optimize_asymptotic_rate, []),
    "hyp_ball_volume": (hyp.hyp_ball_volume, [INTS, FLOATS]),
    "radius_from_angle": (hyp.radius_from_angle, [FLOATS, FLOATS]),
    "hyp_density_bound": (hyp.hyp_density_bound, [INTS, FLOATS, FLOATS, [False, True]]),
    # n = 100 000 walks 7 786 roots one by one (about 8 s), so it is left out
    "hyp_bound_optimized": (hyp.hyp_bound_optimized, [INTS[:-1], FLOATS, [False, True]]),
    "overlap_limit": (hyp.overlap_limit, [INTS, FLOATS]),
    "overlap_finite": (hyp.overlap_finite, [INTS, FLOATS, FLOATS]),
    # 10^4 samples a call, at the ends of 2 <= n <= 200 and just past them
    "overlap_monte_carlo": (lambda n, r, R: hyp.overlap_monte_carlo(n, r, R, 10**4),
                            [[1, 2, 200, 201], FLOATS, FLOATS]),
    "log_gamma": (log_gamma, [FLOATS + INTS]),
    "scaled_erfc_complex": (sf.scaled_erfc_complex, [FLOATS]),
    "bessel_first_zero": (sf.bessel_first_zero, [FLOATS + INTS]),
    "incomplete_beta": (sf.incomplete_beta, [FLOATS, FLOATS, FLOATS]),
    # a minimum at 1 inside, at or outside [a, b], and every tolerance
    "golden_section_min": (lambda a, b, tol: sf.golden_section_min(lambda x: abs(x - 1.0), a, b, tol),
                           [FLOATS, FLOATS, FLOATS]),
    "GegenbauerContext.log_value_at_one":
        (lambda n, k: GegenbauerContext(n).log_value_at_one(k), [INTS, DEGREES]),
    "GegenbauerContext.eval_normalized_table":
        (lambda n, k, t: GegenbauerContext(n).eval_normalized_table(k, [t]), [INTS, DEGREES, FLOATS]),
    "GegenbauerContext.largest_root":
        (lambda n, k: GegenbauerContext(n).largest_root(k), [INTS, DEGREES]),
    "GegenbauerContext.largest_roots":
        (lambda n, k: GegenbauerContext(n).largest_roots(k), [INTS, DEGREES]),
    "GegenbauerContext.first_degree_reaching":
        (lambda n, x: GegenbauerContext(n).first_degree_reaching(x), [INTS, FLOATS]),
    "chebyshev_grid": (slp.chebyshev_grid, [FLOATS, INTS]),
    "LPProblem": (slp.LPProblem, [INTS, FLOATS, DEGREES]),
    # a degree-2 document whose n, theta and outer coefficients are edge numbers
    "certificate_from_json": (lambda n, theta, c: slp.certificate_from_json(json.dumps(
        {"n": n, "theta": theta, "degree": 2, "coefficients": [c, 1.0, c]})), [INTS, FLOATS, FLOATS]),
}

# public functions left out: integrate takes an integrand and
# simplex_minimize an LP's arrays; the others take a problem or certificate
# that the swept constructors above already check
NOT_SWEPT = {
    "integrate", "simplex_minimize", "lp_solve_spherical", "verify_certificate",
    "euclid_bound_from_certificate", "transfer_g_to_f", "certificate_to_json",
}


def _finite(value) -> bool:
    # every number in the result, through records, dicts and sequences
    if isinstance(value, LogScaled):
        return math.isfinite(value.log_value)
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return value is None or isinstance(value, (int, str))


def test_every_public_function_is_swept():
    public = {name for mod in (eb, hyp, sf, slp) for name in mod.__all__
              if callable(getattr(mod, name)) and not isinstance(getattr(mod, name), type)}
    public |= {"LPProblem"} | {f"GegenbauerContext.{name}" for name in vars(GegenbauerContext)
                               if not name.startswith("_")}
    assert orthopoly.__all__ == ["GegenbauerContext", "DEGREE_CAP"]
    assert public == set(CALLS) | NOT_SWEPT


@pytest.mark.parametrize("name", sorted(CALLS))
def test_result_is_finite_or_a_typed_error(name):
    func, axes = CALLS[name]
    breaches = []
    for args in itertools.product(*axes):
        try:
            result = func(*args)
        except TYPED:
            continue
        except Exception as exc:  # noqa: BLE001 -- an untyped error is the breach
            breaches.append((args, f"{type(exc).__name__}: {exc}"))
            continue
        if not _finite(result):
            breaches.append((args, result))
    assert breaches == []
