"""Gegenbauer polynomials on the sphere: normalized tables and largest roots.

The positive-definite basis on S^(n-1) is C_k^(n/2-1).  For n = 2 the
weight degenerates and the Chebyshev-T basis (the alpha -> 0 limit) is used
instead.  Only the largest root of each degree is ever needed; it is the
top eigenvalue of the symmetric tridiagonal Jacobi matrix, defined as the
midpoint of the 2^-47-wide dyadic cell that Sturm-sequence bisection of
[0, 1] ends on.  Sturm counts and Newton steps run on the LDL^T pivots of
the matrix, so the (overflowing) polynomial itself is never evaluated.
When the three roots below degree k are cached, as in the ascending
k-scans of the bounds, extrapolating them and polishing by Newton finds
that cell in a handful of passes; otherwise the bisection runs.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import NonConvergenceError, log_gamma

__all__ = ["GegenbauerContext", "DEGREE_CAP"]

DEGREE_CAP = 20000


class GegenbauerContext:
    """Dimension-bound Gegenbauer family with a cache of largest roots.

    Immutable after construction except two memos: the largest roots and
    the squared off-diagonal of the Jacobi matrix.  Both only ever gain
    entries that do not depend on the order of the requests, so threads may
    share a context.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("GegenbauerContext requires dimension n >= 2")
        self.n = int(n)
        self.alpha = n / 2.0 - 1.0
        self._roots: dict[int, float] = {1: 0.0}
        self._b2 = np.empty(0)

    def __repr__(self):
        return f"GegenbauerContext(n={self.n})"

    def log_value_at_one(self, k: int) -> float:
        """ln C_k(1); C_k(1) = C(k + n - 3, k) for n > 2, T_k(1) = 1 for n = 2."""
        if self.n == 2 or k == 0:
            return 0.0
        two_alpha = self.n - 2.0
        return log_gamma(k + two_alpha) - log_gamma(two_alpha) - log_gamma(k + 1.0)

    # -- evaluation ---------------------------------------------------------

    def eval_normalized_table(self, kmax: int, t: np.ndarray) -> np.ndarray:
        """C_j(t) / C_j(1) for j = 0..kmax at once, shape (kmax+1, len(t)).

        The three-term recurrence of the normalized family is uniform in n
        (at alpha = 0 it is Chebyshev's), and its values stay in [-1, 1]."""
        self._check_degree(kmax)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((kmax + 1, t.size))
        out[0] = 1.0
        if kmax >= 1:
            out[1] = t
        a = self.alpha
        for j in range(2, kmax + 1):
            out[j] = (2 * (j + a - 1) * t * out[j - 1] - (j - 1) * out[j - 2]) / (
                j + 2 * a - 1
            )
        return out

    # -- largest roots ------------------------------------------------------

    def largest_root(self, k: int) -> float:
        self._check_degree(k)
        if k < 1:
            raise ValueError("largest_root requires degree k >= 1")
        cached = self._roots.get(k)
        if cached is not None:
            return cached
        return self._roots.setdefault(k, self._largest_root_uncached(k))

    def _offdiag_sq(self, k: int) -> list[float]:
        # Squared off-diagonal of the k x k symmetric Jacobi matrix (diagonal
        # is zero by symmetry of the weight).  Valid down to alpha = 0.  Each
        # entry is the same expression whatever k is, so one growing array
        # serves every degree; the scalar loops get a prefix as Python floats.
        # A racing thread may swap in a shorter array; this call keeps its own.
        b2 = self._b2
        if b2.size < k - 1:
            m = max(k - 1, 2 * b2.size)
            a = self.alpha
            j = np.arange(2.0, m + 1)
            b2 = np.empty(m)
            b2[0] = 1.0 / (2.0 * (1.0 + a))
            b2[1:] = j * (j + 2 * a - 1) / (4 * (j + a - 1) * (j + a))
            self._b2 = b2
        return b2[: k - 1].tolist()

    def _largest_root_uncached(self, k: int) -> float:
        if k == 1:
            return 0.0
        b2 = self._offdiag_sq(k)
        root = self._root_from_neighbours(k, b2)
        return _bisect_largest(b2, k, self.n) if root is None else root

    def _root_from_neighbours(self, k: int, b2: list[float]) -> float | None:
        """The bisection's answer, found without bisecting, or None.

        Bisection from [0, 1] stops after exactly 47 halvings, on the dyadic
        cell [j, j + 1] * 2^-47 whose ends have Sturm counts < k and >= k;
        it returns the cell midpoint.  Extrapolating the three cached roots
        below k and polishing by Newton lands in or next to that cell, and
        two or three Sturm counts confirm it.  Like the bisection, this takes
        the computed count to be monotone in sigma, so only one cell passes.
        """
        roots = self._roots
        if k < 5 or not all(i in roots for i in (k - 1, k - 2, k - 3)):
            return None
        x = 3.0 * roots[k - 1] - 3.0 * roots[k - 2] + roots[k - 3]
        try:
            for _ in range(_NEWTON_STEPS):
                step = _newton_step(b2, x)
                x -= step
                # Newton converges quadratically: the error left after a
                # step this small is far below the 2^-47 cell width
                if abs(step) < 1e-8:
                    break
        except ZeroDivisionError:
            return None
        if not 0.0 < x < 1.0:
            return None
        # x may sit a rounding error outside its cell: step to a neighbour
        j = math.floor(math.ldexp(x, _CELL_BITS))
        if _count_below(b2, math.ldexp(j, -_CELL_BITS)) < k:
            for _ in range(_CELL_WALK):
                if _count_below(b2, math.ldexp(j + 1, -_CELL_BITS)) >= k:
                    return math.ldexp(2 * j + 1, -_CELL_BITS - 1)
                j += 1
        else:
            for _ in range(_CELL_WALK):
                j -= 1
                if _count_below(b2, math.ldexp(j, -_CELL_BITS)) < k:
                    return math.ldexp(2 * j + 1, -_CELL_BITS - 1)
        return None

    def _check_degree(self, k: int) -> None:
        if k > DEGREE_CAP:
            raise ValueError(f"degree {k} exceeds the degree cap {DEGREE_CAP}")


# Bisection of [0, 1] to width <= 1e-14 halves it exactly 47 times.
_CELL_BITS = 47
_CELL_WALK = 2
_NEWTON_STEPS = 8


def _count_below(b2: list[float], sigma: float) -> int:
    # Sturm count of eigenvalues below sigma (LDL^T sign pattern)
    cnt = 0
    d = -sigma
    if d < 0:
        cnt += 1
    for bb in b2:
        if d == 0.0:
            d = -1e-300
        d = -sigma - bb / d
        if d < 0:
            cnt += 1
    return cnt


def _newton_step(b2: list[float], x: float) -> float:
    # p/p' for p(x) = det(x - J) = prod u_i with the pivots
    # u_i = x - b2_i / u_(i-1), so p'/p = sum u_i'/u_i
    u, du = x, 1.0
    s = 1.0 / x
    for bb in b2:
        r = bb / u
        du = 1.0 + r * du / u
        u = x - r
        s += du / u
    return 1.0 / s


def _bisect_largest(b2: list[float], k: int, n: int) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _count_below(b2, mid) >= k:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14:
            break
    if hi - lo > 1e-12:
        raise NonConvergenceError(f"root bisection stalled at n={n}, k={k}")
    return 0.5 * (lo + hi)
