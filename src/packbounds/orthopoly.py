"""Gegenbauer polynomials on the sphere: normalized tables and largest roots.

The positive-definite basis on S^(n-1) is C_k^(n/2-1).  For n = 2 the
weight degenerates and the Chebyshev-T basis (the alpha -> 0 limit) is used
instead.  :meth:`GegenbauerContext.eval_normalized_table` tabulates
C_k / C_k(1) by its three-term recurrence.  Of the roots, only the largest
of each degree is ever needed; it is the top eigenvalue of the symmetric
tridiagonal Jacobi matrix, defined as the midpoint of the 2^-47-wide dyadic
cell that Sturm-sequence bisection of [0, 1] ends on.  Sturm counts and
Newton steps run on the LDL^T pivots of the matrix, so the (overflowing)
polynomial itself is never evaluated.  :func:`_root_near` polishes a start
by Newton, and two Sturm counts confirm its cell or the one below; a miss
takes one more Newton step and test, then, as without a start, bisects.
Every start, on floats or on lane arrays, comes from one rule,
:func:`_guess`: the closed form up to degree 4, above it the cubic
extrapolation of the three roots below.  A context holds n and alpha and
nothing else: one root, :meth:`GegenbauerContext.largest_root`, has no
roots below it and bisects above degree 4, and
:meth:`GegenbauerContext.largest_roots` walks t_1..t_kmax in ascending
order.  :func:`_lockstep_roots` serves the kl/cz k-scan on lane arrays,
one float64 lane per dimension, from the state the scan carries from one
degree to the next: each lane's three roots below k and the squared
off-diagonal rows of its Jacobi matrix, one (K, L) array grown by
doubling.  The lane Newton step and Sturm count fill preallocated
buffers, two ufunc calls per pivot and recurrence, and one Sturm pass at
four edges finds each lane's cell among its iterate's and the two below,
or bisects.  Newton's iterate may differ from the scalar one in the last
bits, but the Sturm counts, which decide the cell, are the scalar ones
bit for bit (numpy rounds elementwise as Python rounds floats), so each
lane's root is the scalar one.
:meth:`GegenbauerContext.first_degree_reaching` finds the least degree
k >= 2 with t_k >= x, the degree of the spherical-code bound, by the same
Sturm counts, without a root: one pass over the pivots, one more per degree.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import log_gamma

__all__ = ["GegenbauerContext", "DEGREE_CAP"]

DEGREE_CAP = 20000


class GegenbauerContext:
    """Dimension-bound Gegenbauer family: n and alpha = n/2 - 1, no state."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("GegenbauerContext requires dimension n >= 2")
        self.n = int(n)
        self.alpha = n / 2.0 - 1.0

    def __repr__(self):
        return f"GegenbauerContext(n={self.n})"

    def log_value_at_one(self, k: int) -> float:
        """ln C_k(1); C_k(1) = C(k + n - 3, k) for n > 2, T_k(1) = 1 for n = 2.
        Raises ValueError for k < 0."""
        if k < 0:
            raise ValueError(f"log_value_at_one requires k >= 0, got {k}")
        if self.n == 2 or k == 0:
            return 0.0
        two_alpha = self.n - 2.0
        return log_gamma(k + two_alpha) - log_gamma(two_alpha) - log_gamma(k + 1.0)

    # -- evaluation ---------------------------------------------------------

    def eval_normalized_table(self, kmax: int, t: np.ndarray) -> np.ndarray:
        """C_j(t) / C_j(1) for j = 0..kmax at once, shape (kmax+1, len(t)).

        The three-term recurrence of the normalized family is uniform in n
        (at alpha = 0 it is Chebyshev's), and its values stay in [-1, 1].
        Row j is ((2(j + a - 1) t) row[j-1] - (j - 1) row[j-2]) / (j + 2a - 1),
        written in place with one scratch row by the operations of the plain
        array expression, in their order, so each row is the same bit for bit.
        Past |t| = 1 rows grow with j: a t that is non-finite or overflows
        the table leaves the last row non-finite, and raises ValueError."""
        _check_degree(kmax, 0, "eval_normalized_table requires kmax")  # before allocating
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((kmax + 1, t.size))
        out[0] = 1.0
        if kmax >= 1:
            out[1] = t
        a = self.alpha
        scratch = np.empty(t.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(2, kmax + 1):
                row = out[j]
                np.multiply(2 * (j + a - 1), t, out=scratch)
                scratch *= out[j - 1]
                np.multiply(j - 1, out[j - 2], out=row)
                np.subtract(scratch, row, out=row)
                row /= j + 2 * a - 1
        if not np.isfinite(out[-1]).all():
            raise ValueError("eval_normalized_table requires finite t where the table stays finite")
        return out

    # -- largest roots ------------------------------------------------------

    def largest_root(self, k: int) -> float:
        """t_k alone: exactly 0.0 at k = 1, from the closed form's cell up
        to k = 4, by bisection above."""
        _check_degree(k, 1, "largest_root requires degree k")
        if k == 1:
            return 0.0  # _root_near([], 1, .) would bisect to 2^-48
        b2 = _squared_offdiag(self.alpha, k - 1).tolist()
        return _root_near(b2, k, _guess(b2, k))

    def largest_roots(self, kmax: int) -> list[float]:
        """t_1..t_kmax in one ascending walk, each degree past 4 started
        from the three roots below it."""
        _check_degree(kmax, 1, "largest_roots requires degree kmax")
        b2 = _squared_offdiag(self.alpha, kmax).tolist()
        roots = [0.0]
        for k in range(2, kmax + 1):
            rows = b2[: k - 1]
            roots.append(_root_near(rows, k, _guess(rows, k, roots[:-4:-1])))
        return roots

    def first_degree_reaching(self, x: float) -> int | None:
        """The least degree k in [2, DEGREE_CAP] whose largest root t_k >= x,
        or None, found without finding a root.

        t_k >= x holds iff t_k's cell lies at or above the first cell whose
        midpoint reaches x, that is iff the Sturm count of degree k at that
        cell's lower edge is below k: the cell test of the root itself.  The
        count of degree k is the count of degree k - 1 plus the sign of one
        more pivot, so one pass over the pivots, in order of degree, meets
        the first k whose count falls below k; the rows it reads grow by
        doubling."""
        if not -1.0 <= x <= 1.0:
            raise ValueError(f"first_degree_reaching requires x in [-1, 1], got x = {x!r}")
        edge = math.floor(math.ldexp(x, _CELL_BITS))
        edge += math.ldexp(2 * edge + 1, -_CELL_BITS - 1) < x
        d = low = -math.ldexp(edge, -_CELL_BITS)
        count = int(d < 0)  # the count of degree 1, which has no rows
        b2 = []
        for k in range(2, DEGREE_CAP + 1):
            if len(b2) < k - 1:
                b2 = _squared_offdiag(self.alpha, min(2 * k, DEGREE_CAP)).tolist()
            d = low - b2[k - 2] / (d or -1e-300)  # _count_below's pivot
            count += d < 0
            if count < k:
                return k
        return None


def _closed_form(b0, b1, b2, sqrt):
    # Up to k = 4 the characteristic polynomial is y^2 - S y + P in y = x^2,
    # S the sum of the first three squared off-diagonal entries (0 past
    # k - 1) and P = b2_0 b2_2; its larger root, per lane with np.sqrt.
    s = b0 + b1 + b2
    return sqrt((s + sqrt(s * s - 4.0 * b0 * b2)) / 2.0)


def _extrapolate(r1, r2, r3):
    # the cubic extrapolation of the roots at k - 1, k - 2 and k - 3
    return 3.0 * r1 - 3.0 * r2 + r3


def _guess(rows, k: int, below=None, sqrt=math.sqrt):
    # the start of root k, from its k - 1 squared off-diagonal rows, floats
    # or lane arrays: the closed form up to k = 4, above it the extrapolation
    # of ``below``, the roots at k - 1, k - 2 and k - 3, or None without them
    if k <= 4:
        return _closed_form(*rows[: k - 1], *[0.0] * (4 - k), sqrt)
    return None if below is None else _extrapolate(*below)


def _check_degree(k: int, least: int, what: str) -> None:
    if k > DEGREE_CAP:
        raise ValueError(f"degree {k} exceeds the degree cap {DEGREE_CAP}")
    if k < least:
        raise ValueError(f"{what} >= {least}, got {k}")


def _lockstep_roots(alpha: np.ndarray, k: int, below,
                    b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root k of each lane of a k-scan, from the state it carries: lane i is
    the family of ``alpha[i]``, ``below`` holds its roots at k - 1, k - 2
    and k - 3 (three rows) and ``b2`` its squared off-diagonal rows, (K, L).
    Every lane starts by :func:`_guess`, the scalar start rule on lane
    rows; the lanes are polished and confirmed together, and a lane whose
    Newton step or cell test fails (a NaN start among them) bisects.  A
    single lane goes to :func:`_root_near` on floats.  Returns the roots and
    ``b2``, grown by doubling to at least k - 1 rows."""
    if len(b2) < k - 1:
        b2 = _squared_offdiag(alpha, max(k - 1, 2 * len(b2)))
    rows = b2[: k - 1]
    if alpha.size == 1:  # Python floats beat 1-element arrays
        col = rows[:, 0].tolist()
        return np.array([_root_near(col, k, _guess(col, k, (r.item() for r in below)))]), b2
    x = _guess(rows, k, below, np.sqrt)
    # a lane reads NaN where the scalar route raises or gives up
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = _confirm_cells(rows, k, _polish_lanes(rows, k, x))
    for i in np.flatnonzero(np.isnan(roots)).tolist():
        roots[i] = _bisect_largest(rows[:, i].tolist(), k)
    return roots, b2


def _squared_offdiag(alpha, m: int) -> np.ndarray:
    # The first m squared off-diagonal entries of the Jacobi matrix (its
    # diagonal is zero by symmetry of the weight), valid down to alpha = 0;
    # for an array of alphas, one column per lane.
    a = np.asarray(alpha, dtype=float)
    j = np.arange(2.0, m + 1).reshape((-1,) + (1,) * a.ndim)
    b2 = np.empty((m,) + a.shape)
    b2[0] = 1.0 / (2.0 * (1.0 + a))
    b2[1:] = j * (j + 2 * a - 1) / (4 * (j + a - 1) * (j + a))
    return b2


# Bisection of [0, 1] to width <= 1e-14 halves it exactly 47 times.
_CELL_BITS = 47
_NEWTON_STEPS = 8


def _count_below(b2: list[float], sigma: float) -> int:
    # Sturm count of eigenvalues below sigma (LDL^T sign pattern); a zero
    # pivot becomes -1e-300
    d = low = -sigma
    cnt = int(d < 0)
    for bb in b2:
        d = low - bb / (d or -1e-300)
        cnt += d < 0
    return cnt


def _count_below_lanes(b2: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    # _count_below with one lane per column of b2, sigma broadcasting
    # against a row, bit for bit: the pivots d_i = -sigma - b2_i / d_(i-1)
    # fill one buffer, two ufunc calls per pivot, and are counted at the
    # end; only a lane that met an exact zero pivot, where the rule of
    # _count_below applies, is counted again by it
    low = np.negative(sigma)
    d = np.empty((len(b2) + 1,) + np.broadcast_shapes(low.shape, b2.shape[1:]))
    d[0] = low
    rows = list(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        for bb, prev, row in zip(b2, rows, rows[1:]):
            np.divide(bb, prev, out=row)
            np.subtract(low, row, out=row)
    count = np.count_nonzero(d < 0.0, axis=0)
    zero = d[:-1] == 0.0
    if zero.any():
        sigma = np.broadcast_to(sigma, count.shape)
        for at in zip(*np.nonzero(zero.any(axis=0))):
            count[at] = _count_below(b2[:, at[-1]].tolist(), float(sigma[at]))
    return count


def _newton_step(b2, x):
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


def _newton_lanes(b2: np.ndarray, x: np.ndarray, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    # _newton_step per lane in the buffers u (k, L) and r (k - 1, L): the
    # pivots u_i and r_i = b2_i / u_(i-1) first, then w_i = u_i'/u_i =
    # (1 + r_i w_(i-1)) / u_i as 1/u_i + (r_i/u_i) w_(i-1), two ufunc
    # calls per pivot each, and p'/p = sum w_i at once
    us, rs = list(u), list(r)
    u[0] = x
    for bb, prev, ri, ui in zip(b2, us, rs, us[1:]):
        np.divide(bb, prev, out=ri)
        np.subtract(x, ri, out=ui)
    np.reciprocal(u, out=u)
    r *= u[1:]
    for prev, ri, ui in zip(us, rs, us[1:]):
        np.multiply(ri, prev, out=ri)
        np.add(ui, ri, out=ui)
    return 1.0 / u.sum(axis=0)


def _root_near(b2: list[float], k: int, x: float | None) -> float:
    """The bisection's answer, found without bisecting from a start x.

    Bisection from [0, 1] stops after exactly 47 halvings, on the dyadic
    cell [j, j + 1] * 2^-47 whose ends have Sturm counts < k and >= k, and
    returns its midpoint.  Newton from a start stops after a step below
    1e-8 (1 - x), since near 1 the root gaps shrink like 1 - x, and lands in
    that cell or the one below, which two Sturm counts confirm (taking the
    count, like the bisection, to be monotone in sigma).  The closed forms
    (k <= 4) take no step.  A miss (at n >= 5000 some iterates stop cells
    off) takes one more step and test; without a start, or when Newton or
    the retry fails, the bisection runs.
    """
    try:
        for _ in range(_NEWTON_STEPS if k > 4 and x is not None else 0):
            step = _newton_step(b2, x)
            x -= step
            if abs(step) < 1e-8 * (1.0 - x):
                break
        root = None if x is None else _confirm_cell(b2, k, x)
        if root is None and x is not None:
            root = _confirm_cell(b2, k, x - _newton_step(b2, x))
    except ZeroDivisionError:  # e.g. at a closed form whose last pivot is exactly 0
        root = None
    return _bisect_largest(b2, k) if root is None else root


def _confirm_cell(b2: list[float], k: int, x: float) -> float | None:
    # The midpoint of x's cell or of the cell below it (x may sit a rounding
    # error above its root's cell), whichever the Sturm counts confirm, or
    # None: two counts, at x's lower edge and at the edge above or below it
    if not 0.0 < x < 1.0:
        return None
    edge = math.floor(math.ldexp(x, _CELL_BITS))
    if _count_below(b2, math.ldexp(edge, -_CELL_BITS)) < k:
        hit = _count_below(b2, math.ldexp(edge + 1, -_CELL_BITS)) >= k
    else:
        edge -= 1
        hit = _count_below(b2, math.ldexp(edge, -_CELL_BITS)) < k
    return math.ldexp(2 * edge + 1, -_CELL_BITS - 1) if hit else None


def _polish_lanes(b2: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    # the scalar Newton loop, run on every lane until the last one stops,
    # each lane's iterate frozen after its own last step; it keeps a fixed
    # 1e-8 stop, since no kl or cz lane to n = 800 bisects with it and
    # _root_near's rule adds Newton passes (127 to 130 over 4..800 step 4)
    if k <= 4:
        return x
    live = np.ones(x.size, dtype=bool)
    u, r = np.empty((k, x.size)), np.empty((k - 1, x.size))
    for _ in range(_NEWTON_STEPS):
        step = _newton_lanes(b2, x, u, r)
        np.subtract(x, step, out=x, where=live)
        live &= ~(np.abs(step) < 1e-8)
        if not live.any():
            break
    return x


def _confirm_cells(b2: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    # the confirmed root per lane, NaN outside a window of three cells: one
    # Sturm pass counts at edges e - 2 .. e + 1, e the lower edge of the
    # iterate's cell, and the root's cell is the one whose lower edge counts
    # < k and whose upper edge >= k (in the kl and cz scans to n = 800 it
    # lies 0, 1 or 2 cells below the iterate's, never above)
    roots = np.full(x.size, np.nan)
    live = np.flatnonzero((0.0 < x) & (x < 1.0))
    low = np.floor(np.ldexp(x[live], _CELL_BITS)) - 2.0
    sigma = np.ldexp(low + [[0.0], [1.0], [2.0], [3.0]], -_CELL_BITS)
    reach = _count_below_lanes(b2 if live.size == x.size else b2[:, live], sigma) >= k
    hit = reach[1:] & ~reach[:-1]
    found = hit.any(axis=0)
    cell = low + hit.argmax(axis=0)
    roots[live[found]] = np.ldexp(2.0 * cell[found] + 1.0, -_CELL_BITS - 1)
    return roots


def _bisect_largest(b2: list[float], k: int) -> float:
    # the root's definition: the midpoint of [0, 1] after _CELL_BITS Sturm halvings
    lo, hi = 0.0, 1.0
    for _ in range(_CELL_BITS):
        mid = 0.5 * (lo + hi)
        if _count_below(b2, mid) >= k:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
