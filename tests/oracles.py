"""Independent reference computations for the test suite.

Everything here is deliberately written from scratch against the model
definitions (scalar math, adaptive quadrature, brute force scans) and must
stay independent of the library's evaluation paths.
"""

import math

import numpy as np
from scipy.integrate import quad

from lidarfog.optics import MAX_RANGE


def soft_integrand_scalar(t, r, alpha, tau_h, r1, r2, c):
    """Literal composition of the soft-return integrand at one instant."""
    x = r - c * t / 2.0
    if x <= r1:
        return 0.0
    xi = 1.0 if x >= r2 else (x - r1) / (r2 - r1)
    pulse = math.sin(math.pi * t / (2.0 * tau_h)) ** 2
    return pulse * math.exp(-2.0 * alpha * x) / (x * x) * xi


def soft_integral_quad(r, alpha, tau_h=20e-9, r1=0.9, r2=1.0, c=299_792_458.0,
                       hard_range=None):
    """Adaptive-quadrature value of the soft-return integral (1e-10 absolute).

    Integration is restricted to the integrand support with breakpoints at
    the crossover kink so the quadrature converges far beyond the nominal
    tolerance.
    """
    x_hi = r if hard_range is None else min(r, hard_range)
    t_lo = 2.0 * (r - x_hi) / c
    t_hi = min(2.0 * tau_h, 2.0 * (r - r1) / c)
    if t_hi <= t_lo:
        return 0.0
    t_kink = 2.0 * (r - r2) / c
    points = [t_kink] if t_lo < t_kink < t_hi else None
    val, _ = quad(
        soft_integrand_scalar, t_lo, t_hi, args=(r, alpha, tau_h, r1, r2, c),
        epsabs=1e-10, epsrel=1e-12, points=points, limit=400,
    )
    return val


def naive_running_max(values, k_max):
    """Left-to-right strict-maximum scan over the first k_max grid entries.

    Returns (max, argmax_range) with the same tie-breaking as a literal
    per-point loop: first occurrence wins, empty scan gives (0.0, 0.0).
    """
    best = 0.0
    best_r = 0.0
    for k in range(1, k_max + 1):
        v = values[k - 1]
        if v > best:
            best = v
            best_r = k * 0.1
    return best, best_r


_SOFT_GRID = {}  # alpha -> oracle soft integrals at r_k = k * 0.1, k = 1, 2, ...


def soft_grid_quad(alpha, n):
    """Oracle soft-return integrals on the first n points of the 10 cm grid."""
    values = _SOFT_GRID.setdefault(alpha, [])
    while len(values) < n:
        values.append(soft_integral_quad((len(values) + 1) * 0.1, alpha))
    return values[:n]


def _soft_over_hard(r0, alpha, i_max):
    # soft peak (ca_p0 * beta * i_max) over hard peak (i * exp(-2 alpha r0))
    # with ca_p0 = i * r0^2 / beta_0: the intensity i cancels
    beta = 0.046 * alpha / 3.0  # 0.046 / MOR, MOR = 3 / alpha
    beta_0 = 1e-6 / math.pi
    soft = beta / beta_0 * r0 * r0 * i_max
    hard = math.exp(-2.0 * alpha * r0)
    return soft / hard


def soft_hard_ratio(r0, alpha):
    """Peak fog return over attenuated solid return for a target at r0.

    The fog peak is the strict running maximum of the quadrature soft
    integral over the grid points k * 0.1 at or below r0 (the 1e-9 slack
    keeps r0 = 30.0 at k = 300 despite float rounding).  Above 1 the fog
    return wins.
    """
    k_max = math.floor(r0 / 0.1 + 1e-9)
    i_max, _ = naive_running_max(soft_grid_quad(alpha, k_max), k_max)
    return _soft_over_hard(r0, alpha, i_max)


def overshadow_range(alpha, n=2000):
    """First grid range k * 0.1 (k <= n) where the fog return wins, or None.

    One left-to-right strict running-max scan: the same ratio as
    `soft_hard_ratio` at every grid point without rescanning the prefix.
    """
    best = 0.0
    for k, v in enumerate(soft_grid_quad(alpha, n), start=1):
        if v > best:
            best = v
        if _soft_over_hard(k * 0.1, alpha, best) > 1.0:
            return k * 0.1
    return None


def brute_force_match_mask(strongest_xyz, last_xyz, tol):
    """For each strongest point: any last point within tol, pair by pair.

    The rule is the program's: dx*dx + dy*dy + dz*dz <= tol*tol in float64,
    summed in that order.  Comparing a square root with tol instead disagrees
    with it on points a few ulp from distance tol.  A point with a non-finite
    coordinate matches nothing.
    """
    tol2 = tol * tol
    last_xyz = last_xyz[np.all(np.isfinite(last_xyz), axis=1)]
    mask = np.zeros(len(strongest_xyz), dtype=bool)
    for i, p in enumerate(strongest_xyz):
        if not np.all(np.isfinite(p)):
            continue
        d = last_xyz - p
        mask[i] = bool(np.any(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= tol2))
    return mask


def dense_transform_reference(x, y, z, inten, draws, fog, table):
    """Column-wise per-point transform that draws and relocates every point.

    The dense form of `foggify._transform_block`, the bit-for-bit reference
    for its sparse one: contiguous x, y, z columns, one noise draw per point,
    three whole-block `np.where` relocations, and the table read through a
    masked snap-down lookup.  Returns (x, y, z, intensity, soft, skipped).
    """
    r0 = np.sqrt(x * x + y * y + z * z)
    valid = (r0 > 0.0) & (r0 <= MAX_RANGE) & (inten >= 0.0) & (inten < np.inf)
    r0s = np.where(valid, r0, 1.0)
    inten_s = np.where(valid, inten, 0.0)

    k = np.minimum(np.floor(r0s / table.grid_step).astype(np.int64), table.n_entries)
    on_grid = k >= 1
    ki = np.where(on_grid, k - 1, 0)
    i_tmp = np.where(on_grid, table.prefix_max[ki], 0.0)
    r_tmp = np.where(on_grid, table.prefix_argmax[ki], 0.0)

    i_hard = inten_s * np.exp(-2.0 * fog.alpha * r0s)
    i_soft = (inten_s * r0s * r0s / fog.beta_0) * fog.beta * i_tmp
    soft = valid & (i_soft > i_hard)

    new_range = np.exp2(2.0 * draws - 1.0) * r_tmp
    x_out = np.where(soft, (np.where(soft, x, 0.0) / r0s) * new_range, x)
    y_out = np.where(soft, (np.where(soft, y, 0.0) / r0s) * new_range, y)
    z_out = np.where(soft, (np.where(soft, z, 0.0) / r0s) * new_range, z)
    i_out = np.where(soft, i_soft, np.where(valid, i_hard, inten))
    return x_out, y_out, z_out, i_out, soft, ~valid
