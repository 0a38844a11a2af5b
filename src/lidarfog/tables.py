"""Precomputed soft-return tables with O(1) per-point maximum queries.

The per-point algorithm scans the whole 10 cm range grid up to each point's
range and takes the running maximum of the soft-return integral.  The
integral does not depend on the point itself (only on alpha and the sensor),
so one table per (alpha, sensor) pair serves every point: tabulate the
integral once, keep prefix-maximum and prefix-argmax arrays, and each point
query becomes a single indexed lookup that matches the naive scan bit for
bit.  A table stops where the integral stops rising (just past r2 + c*tau_h)
and a lookup beyond its end reads its last entry, which is the running
maximum of the whole grid.  A table and its fog also give the range below
which the fog relocates no point (`_overshadow_bound`), which lets the
per-point kernel skip the soft-return rule for most points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .optics import (
    MAX_RANGE,
    RANGE_STEP,
    FogParams,
    SensorModel,
    soft_response_integral,
    soft_response_integrals,
)

# A row whose intensity lies in this band and whose range lies below
# `_overshadow_bound` is attenuated without the soft-return rule
_INTENSITY_BAND = (2.0 ** -100, 2.0 ** 400)
# cells below the bound keep the soft/hard ratio under 1 - _RATIO_MARGIN,
# far more than the few ulps by which either peak is rounded
_RATIO_MARGIN = 1e-9
# grid cells 0..2000: the last one holds MAX_RANGE
_CELLS = round(MAX_RANGE / RANGE_STEP) + 1


@dataclass(frozen=True)
class SoftResponseTable:
    """Prefix columns of the soft-return integral on the grid r_k = k * RANGE_STEP.

    For k = 1..n, prefix_max[k-1] is the largest integral over r_1..r_k and
    prefix_argmax[k-1] the (first) range achieving it; the integrals equal
    one-range `soft_response_integral` evaluations bit for bit.  `alpha` and
    `sensor` are the fog and sensor the table was built for.  Arrays are
    read-only; a built table is immutable and safe to share across threads.
    """

    alpha: float
    prefix_max: np.ndarray
    prefix_argmax: np.ndarray
    sensor: SensorModel


def _prefix_max_argmax(values: np.ndarray):
    """Running maximum of nonnegative values and the range first achieving it.

    Reproduces a left-to-right strict-max scan starting from zero: ties keep
    the earliest range, and prefixes with no positive value yet report range
    0.0 ("no soft contribution").
    """
    pm = np.maximum.accumulate(values)
    prev = np.concatenate(([0.0], pm[:-1]))
    new_max = values > prev
    idx = np.where(new_max, np.arange(len(values), dtype=np.int64), np.int64(-1))
    idx = np.maximum.accumulate(idx)
    argmax_range = (idx + 1) * RANGE_STEP
    return pm, argmax_range


def build_table(fog: FogParams, sensor: SensorModel) -> SoftResponseTable:
    """Tabulate the soft-return integral at RANGE_STEP up to where it stops rising.

    The table holds the prefix columns of `soft_response_integrals` at r_k =
    k * RANGE_STEP for k = 1..n, n = ceil((r2 + c*tau_h) / RANGE_STEP) + 1,
    at most the MAX_RANGE / RANGE_STEP ranges of the whole grid.  Beyond
    r2 + c*tau_h every slab the pulse reaches lies past the crossover ramp,
    where exp(-2*alpha*x) / x^2 only falls, so no later entry of the grid
    would raise the running maximum and `_lookup` reads the last entry for
    them instead: lookups equal the naive per-point scan bit for bit.  The
    +1 covers a quotient that rounds below its ceiling.
    """
    reach = np.ceil((sensor.r2 + sensor.pulse_span) / RANGE_STEP) + 1
    n = int(min(reach, np.ceil(MAX_RANGE / RANGE_STEP)))
    pm, am = _prefix_max_argmax(
        soft_response_integrals(np.arange(1, n + 1) * RANGE_STEP, fog, sensor))
    for arr in (pm, am):
        arr.setflags(write=False)
    return SoftResponseTable(alpha=fog.alpha, prefix_max=pm, prefix_argmax=am, sensor=sensor)


def _lookup(column: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """A prefix column of a table (`prefix_max` or `prefix_argmax`) at
    positive ranges r0: i_tmp or r_tmp.

    The grid is snapped down: k = min(floor(r0 / RANGE_STEP), len(column)),
    with the division done in floating point, and k < 1 gives 0.0, meaning
    "no soft contribution".  That k can be one less than the largest k with
    k * RANGE_STEP <= r0: r0 = 4.3 = 43 * 0.1 reads entry 42, as do 98 of
    the 2000 grid ranges k * 0.1.  A decimal r0 also often reads the entry
    below its decimal index (0.3 / 0.1 is 2.9999999999999996): 697 of the
    literals 0.1, 0.2, ..., 200.0 do.  `naive_soft_max` snaps the same way,
    so the lookup equals the naive scan of the grid bit for bit.  The
    column is read into the float64 buffer the quotient was computed in, so
    a lookup holds r0, that buffer and the int64 k.
    """
    out = np.divide(r0, RANGE_STEP)
    # the quotient is positive, so the cast truncates as floor does
    k = out.astype(np.int64)
    # entry 0 of the padded column is the 0.0 of ranges below the grid, and
    # "clip" reads entry len(column) for any larger k; unlike the default
    # "raise" it writes into `out` without a buffer
    return np.concatenate(([0.0], column)).take(k, out=out, mode="clip")


def _cell_start(k: int) -> float:
    """The least range that `_lookup` snaps to entry k or later (k >= 1): the
    least float r with r / RANGE_STEP >= k."""
    r = k * RANGE_STEP
    while r / RANGE_STEP < k:
        r = math.nextafter(r, math.inf)
    while math.nextafter(r, 0.0) / RANGE_STEP >= k:
        r = math.nextafter(r, 0.0)
    return r


def _overshadow_bound(table: SoftResponseTable, fog: FogParams) -> float:
    """The range below which the soft-return rule relocates no row.

    `foggify._transform_block` attenuates a row with 0 < r0 < bound and an
    intensity in `_INTENSITY_BAND` as i * exp(-2 * alpha * r0) without
    the rule, and that is the rule's output for such a row, bit for bit.

    Cell k holds the ranges that `_lookup` snaps to entry k, from
    `_cell_start(k)` to `_cell_start(k + 1)`; from the table's end on, the
    cells read its last entry.  The soft over the hard peak,
    (beta / beta_0) * r0^2 * exp(2 * alpha * r0) * i_tmp, is free of the
    intensity and never falls as r0 grows, since i_tmp is a running maximum
    and float division and the cast to the grid index are monotone.  So its
    value at a cell's end, (k + 1) * RANGE_STEP read with `_lookup` (entry
    k, or k + 1 if the quotient rounds up), bounds it over the cell; that
    end lies within an ulp or two of the cell's, which moves the ratio by
    under 1e-12.  The bound is the start of the first cell whose value is
    not below 1 - `_RATIO_MARGIN` (NaN included), or the float after
    MAX_RANGE if no cell's is.  One vectorised pass over the grid's 2001
    cell ends.

    Why the bits hold.  Take a row below the bound with an intensity in the
    band, and say every intermediate of both peaks is a normal float.  The
    kernel's i_soft = (((i * r0) * r0) / beta_0) * beta * i_tmp is 5
    roundings from its exact value, and i_hard = i * exp(-2 * alpha * r0)
    is 3 roundings plus the few ulps of `exp` and the 2 * alpha * r0 * u
    that the rounded exponent adds.  Both are far below the 1e-9 margin, so
    `i_soft > i_hard` is false and the rule's output is i_hard.  Where
    beta * i_tmp is 0, i_soft is 0 or NaN, and it is not greater either.

    Returns 0.0, so that every row takes the rule, wherever beta, beta_0,
    alpha or the table could push an intermediate of either peak out of the
    normal range.  Rounding is monotone in each operand, so the rows'
    intermediates lie between those of two corner rows: the least intensity
    at the least range that reads a positive entry (and that entry), and the
    greatest intensity at the bound (and the last entry below it).  The hard
    peak is least at the least intensity and the bound.
    """
    ends = np.arange(1, _CELLS + 1) * RANGE_STEP
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (fog.beta / fog.beta_0 * ends * ends * np.exp(2.0 * fog.alpha * ends)
                 * _lookup(table.prefix_max, ends))
    reached = np.flatnonzero(~(ratio < 1.0 - _RATIO_MARGIN))
    if not reached.size:
        cells, bound = _CELLS, math.nextafter(MAX_RANGE, math.inf)
    elif reached[0] == 0:
        return 0.0
    else:
        cells = int(reached[0])
        bound = _cell_start(cells)

    with np.errstate(all="ignore"):
        e = np.exp(np.multiply(-2.0 * fog.alpha, [bound]))
        steps = [e, _INTENSITY_BAND[0] * e]
        # the entries the cells below the bound read
        entries = np.concatenate(([0.0], table.prefix_max))[:cells]
        positive = np.flatnonzero(entries)
        if fog.beta > 0.0 and positive.size:
            r0 = np.array([_cell_start(int(positive[0])), bound])
            m = np.multiply(_INTENSITY_BAND, r0)
            steps.append(m)
            m = m * r0
            steps.append(m)
            m = m / fog.beta_0
            steps.append(m)
            m = m * fog.beta
            steps.append(m)
            steps.append(m * entries[[positive[0], -1]])
    steps = np.concatenate(steps)
    tiny = np.finfo(np.float64).tiny
    return bound if np.all((steps >= tiny) & (steps <= np.finfo(np.float64).max)) else 0.0


def query_soft_max(table: SoftResponseTable, r0: float):
    """Maximum soft return over the grid up to r0 and the range achieving it.

    Returns (i_tmp, r_tmp) as floats.  The grid is snapped down as in
    `_lookup` (r0 = 4.3 reads entry 42), and below the first entry the
    result is (0.0, 0.0).  Equals the naive scan of the grid bit for bit.
    """
    if not r0 > 0.0:
        raise ValueError(f"query range must be positive, got {r0}")
    if r0 > MAX_RANGE:
        raise ValueError(f"query range {r0} beyond table extent {MAX_RANGE}")
    r0 = np.array([r0], dtype=np.float64)
    return (float(_lookup(table.prefix_max, r0)[0]),
            float(_lookup(table.prefix_argmax, r0)[0]))


def naive_soft_max(r0: float, fog: FogParams, sensor: SensorModel):
    """Reference per-point scan: recompute the integral grid up to r0.

    This is the unoptimized formulation (one full quadrature per grid range
    per point).  Kept as the documented slow path; `query_soft_max` against
    a prebuilt table returns identical bits at a tiny fraction of the cost.
    """
    best = 0.0
    best_r = 0.0
    for k in range(1, int(r0 / RANGE_STEP) + 1):
        r = k * RANGE_STEP
        v = soft_response_integral(r, fog, sensor)
        if v > best:
            best = v
            best_r = r
    return best, best_r
