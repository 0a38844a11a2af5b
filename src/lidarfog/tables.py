"""Precomputed soft-return tables with O(1) per-point maximum queries.

The per-point algorithm scans the whole 10 cm range grid up to each point's
range and takes the running maximum of the soft-return integral.  The
integral does not depend on the point itself (only on alpha and the sensor),
so one table per (alpha, sensor) pair serves every point: tabulate the
integral once, in one batched quadrature pass, keep prefix-maximum and
prefix-argmax arrays, and each point query becomes a single indexed lookup
that matches the naive scan bit for bit.  `build_tables` builds all of a
sweep's tables in that one pass: the quadrature nodes do not depend on
alpha, so each block of ranges forms them once for every alpha.
"""

from dataclasses import dataclass

import numpy as np

from . import optics
from .optics import (
    MAX_RANGE,
    RANGE_STEP,
    FogParams,
    SensorModel,
    soft_response_integral,
)


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


def build_tables(fogs, sensor: SensorModel) -> list:
    """Tabulate the soft-return integral over (0, MAX_RANGE] at RANGE_STEP
    for each fog, in one pass.

    Returns one `SoftResponseTable` per fog, in order: the prefix columns
    of that fog's row of one batched quadrature pass over the grid
    (`optics._soft_integrals`), in which each block of ranges forms its
    nodes once and evaluates the integrand at every fog's alpha.  A row does
    not depend on the batch or on the other fogs, so each integral equals
    the scalar `soft_response_integral` at its range bit for bit and table
    lookups are bitwise identical to the naive per-point scan.
    """
    fogs = list(fogs)
    n = int(np.ceil(MAX_RANGE / RANGE_STEP))
    rows = optics._soft_integrals(np.arange(1, n + 1) * RANGE_STEP,
                                  [fog.alpha for fog in fogs], sensor)
    out = []
    for fog, values in zip(fogs, rows):
        pm, am = _prefix_max_argmax(values)
        for arr in (pm, am):
            arr.setflags(write=False)
        out.append(SoftResponseTable(
            alpha=fog.alpha,
            prefix_max=pm,
            prefix_argmax=am,
            sensor=sensor,
        ))
    return out


def build_table(fog: FogParams, sensor: SensorModel) -> SoftResponseTable:
    """`build_tables` for one fog."""
    return build_tables([fog], sensor)[0]


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
    column is read into the float64 buffer k was computed in, so a lookup
    holds r0, that buffer and the int64 k.
    """
    out = np.divide(r0, RANGE_STEP)
    np.floor(out, out=out)
    k = out.astype(np.int64)
    np.minimum(k, len(column), out=k)
    # entry 0 of the padded column is the 0.0 of ranges below the grid; k
    # lies in [0, len(column)], so "clip" moves no index, and unlike the
    # default "raise" it writes into `out` without a buffer
    return np.concatenate(([0.0], column)).take(k, out=out, mode="clip")


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
