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
    """Tabulated soft-return integral on the range grid r_k = k * RANGE_STEP.

    values[k-1] holds the integral at r_k for k = 1..n; prefix_max and
    prefix_argmax hold the running maximum over r_1..r_k and the (first)
    range achieving it.  `alpha` and `sensor` are the fog attenuation and
    the sensor the table was built for.  Arrays are read-only; a built table
    is immutable and safe to share across any number of query workers.
    """

    alpha: float
    values: np.ndarray
    prefix_max: np.ndarray
    prefix_argmax: np.ndarray
    sensor: SensorModel

    @property
    def n_entries(self) -> int:
        return len(self.values)


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

    Returns one `SoftResponseTable` per fog, in order.  The values come from
    one batched quadrature pass over the grid (`optics._soft_integrals`):
    each block of ranges forms its nodes once and evaluates the integrand at
    every fog's alpha.  The values do not depend on the batch or on the
    other fogs, so each entry equals the scalar `soft_response_integral` at
    its range bit for bit and table lookups are bitwise identical to the
    naive per-point scan.
    """
    fogs = list(fogs)
    n = int(np.ceil(MAX_RANGE / RANGE_STEP))
    rows = optics._soft_integrals(np.arange(1, n + 1) * RANGE_STEP,
                                  [fog.alpha for fog in fogs], sensor)
    out = []
    for fog, values in zip(fogs, rows):
        pm, am = _prefix_max_argmax(values)
        for arr in (values, pm, am):
            arr.setflags(write=False)
        out.append(SoftResponseTable(
            alpha=fog.alpha,
            values=values,
            prefix_max=pm,
            prefix_argmax=am,
            sensor=sensor,
        ))
    return out


def build_table(fog: FogParams, sensor: SensorModel) -> SoftResponseTable:
    """`build_tables` for one fog."""
    return build_tables([fog], sensor)[0]


def _soft_max_at(table: SoftResponseTable, r0: np.ndarray):
    """(i_tmp, r_tmp) arrays: the prefix max and its range at positive ranges r0.

    The grid is snapped down: k = min(floor(r0 / RANGE_STEP), n_entries),
    with the division done in floating point, and k < 1 gives (0.0, 0.0),
    meaning "no soft contribution".  That k can be one less than the largest
    k with k * RANGE_STEP <= r0: r0 = 4.3 = 43 * 0.1 reads entry 42, as do 98
    of the 2000 grid ranges k * 0.1.  A decimal r0 also often reads the
    entry below its decimal index (0.3 / 0.1 is 2.9999999999999996): 697 of
    the literals 0.1, 0.2, ..., 200.0 do.  `naive_soft_max` snaps the same
    way, so the lookup equals the naive scan of the grid bit for bit.
    """
    k = np.minimum(np.floor(r0 / RANGE_STEP).astype(np.int64), table.n_entries)
    # entry 0 of each padded column is the (0.0, 0.0) of ranges below the grid
    return (np.concatenate(([0.0], table.prefix_max)).take(k),
            np.concatenate(([0.0], table.prefix_argmax)).take(k))


def query_soft_max(table: SoftResponseTable, r0: float):
    """Maximum soft return over the grid up to r0 and the range achieving it.

    Returns (i_tmp, r_tmp) as floats.  The grid is snapped down as in
    `_soft_max_at` (r0 = 4.3 reads entry 42), and below the first entry the
    result is (0.0, 0.0).  Equals the naive scan of the grid bit for bit.
    """
    if not r0 > 0.0:
        raise ValueError(f"query range must be positive, got {r0}")
    if r0 > MAX_RANGE:
        raise ValueError(f"query range {r0} beyond table extent {MAX_RANGE}")
    i_tmp, r_tmp = _soft_max_at(table, np.array([r0], dtype=np.float64))
    return float(i_tmp[0]), float(r_tmp[0])


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
