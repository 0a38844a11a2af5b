"""Per-point fog transformation of whole LiDAR point clouds.

For each point the clear-weather measurement is inverted to the pulse
energy, then the attenuated solid return competes with the strongest
distributed fog return along the same line of sight.  Whichever peak is
larger wins: either the point keeps its position with attenuated intensity,
or it is pulled to the fog-return range (jittered by a bounded noise factor
so relocated points do not collapse onto a perfect circle).

Noise draws are counter-based on (seed, point index) and the cloud is
processed in fixed-size blocks, so results are bit-identical across reruns,
worker counts and block sizes.  A point's draw is keyed by its row index,
so reordering the points changes which draw each relocated point gets.
"""

import math
import numbers
import os
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .optics import (
    DEFAULT_BETA_0,
    MAX_RANGE,
    FogParams,
    SensorModel,
    hard_peak_intensity,
)
from .rng import uniform01
from .tables import SoftResponseTable, _lookup, build_table, query_soft_max

# training-style attenuation schedule: clear air through dense fog (MOR 50 m)
DEFAULT_ALPHA_SCHEDULE = (0.0, 0.005, 0.01, 0.02, 0.03, 0.06)

# alpha * MOR: optical attenuation versus meteorological optical range for
# fog droplets in the NIR band (alpha = 0.06/m <-> MOR = 50 m).
MOR_ALPHA_PRODUCT = 3.0
# backscattering coefficient scale: beta = 0.046 / MOR
BETA_MOR_SCALE = 0.046

# fixed block decomposition keeps results worker-invariant; read at call time.
# A block's buffers take about 1.6 MB per thread.  On a 0.93M-point cloud at
# 2 threads, 16384-row blocks ran ~20% slower and 65536-row ones ~15% faster
# with twice the buffers
_BLOCK_SIZE = 1 << 15
# default threads: blocks // 4, at most the CPU count; on KITTI-like scans (alpha
# 0.06, 2 vCPUs) 2 threads beat 1 in 259/402 paired calls at 8 blocks, 181/402 at 6
_BLOCKS_PER_THREAD = 4

# the largest finite output intensity after rescaling: the full 8-bit range
INTENSITY_SCALE = 255.0


class Provenance(IntEnum):
    HARD_KEPT = 0
    SOFT_REPLACED = 1


class PointCloud:
    """Column store of points: xyz (n, 3) and intensity (n,) float64.

    Float64 arrays are kept as given, strided views included (a PLY read's
    columns are views of one row array); other input is converted, float32
    too.  A cloud read from a binary file is record-backed instead
    (`_empty_records`): `records` holds the file's (n, N) float32 records,
    extra columns included, `xyz` is the float32 view of their first three
    columns and `intensity` a float64 column; `write_cloud` narrows the
    intensity into column 3 and writes the records whole.  Other clouds
    have `records` None.
    """

    def __init__(self, xyz, intensity):
        xyz = np.asarray(xyz, dtype=np.float64)
        intensity = np.asarray(intensity, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must have shape (n, 3), got {xyz.shape}")
        if intensity.shape != (xyz.shape[0],):
            raise ValueError(
                f"intensity shape {intensity.shape} does not match {xyz.shape[0]} points"
            )
        self.xyz = xyz
        self.intensity = intensity
        self.records = None

    @classmethod
    def _empty_records(cls, n: int, columns: int) -> "PointCloud":
        """An unfilled record-backed cloud of n records of `columns` float32
        values.  The float64 intensity and the records share one buffer, the
        intensity first so that both are aligned: one allocation per cloud,
        24 n bytes at four columns."""
        buf = np.empty(8 * n + 4 * columns * n, dtype=np.uint8)
        cloud = cls.__new__(cls)
        cloud.intensity = buf[:8 * n].view(np.float64)
        cloud.records = buf[8 * n:].view("<f4").reshape(n, columns)
        cloud.xyz = cloud.records[:, :3]
        return cloud

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclass(frozen=True)
class CloudStats:
    """What one `foggify_cloud` call reports; `simulate --stats` writes these fields."""

    n_points: int
    n_soft_replaced: int
    n_skipped: int
    fraction_replaced: float
    rescale_factor: float


@dataclass(frozen=True)
class FoggifyOutcome:
    cloud: PointCloud
    provenance: np.ndarray  # uint8, Provenance values, one per point
    stats: CloudStats


def alpha_to_mor(alpha: float) -> float:
    """Meteorological optical range for an attenuation coefficient (inf at 0)."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha == math.inf:
        raise ValueError("alpha must be finite, got inf")
    return math.inf if alpha == 0 else MOR_ALPHA_PRODUCT / alpha


def mor_to_alpha(mor: float) -> float:
    """Attenuation coefficient for a meteorological optical range."""
    if not mor > 0:
        raise ValueError(f"mor must be positive, got {mor}")
    alpha = 0.0 if np.isinf(mor) else MOR_ALPHA_PRODUCT / mor
    if not math.isfinite(alpha):  # a MOR below 3 / DBL_MAX, about 1.7e-308
        raise ValueError(f"mor {mor} is too small: its alpha is not finite")
    return alpha


def mor_to_beta(mor: float) -> float:
    """Backscattering coefficient 0.046 / MOR."""
    if not mor > 0:
        raise ValueError(f"mor must be positive, got {mor}")
    return BETA_MOR_SCALE / mor


def fog_from_alpha(alpha: float, beta: Optional[float] = None,
                   beta_0: float = DEFAULT_BETA_0) -> FogParams:
    """FogParams with (unless given) beta derived from alpha through its MOR."""
    mor = alpha_to_mor(alpha)
    if beta is None:
        beta = mor_to_beta(mor) if alpha > 0 else 0.0
    return FogParams(alpha=alpha, beta=beta, beta_0=beta_0)


def fog_from_mor(mor: float, beta: Optional[float] = None,
                 beta_0: float = DEFAULT_BETA_0) -> FogParams:
    """FogParams with alpha and (unless given) beta derived from MOR."""
    alpha = mor_to_alpha(mor)
    if beta is None:
        beta = mor_to_beta(mor)
    return FogParams(alpha=alpha, beta=beta, beta_0=beta_0)


def sample_alpha(schedule: Sequence[float], draw: float) -> float:
    """Pick schedule[floor(draw * len)] — uniform over the schedule for uniform draws."""
    if len(schedule) == 0:
        raise ValueError("alpha schedule is empty")
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw must lie in [0, 1), got {draw}")
    return schedule[min(int(draw * len(schedule)), len(schedule) - 1)]


def _transform_block(xyz, inten, soft, seed: int, lo: int,
                     fog: FogParams, table: SoftResponseTable):
    """Vectorized per-point transform of one block; the single source of truth.

    `xyz` (m, 3) float64, or the float32 xyz of a block of records, and
    `inten` (m,) float64 are the block's rows, transformed in place: each is
    read before it is written (the overflow check reads `inten` before the
    new intensities are stored, and the relocated rows are gathered into a
    copy).  The arithmetic is float64 for either dtype; float32 xyz receives
    each relocated coordinate rounded once, as a write of float64 xyz
    rounds it.  `soft` (m,) bool receives the relocated mask.  The block
    starts at cloud row `lo`; only its relocated rows k are drawn, with
    `uniform01(seed, lo + k)`, and the other rows keep their coordinates'
    bytes without any arithmetic.  Skipped points (zero/overlong range,
    non-finite coordinates, negative or non-finite intensity) pass through
    unchanged; the return value counts them.  A fog return that overflows
    raises ValueError naming the point, or beta and beta_0 if it overflows
    at unit intensity.  The table is read with `tables._lookup`, the lookup
    of `query_soft_max`, and the hard peak comes
    from `hard_peak_intensity`.

    The arithmetic runs in place on a few block-sized buffers, with the
    operations, operands and order of the plain expressions in the comments,
    so the bits are theirs.  The steps are ordered so that at most four
    float64 block arrays are live at once: the range, then the table's
    i_tmp (computed in the buffer that held the grid index), then the
    sanitized intensity and the hard peak, each evaluated in one buffer.
    They are freed before the relocated rows are gathered, and only those
    rows get their table range r_tmp.  The relocation holds at most five
    arrays of relocated rows, so below the lookup unless more than four in
    five rows move (traced, a 32768-row block peaked at 1.08 MB with none
    and 1.31 MB with every row relocated).  In place is faster: plain peak
    comparisons took 5.70 against 5.29 ms on a 118,876-point scan (2 vCPUs)
    at about the same peak, and plain relocation of a 120k-point cloud went
    past `TestCloudPeakMemory`'s two-thread bound.
    """
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    # r0s = sqrt(x * x + y * y + z * z), in float64 from either dtype: square
    # is x * x, and on a 32768-row block it took 0.6 times the time of
    # multiply(x, x) on float64 columns and of multiply(x, x, dtype=float64)
    # on float32 ones.  A float32 signaling NaN raises `invalid` as it widens
    with np.errstate(invalid="ignore"):
        r0s = np.square(x, dtype=np.float64)
        r0s += np.square(y, dtype=np.float64)
        r0s += np.square(z, dtype=np.float64)
    np.sqrt(r0s, out=r0s)
    # the comparisons are False for NaN, so they also reject non-finite values
    valid = np.greater(r0s, 0.0)
    valid &= r0s <= MAX_RANGE
    valid &= inten >= 0.0
    valid &= inten < np.inf
    # sanitized rows keep the dead lanes free of stray inf/nan arithmetic:
    # r0s = where(valid, r0, 1.0) and inten_s = where(valid, inten, 0.0), so
    # there i_soft = i_hard = 0 (finite beta and table, beta_0 > 0): not soft
    np.copyto(r0s, 1.0, where=~valid)
    i_tmp = _lookup(table.prefix_max, r0s)
    inten_s = np.where(valid, inten, 0.0)
    i_hard = hard_peak_intensity(inten_s, r0s, fog.alpha)
    # inten_s becomes i_soft = (inten_s * r0s * r0s / beta_0) * beta * i_tmp
    with np.errstate(over="ignore", invalid="ignore"):
        inten_s *= r0s
        inten_s *= r0s
        inten_s /= fog.beta_0
        inten_s *= fog.beta
        inten_s *= i_tmp
    del i_tmp
    np.greater(inten_s, i_hard, out=soft)
    # an overflowed i_soft is inf, which beats the finite i_hard, so the
    # relocated rows hold every overflow (inf * 0 is NaN and never wins)
    overflow = np.flatnonzero(soft & ~np.isfinite(inten_s))
    if overflow.size:
        j = int(overflow[0])  # the first overflowing row
        r0 = float(r0s[j])
        i_tmp = query_soft_max(table, r0)[0]  # the block's i_tmp is freed: re-read
        if math.isfinite(r0 * r0 / fog.beta_0 * fog.beta * i_tmp):  # unit intensity
            raise ValueError(f"point {lo + j} (intensity {float(inten[j])!r}, range {r0!r} m) "
                             "has a fog return that overflows")
        raise ValueError(f"the fog return overflows: beta={fog.beta} and "
                         f"beta_0={fog.beta_0} give a non-finite intensity")
    np.copyto(inten, i_hard, where=valid)
    np.copyto(inten, inten_s, where=soft)
    n_skipped = valid.size - int(np.count_nonzero(valid))
    # from here on only the relocated rows are read: free the block buffers,
    # then gather the relocated ranges and look up their table ranges
    del inten_s, i_hard, valid
    k = np.flatnonzero(soft)
    r0s = r0s[k]
    r_tmp = _lookup(table.prefix_argmax, r0s)

    # noise factor 2^p with p uniform in [-1, 1); the new range n * r_tmp is
    # applied along the unit direction so a median draw lands exactly on the
    # table argmax range.  `uniform01` is looked up as a module global at each
    # call, so a wrapper of `lidarfog.foggify.uniform01` (perfbench/spans.py,
    # tests that monkeypatch it) sees every draw
    # new_range = exp2(2.0 * uniform01(seed, lo + k) - 1.0) * r_tmp, in place;
    # k holds the cloud rows lo + k during the call, so no copy of it is made
    k += lo
    new_range = uniform01(seed, k)
    k -= lo
    new_range *= 2.0
    new_range -= 1.0
    np.exp2(new_range, out=new_range)
    new_range *= r_tmp
    del r_tmp
    # xyz[k] = (xyz[k] / r0s[:, None]) * new_range[:, None], a column at a
    # time in float64, stored with one rounding into float32 xyz: the
    # broadcast form stages a 64 KB buffer, and gathering whole (k, 3) rows
    # held two more relocated-row arrays and took twice as long
    for j in range(3):
        col = xyz[k, j].astype(np.float64, copy=False)
        col /= r0s
        col *= new_range
        xyz[k, j] = col
    return n_skipped


def _map_threads(fn, items, workers: int) -> list:
    """`[fn(item) for item in items]`, on `workers` threads when there are at
    least two workers and two items.  `concurrent.futures` pulls in logging,
    so it is imported only where threads start."""
    if workers < 2 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _check_table(table: SoftResponseTable, fog: FogParams, sensor: SensorModel):
    if table.alpha != fog.alpha:
        raise ValueError(
            f"table was built for alpha={table.alpha}, fog has alpha={fog.alpha}"
        )
    if table.sensor != sensor:
        raise ValueError(f"table was built for another sensor: {table.sensor}, not {sensor}")


def foggify_cloud(
    cloud: PointCloud,
    fog: FogParams,
    sensor: SensorModel,
    seed: int = 0,
    rescale: bool = True,
    table: Optional[SoftResponseTable] = None,
    workers: Optional[int] = None,
    in_place: bool = False,
) -> FoggifyOutcome:
    """Apply the per-point transform to a whole cloud.

    Each relocated point gets a deterministic noise draw keyed by (seed, its
    index); points that stay are not drawn.  `workers` threads share the fixed
    blocks; it must be an integer of at least 1, and by default is one per
    `_BLOCKS_PER_THREAD` blocks, at most the CPU count (under 2: no threads).
    With `rescale`, intensities are scaled by one per-cloud linear factor so
    the maximum reaches `INTENSITY_SCALE` (mimicking a sensor gain
    stage that always fills the value range); ratios between points are
    preserved.  The rescale maximum is taken over finite values only.  The
    stats count the points, relocated points and skipped points, and state
    the rescale factor applied.  Output is bit-identical for identical
    (cloud, fog, sensor, seed) regardless of `workers`.

    By default the cloud's arrays are only read, so they may be read-only:
    the output xyz and intensity, or records and intensity for a
    record-backed cloud, are allocated once and each block copies its own
    rows into them before transforming them.  With `in_place`, each
    block transforms its rows in the cloud's own arrays, which must be
    writable (ValueError before any row is written), and the outcome's cloud
    is `cloud` itself; after an overflow error it holds a partial result.
    The uint8 provenance is allocated once and the rescale runs in place.
    Besides the cloud, the output (unless `in_place`) and the provenance, a
    call holds only each thread's block buffers.
    """
    if workers is not None and not (isinstance(workers, numbers.Integral) and workers >= 1):
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot foggify an empty point cloud")
    if table is None:
        table = build_table(fog, sensor)
    _check_table(table, fog, sensor)

    if in_place:
        if not (cloud.xyz.flags.writeable and cloud.intensity.flags.writeable):
            raise ValueError("in_place needs a cloud with writable arrays")
        out = cloud
    elif cloud.records is not None:
        out = PointCloud._empty_records(n, cloud.records.shape[1])
    else:
        out = PointCloud(np.empty((n, 3), dtype=np.float64), np.empty(n, dtype=np.float64))
    # the rows each block copies: whole records, extra columns included, or xyz
    rows_in, rows_out = ((cloud.xyz, out.xyz) if cloud.records is None
                         else (cloud.records, out.records))
    # provenance is written through a bool view of its bytes
    provenance = np.empty(n, dtype=np.uint8)
    soft = provenance.view(np.bool_)

    def run_block(lo: int) -> int:
        hi = lo + _BLOCK_SIZE  # the slices stop at n
        xyz, inten = out.xyz[lo:hi], out.intensity[lo:hi]
        if not in_place:
            np.copyto(rows_out[lo:hi], rows_in[lo:hi])
            np.copyto(inten, cloud.intensity[lo:hi])
        return _transform_block(xyz, inten, soft[lo:hi], seed, lo, fog, table)

    starts = range(0, n, _BLOCK_SIZE)
    if workers is None:
        workers = min(len(starts) // _BLOCKS_PER_THREAD, os.cpu_count() or 1)
    n_skipped = sum(_map_threads(run_block, starts, workers))

    rescale_factor = 1.0
    inten = out.intensity
    max_out = float(inten.max())
    if not math.isfinite(max_out):  # NaN or inf passed through by skipped points
        max_out = float(inten[np.isfinite(inten)].max(initial=0.0))
    factor = INTENSITY_SCALE / max_out if max_out > 0.0 else math.inf
    # a largest intensity below INTENSITY_SCALE / DBL_MAX (~1.4e-306)
    # gives no finite factor; such a cloud is left unscaled, so the stats
    # always state the factor applied
    if rescale and math.isfinite(factor):
        # (inten / max_out) * INTENSITY_SCALE, in place
        inten /= max_out
        inten *= INTENSITY_SCALE
        rescale_factor = factor

    n_soft = int(np.count_nonzero(provenance))
    stats = CloudStats(n, n_soft, n_skipped, n_soft / n, rescale_factor)
    return FoggifyOutcome(cloud=out, provenance=provenance, stats=stats)
