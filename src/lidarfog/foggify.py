"""Per-point fog transformation of whole LiDAR point clouds.

For each point the clear-weather measurement is inverted to the pulse
energy, then the attenuated solid return competes with the strongest
distributed fog return along the same line of sight.  Whichever peak is
larger wins: either the point keeps its position with attenuated intensity,
or it is pulled to the fog-return range (jittered by a bounded noise factor
so relocated points do not collapse onto a perfect circle).

Noise draws are counter-based on (seed, point index) and the cloud is
processed in fixed-size blocks, so results are bit-identical regardless of
worker count or point order.
"""

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .optics import (
    BETA_MOR_SCALE,
    MOR_ALPHA_PRODUCT,
    DEFAULT_BETA_0,
    MAX_RANGE,
    FogParams,
    SensorModel,
    hard_peak_intensity,
)
from .rng import uniform01
from .tables import SoftResponseTable, _soft_max_at, build_table, sensor_fingerprint

# training-style attenuation schedule: clear air through dense fog (MOR 50 m)
DEFAULT_ALPHA_SCHEDULE = (0.0, 0.005, 0.01, 0.02, 0.03, 0.06)

# fixed block decomposition keeps results worker-invariant; read at call time
_BLOCK_SIZE = 1 << 16


class Provenance(IntEnum):
    HARD_KEPT = 0
    SOFT_REPLACED = 1


@dataclass(frozen=True)
class Point:
    """One return: sensor-centered position [m] and intensity reading."""

    x: float
    y: float
    z: float
    intensity: float


class PointCloud:
    """Column store of points: xyz (n, 3) float64 and intensity (n,) float64.

    `intensity_scale` declares the intensity value range of the source data
    (255 for 8-bit sensors, 1.0 for normalized files); it is the target of
    intensity rescaling and is carried through transformations unchanged.
    """

    def __init__(self, xyz, intensity, intensity_scale: float = 255.0):
        xyz = np.ascontiguousarray(xyz, dtype=np.float64)
        intensity = np.ascontiguousarray(intensity, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must have shape (n, 3), got {xyz.shape}")
        if intensity.shape != (xyz.shape[0],):
            raise ValueError(
                f"intensity shape {intensity.shape} does not match {xyz.shape[0]} points"
            )
        if not intensity_scale > 0:
            raise ValueError(f"intensity_scale must be positive, got {intensity_scale}")
        self.xyz = xyz
        self.intensity = intensity
        self.intensity_scale = float(intensity_scale)

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def point(self, i: int) -> Point:
        return Point(self.xyz[i, 0], self.xyz[i, 1], self.xyz[i, 2], self.intensity[i])

    @classmethod
    def from_points(cls, points: Sequence[Point],
                    intensity_scale: float = 255.0) -> "PointCloud":
        xyz = np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64).reshape(-1, 3)
        inten = np.array([p.intensity for p in points], dtype=np.float64)
        return cls(xyz, inten, intensity_scale)


@dataclass(frozen=True)
class CloudStats:
    n_points: int
    n_soft_replaced: int
    n_skipped: int
    fraction_replaced: float
    intensity_in_min: float
    intensity_in_max: float
    intensity_in_mean: float
    intensity_out_min: float
    intensity_out_max: float
    intensity_out_mean: float
    rescale_factor: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FoggifyOutcome:
    cloud: PointCloud
    provenance: np.ndarray  # uint8, Provenance values, one per point
    stats: CloudStats


def alpha_to_mor(alpha: float) -> float:
    """Meteorological optical range for an attenuation coefficient (inf at 0)."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return float("inf") if alpha == 0 else MOR_ALPHA_PRODUCT / alpha


def mor_to_alpha(mor: float) -> float:
    """Attenuation coefficient for a meteorological optical range."""
    if not mor > 0:
        raise ValueError(f"mor must be positive, got {mor}")
    return 0.0 if np.isinf(mor) else MOR_ALPHA_PRODUCT / mor


def mor_to_beta(mor: float) -> float:
    """Backscattering coefficient 0.046 / MOR."""
    if not mor > 0:
        raise ValueError(f"mor must be positive, got {mor}")
    return BETA_MOR_SCALE / mor


def fog_from_alpha(alpha: float, beta: Optional[float] = None,
                   beta_0: float = DEFAULT_BETA_0) -> FogParams:
    """FogParams with MOR and (unless given) beta derived from alpha."""
    mor = alpha_to_mor(alpha)
    if beta is None:
        beta = mor_to_beta(mor) if alpha > 0 else 0.0
    return FogParams(alpha=alpha, beta=beta, beta_0=beta_0, mor=mor)


def fog_from_mor(mor: float, beta: Optional[float] = None,
                 beta_0: float = DEFAULT_BETA_0) -> FogParams:
    """FogParams with alpha and (unless given) beta derived from MOR."""
    alpha = mor_to_alpha(mor)
    if beta is None:
        beta = mor_to_beta(mor)
    return FogParams(alpha=alpha, beta=beta, beta_0=beta_0, mor=mor)


def sample_alpha(schedule: Sequence[float], draw: float) -> float:
    """Pick schedule[floor(draw * len)] — uniform over the schedule for uniform draws."""
    if len(schedule) == 0:
        raise ValueError("alpha schedule is empty")
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw must lie in [0, 1), got {draw}")
    return schedule[min(int(draw * len(schedule)), len(schedule) - 1)]


def _transform_block(xyz, inten, draw, fog: FogParams, table: SoftResponseTable,
                     soft, skipped):
    """Vectorized per-point transform of one block; the single source of truth.

    `xyz` (m, 3) and `inten` (m,) are the block's rows, rewritten in place;
    `soft` and `skipped` (m,) bool receive the relocated and skipped masks.
    `draw(k)` returns the noise draws in [0, 1) for the block rows k, and is
    called once, with the relocated rows only; the other rows keep their
    coordinates without any arithmetic.  Skipped points (zero/overlong
    range, non-finite coordinates, negative or non-finite intensity) pass
    through unchanged.  The table is read with `_soft_max_at`, the lookup of
    `query_soft_max`.
    """
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    r0 = np.sqrt(x * x + y * y + z * z)
    # the comparisons are False for NaN, so they also reject non-finite values
    valid = (r0 > 0.0) & (r0 <= MAX_RANGE) & (inten >= 0.0) & (inten < np.inf)
    # sanitized copies keep the dead lanes free of stray inf/nan arithmetic
    r0s = np.where(valid, r0, 1.0)
    inten_s = np.where(valid, inten, 0.0)

    i_tmp, r_tmp = _soft_max_at(table, r0s)
    i_hard = hard_peak_intensity(inten_s, r0s, fog.alpha)
    i_soft = (inten_s * r0s * r0s / fog.beta_0) * fog.beta * i_tmp
    np.logical_and(valid, i_soft > i_hard, out=soft)
    np.logical_not(valid, out=skipped)

    # noise factor 2^p with p uniform in [-1, 1); the new range n * r_tmp is
    # applied along the unit direction so a median draw lands exactly on the
    # table argmax range
    k = np.flatnonzero(soft)
    new_range = np.exp2(2.0 * draw(k) - 1.0) * r_tmp[k]
    xyz[k] = (xyz[k] / r0s[k, None]) * new_range[:, None]
    np.copyto(inten, i_hard, where=valid)
    inten[k] = i_soft[k]


def _check_table(table: SoftResponseTable, fog: FogParams, sensor: SensorModel):
    if table.alpha != fog.alpha:
        raise ValueError(
            f"table was built for alpha={table.alpha}, fog has alpha={fog.alpha}"
        )
    if table.sensor_fingerprint != sensor_fingerprint(sensor):
        raise ValueError("table was built for another sensor (fingerprint mismatch)")


def _finite_stats(a: np.ndarray):
    """(min, max, mean) of the finite entries of `a` (NaN if none); no extra pass if clean."""
    with np.errstate(invalid="ignore"):  # inf + -inf in the mean; redone below
        stats = (float(a.min()), float(a.max()), float(a.mean()))
    if all(map(math.isfinite, stats)):
        return stats
    a = a[np.isfinite(a)]
    return (float(a.min()), float(a.max()), float(a.mean())) if a.size else (math.nan,) * 3


def foggify_point(p: Point, fog: FogParams, sensor: SensorModel,
                  table: SoftResponseTable, noise_draw: float):
    """Transform one point; returns (Point, Provenance).

    `noise_draw` in [0, 1) drives the range jitter of a relocated point.
    Degenerate inputs (zero range, non-finite values, negative intensity,
    range beyond MAX_RANGE) come back unchanged and tagged HARD_KEPT.
    """
    if not 0.0 <= noise_draw < 1.0:
        raise ValueError(f"noise_draw must lie in [0, 1), got {noise_draw}")
    _check_table(table, fog, sensor)
    xyz = np.array([[p.x, p.y, p.z]], dtype=np.float64)
    inten = np.array([p.intensity], dtype=np.float64)
    soft = np.empty(1, dtype=bool)
    _transform_block(xyz, inten, lambda k: np.full(k.size, noise_draw, dtype=np.float64),
                     fog, table, soft, np.empty(1, dtype=bool))
    tag = Provenance.SOFT_REPLACED if soft[0] else Provenance.HARD_KEPT
    return Point(*map(float, xyz[0]), float(inten[0])), tag


def foggify_cloud(
    cloud: PointCloud,
    fog: FogParams,
    sensor: SensorModel,
    seed: int = 0,
    rescale: bool = True,
    table: Optional[SoftResponseTable] = None,
    workers: Optional[int] = None,
) -> FoggifyOutcome:
    """Apply the per-point transform to a whole cloud.

    Each relocated point gets a deterministic noise draw keyed by (seed, its
    index); points that stay are not drawn.  `workers` threads (default: CPU
    count) share the fixed blocks; it must be an integer of at least 1.
    With `rescale`, intensities are scaled by one per-cloud linear factor so
    the maximum reaches `cloud.intensity_scale` (mimicking a sensor gain
    stage that always fills the value range); ratios between points are
    preserved.  The rescale maximum and the intensity stats are taken over
    finite values only.  Output is bit-identical for identical (cloud, fog,
    sensor, seed) regardless of `workers`.
    """
    if workers is not None and not (isinstance(workers, numbers.Integral) and workers >= 1):
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot foggify an empty point cloud")
    if table is None:
        table = build_table(fog, sensor)
    _check_table(table, fog, sensor)

    inten = cloud.intensity
    xyz = cloud.xyz.copy()
    io = inten.copy()
    soft = np.empty(n, dtype=bool)
    skipped = np.empty(n, dtype=bool)

    def run_block(lo: int, hi: int):
        # the module global is looked up per call, so wrappers of it see every draw
        _transform_block(xyz[lo:hi], io[lo:hi], lambda k: uniform01(seed, lo + k),
                         fog, table, soft[lo:hi], skipped[lo:hi])

    blocks = [(lo, min(lo + _BLOCK_SIZE, n)) for lo in range(0, n, _BLOCK_SIZE)]
    if workers is None:
        workers = min(len(blocks), os.cpu_count() or 1)
    if workers <= 1 or len(blocks) == 1:
        for lo, hi in blocks:
            run_block(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: run_block(*b), blocks))

    rescale_factor = 1.0
    max_out = float(io.max())
    if not math.isfinite(max_out):  # NaN or inf passed through by skipped points
        max_out = float(io[np.isfinite(io)].max(initial=0.0))
    factor = cloud.intensity_scale / max_out if max_out > 0.0 else math.inf
    # a largest intensity below intensity_scale / DBL_MAX (~1.4e-306 at 255)
    # gives no finite factor; such a cloud is left unscaled, so the stats
    # always state the factor applied
    if rescale and math.isfinite(factor):
        io = (io / max_out) * cloud.intensity_scale
        rescale_factor = factor

    n_soft = int(np.count_nonzero(soft))
    # fields in declaration order: counts, intensity in and out (min, max, mean), factor
    stats = CloudStats(n, n_soft, int(np.count_nonzero(skipped)), n_soft / n,
                       *_finite_stats(inten), *_finite_stats(io), rescale_factor)
    out = PointCloud(xyz, io, cloud.intensity_scale)
    provenance = soft.astype(np.uint8)
    return FoggifyOutcome(cloud=out, provenance=provenance, stats=stats)
