"""Seeded synthetic KITTI-like scans for the benchmark.

A scan is one sweep of a spinning multi-ring sensor mounted 1.73 m above a
flat ground plane, inside a ring of vertical wall segments 5-120 m away.
Each ray returns its first hit (ground or wall); rays that hit nothing
within 120 m, and about 8% of the rest (dropouts), give no point.  Points
come out as little-endian float32 ``x y z intensity`` records, the KITTI
``.bin`` layout, with intensity a reflectance in [0, 1].

Everything here depends only on the seed it is given.
"""

import numpy as np

SENSOR_HEIGHT = 1.73  # [m]
ELEV_LO_DEG, ELEV_HI_DEG = -24.8, 2.0
MAX_RETURN_RANGE = 120.0  # [m]
DROPOUT = 0.08
KITTI_RINGS, KITTI_AZIMUTHS = 64, 2048  # ~120k points per scan
DENSE_RINGS, DENSE_AZIMUTHS = 128, 8192  # ~1M points per scan


def make_scan(seed: int, rings: int = KITTI_RINGS, azimuths: int = KITTI_AZIMUTHS) -> np.ndarray:
    """One scan as an (n, 4) float32 array of x, y, z, intensity."""
    rng = np.random.default_rng(seed)
    elev = np.deg2rad(np.linspace(ELEV_LO_DEG, ELEV_HI_DEG, rings))
    az = (np.arange(azimuths) + rng.uniform()) * (2.0 * np.pi / azimuths)

    # walls: random azimuth sectors, each with its own distance and height
    n_sect = int(rng.integers(24, 49))
    cuts = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_sect))
    sect = np.searchsorted(cuts, az) % n_sect
    wall_d = np.exp(rng.uniform(np.log(5.0), np.log(MAX_RETURN_RANGE), n_sect))[sect]
    wall_top = rng.uniform(1.0, 15.0, n_sect)[sect]
    wall_refl = rng.uniform(0.05, 0.9, n_sect)[sect]
    open_sect = rng.uniform(size=n_sect) < 0.15  # gaps with no wall
    wall_d = np.where(open_sect[sect], np.inf, wall_d)

    el = elev[:, None]
    tan_el = np.tan(el)
    cos_el = np.cos(el)
    # horizontal distance to the ground hit (downward rays only)
    ground_h = np.where(tan_el < 0.0, SENSOR_HEIGHT / np.maximum(-tan_el, 1e-12), np.inf)
    wall_z = wall_d[None, :] * tan_el  # height of the wall hit relative to the sensor
    wall_hit = (wall_z >= -SENSOR_HEIGHT) & (wall_z <= wall_top[None, :] - SENSOR_HEIGHT)
    wall_h = np.where(wall_hit, wall_d[None, :], np.inf)
    horiz = np.minimum(ground_h, wall_h)
    rng_m = horiz / cos_el
    on_wall = wall_h <= ground_h

    rng_m = rng_m * (1.0 + rng.normal(0.0, 2e-4, rng_m.shape)) + rng.normal(0.0, 0.01, rng_m.shape)
    keep = np.isfinite(rng_m) & (rng_m > 1.5) & (rng_m < MAX_RETURN_RANGE)
    keep &= rng.uniform(size=rng_m.shape) >= DROPOUT

    refl = np.where(on_wall, wall_refl[None, :], 0.25)
    refl = np.clip(refl + rng.normal(0.0, 0.05, rng_m.shape), 0.0, 1.0)

    cos_az, sin_az = np.cos(az)[None, :], np.sin(az)[None, :]
    x = rng_m * cos_el * cos_az
    y = rng_m * cos_el * sin_az
    z = rng_m * np.sin(el)
    rows = np.stack((x[keep], y[keep], z[keep], refl[keep]), axis=1)
    return rows.astype("<f4")


def write_bin(rows: np.ndarray, path) -> None:
    rows.astype("<f4").tofile(path)


def write_ply(rows: np.ndarray, path) -> None:
    """ASCII PLY in the layout lidarfog reads and writes (six decimals)."""
    rows = rows.astype("<f4")
    header = ("ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\n"
              "property float y\nproperty float z\nproperty float intensity\n"
              "end_header\n").format(n=len(rows))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        np.savetxt(fh, rows.astype(np.float64), fmt="%.6f")


def read_ply(path) -> np.ndarray:
    """Vertex rows of an ASCII PLY written by `write_ply` or lidarfog."""
    with open(path, "r", encoding="ascii") as fh:
        n = None
        for line in fh:
            line = line.strip()
            if line.startswith("element vertex "):
                n = int(line.split()[-1])
            if line == "end_header":
                break
        body = fh.read()
    rows = np.array(body.split(), dtype=np.float64).reshape(-1, 4)
    if n is None or len(rows) != n:
        raise ValueError(f"{path}: vertex count does not match its header")
    return rows
