"""Output checks.  They run outside the timed region.

Each check raises `CheckFailed` with a reason; the runner counts the
operation as failed.  The per-point rule checked here is the one the README
states: a kept point keeps its xyz and gets intensity ``i * exp(-2*alpha*r0)``
before the per-cloud rescale, and a relocated point sits on its own ray at a
range within ``(r_tmp / 2, 2 * r_tmp)``, with ``r_tmp`` from the reference
scan ``lidarfog.naive_soft_max``.
"""

import json
import zlib

import numpy as np

import lidarfog

SAMPLED_RELOCATED = 2  # relocated points per (input, alpha) checked against naive_soft_max
RTOL32 = 3e-6  # relative tolerance on intensities that went through float32
RANGE_SLACK = 1e-5  # relative slack on the (r_tmp/2, 2*r_tmp) window after float32 rounding


class CheckFailed(Exception):
    pass


def require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def digest(*arrays):
    """CRC of the raw bytes of the arrays, for bit-identity comparisons."""
    crc = 0
    for a in arrays:
        crc = zlib.crc32(memoryview(np.ascontiguousarray(a)).cast("B"), crc)
    return crc


def point_rule(xyz_in, i_in, xyz_out, i_out, relocated, alpha, seed, rtol):
    """Check the per-point rule on one output cloud.

    `relocated` is the boolean provenance mask.  Kept points must keep xyz
    bit for bit and agree with ``i * exp(-2 alpha r0) * f`` for one rescale
    factor f; all relocated points must lie on their own ray; a seeded
    sample of them must fall within (r_tmp/2, 2 r_tmp) of the naive scan.
    Returns the rescale factor f seen on the kept points (1.0 if none).
    """
    xyz_in = np.asarray(xyz_in, dtype=np.float64)
    xyz_out = np.asarray(xyz_out, dtype=np.float64)
    r0 = np.sqrt(np.sum(xyz_in * xyz_in, axis=1))
    kept = ~relocated

    require(np.array_equal(xyz_out[kept], xyz_in[kept]), "a kept point moved")
    expect = i_in[kept] * np.exp(-2.0 * alpha * r0[kept])
    pos = expect > 0
    factor = 1.0
    if np.any(pos):
        ratios = i_out[kept][pos] / expect[pos]
        factor = float(np.median(ratios))
        require(np.allclose(ratios, factor, rtol=rtol, atol=0.0),
                "kept intensities are not i*exp(-2*alpha*r0) times one rescale factor")

    if np.any(relocated):
        r_out = np.sqrt(np.sum(xyz_out[relocated] ** 2, axis=1))
        cos = np.sum(xyz_out[relocated] * xyz_in[relocated], axis=1) / (r_out * r0[relocated])
        require(np.all(cos > 1.0 - 1e-9), "a relocated point left its ray")
        idx = np.flatnonzero(relocated)
        pick = np.random.default_rng(seed).choice(len(idx), min(SAMPLED_RELOCATED, len(idx)),
                                                  replace=False)
        fog = lidarfog.fog_from_alpha(alpha)
        sensor = lidarfog.SensorModel()
        for j in pick:
            _, r_tmp = lidarfog.naive_soft_max(float(r0[idx[j]]), fog, sensor)
            r = float(r_out[j])
            require(r_tmp > 0 and r_tmp / 2 * (1 - RANGE_SLACK) <= r <= 2 * r_tmp * (1 + RANGE_SLACK),
                    f"relocated range {r:.6g} outside (r_tmp/2, 2 r_tmp), r_tmp={r_tmp:.6g}")
    return factor


def simulate_outputs(rows_in, out_path, stats_path, prov_path, alpha, seed):
    """Check one `simulate` run (bin format); returns the digest of its outputs."""
    out = np.fromfile(out_path, dtype="<f4").reshape(-1, 4)
    with open(stats_path, "r", encoding="ascii") as fh:
        stats = json.load(fh)
    prov = np.fromfile(prov_path, dtype=np.uint8)
    n = len(rows_in)
    require(len(out) == n, f"{len(out)} points out for {n} in")
    require(stats["n_points"] == n and len(prov) == n, "stats, provenance and point counts disagree")
    require(np.all(prov <= 1), "provenance values outside {0, 1}")
    relocated = prov == 1
    n_soft = int(np.count_nonzero(relocated))
    require(stats["n_soft_replaced"] == n_soft, "stats n_soft_replaced disagrees with provenance")
    require(abs(stats["fraction_replaced"] - n_soft / n) <= 1e-12, "stats fraction_replaced is off")
    require(stats["alpha"] == alpha and stats["seed"] == seed, "stats echo other alpha/seed")
    require(stats["n_skipped"] == 0, "valid synthetic points were skipped")
    factor = point_rule(rows_in[:, :3], rows_in[:, 3].astype(np.float64), out[:, :3],
                        out[:, 3].astype(np.float64), relocated, alpha, seed, RTOL32)
    if np.any(~relocated):
        require(abs(factor / stats["rescale_factor"] - 1.0) <= RTOL32,
                "kept intensities do not use the reported rescale factor")
    return simulate_digest(out_path, stats_path, prov_path)


def simulate_digest(out_path, stats_path, prov_path):
    """Digest of a `simulate` run's outputs, leaving out its own timing."""
    with open(stats_path, "r", encoding="ascii") as fh:
        stats = json.load(fh)
    stats.pop("runtime_ms")
    crc = zlib.crc32(json.dumps(stats, sort_keys=True).encode())
    for path in (out_path, prov_path):
        with open(path, "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return crc


def sweep_output(rows_in, out_path, alpha, seed):
    """Check one file of a `sweep` (bin format); returns its digest.

    A sweep writes no provenance, so a point counts as kept when its xyz
    came through unchanged and as relocated otherwise.
    """
    out = np.fromfile(out_path, dtype="<f4").reshape(-1, 4)
    require(len(out) == len(rows_in), f"{out_path}: {len(out)} points out for {len(rows_in)} in")
    relocated = np.any(out[:, :3] != rows_in[:, :3], axis=1)
    if alpha == 0.0:
        require(not np.any(relocated), "clear air relocated points")
    point_rule(rows_in[:, :3], rows_in[:, 3].astype(np.float64), out[:, :3],
               out[:, 3].astype(np.float64), relocated, alpha, seed, RTOL32)
    return digest(out)


def intersect_output(strongest, kept_mask, out_rows):
    """`intersect` keeps, in order, exactly the strongest-scan points that fog left in place."""
    expect = strongest[kept_mask]
    require(len(out_rows) == len(expect),
            f"{len(out_rows)} points retained, provenance keeps {len(expect)}")
    require(np.allclose(out_rows, expect, rtol=0.0, atol=2e-6),
            "retained points are not the kept points of the strongest scan, in order")


def cloud_outcome(cloud_xyz, cloud_i, outcome, alpha, seed):
    """Check one in-process `foggify_cloud` outcome."""
    s = outcome.stats
    n = len(cloud_i)
    prov = outcome.provenance
    require(s.n_points == n and len(outcome.cloud) == n and len(prov) == n,
            "stats, provenance and point counts disagree")
    relocated = prov == 1
    require(np.all(prov <= 1), "provenance values outside {0, 1}")
    require(s.n_soft_replaced == int(np.count_nonzero(relocated)),
            "stats n_soft_replaced disagrees with provenance")
    require(s.n_skipped == 0, "valid synthetic points were skipped")
    factor = point_rule(cloud_xyz, cloud_i, outcome.cloud.xyz, outcome.cloud.intensity,
                        relocated, alpha, seed, 1e-9)
    if np.any(~relocated):
        require(abs(factor / s.rescale_factor - 1.0) <= 1e-9,
                "kept intensities do not use the reported rescale factor")


def outcome_digest(outcome):
    return digest(outcome.cloud.xyz, outcome.cloud.intensity, outcome.provenance)
