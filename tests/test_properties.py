"""Property tests of the per-point transform, the soft-return tables, the
sweep plan and the dual-return intersection.

Clouds mix ordinary points (coordinates within +-150 m, so some ranges lie
beyond the 200 m table, intensities in [-50, 300], so some are negative)
with a few entries poisoned by zero, NaN or infinite values.  Settings are
derandomized so every run checks the same examples.
"""

import dataclasses
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

import lidarfog.cli as cli
import lidarfog.foggify as foggify
from lidarfog import (
    PointCloud,
    Provenance,
    build_table,
    fog_from_alpha,
    foggify_cloud,
    intersect_returns,
    mor_to_beta,
    query_soft_max,
    sample_alpha,
)
from lidarfog.optics import MAX_RANGE, RANGE_STEP, SensorModel, soft_response_integrals
from lidarfog.rng import stable_key64, uniform01
from lidarfog.tables import _INTENSITY_BAND, _lookup, _overshadow_bound, _prefix_max_argmax
from oracles import brute_force_match_mask, dense_transform_reference, hard_peak

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf)


@st.composite
def clouds(draw, max_points=120):
    n = draw(st.integers(1, max_points))
    xyz = draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(-150.0, 150.0)))
    inten = draw(hnp.arrays(np.float64, n, elements=st.floats(-50.0, 300.0)))
    for i, col, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3),
                                                 st.sampled_from(SPECIALS)), max_size=6)):
        if col == 3:
            inten[i] = value
        else:
            xyz[i, col] = value
    return PointCloud(xyz, inten)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def degenerate(cloud):
    """The documented skip rule, restated: no positive range within MAX_RANGE,
    or an intensity that is negative or not finite."""
    x, y, z = (cloud.xyz[:, j] for j in range(3))
    r0 = np.sqrt(x * x + y * y + z * z)
    good_range = np.isfinite(r0) & (r0 > 0.0) & (r0 <= MAX_RANGE)
    good_inten = np.isfinite(cloud.intensity) & (cloud.intensity >= 0.0)
    return ~(good_range & good_inten), r0


_TABLES = {}


def fog_and_table(alpha, sensor):
    if alpha not in _TABLES:
        fog = fog_from_alpha(alpha)  # beta = 0 at alpha = 0
        _TABLES[alpha] = (fog, build_table(fog, sensor))
    return _TABLES[alpha]


ALPHAS = st.sampled_from((0.0, 0.06, 0.2))


@PROPERTY
@given(cloud=clouds(), seed=st.integers(0, 2**32))
def test_clear_air_is_the_identity(sensor, cloud, seed):
    fog, table = fog_and_table(0.0, sensor)
    out = foggify_cloud(cloud, fog, sensor, seed=seed, rescale=False, table=table)
    assert same_bits(out.cloud.xyz, cloud.xyz)
    assert same_bits(out.cloud.intensity, cloud.intensity)
    assert np.all(out.provenance == Provenance.HARD_KEPT)


@PROPERTY
@given(cloud=clouds(), alpha=ALPHAS, seed=st.integers(0, 2**32), rescale=st.booleans())
def test_degenerate_points_pass_through(sensor, cloud, alpha, seed, rescale):
    """Skipped points keep xyz and tag; with rescaling on, their intensity
    is scaled by the cloud's one factor like every other point's.  Below the
    smallest normal float the product keeps no relative precision."""
    fog, table = fog_and_table(alpha, sensor)
    bad, _ = degenerate(cloud)
    out = foggify_cloud(cloud, fog, sensor, seed=seed, rescale=rescale, table=table)
    assert out.stats.n_skipped == int(np.count_nonzero(bad))
    assert same_bits(out.cloud.xyz[bad], cloud.xyz[bad])
    assert np.all(out.provenance[bad] == Provenance.HARD_KEPT)
    if rescale:
        np.testing.assert_allclose(out.cloud.intensity[bad],
                                   cloud.intensity[bad] * out.stats.rescale_factor,
                                   rtol=1e-12, atol=np.finfo(np.float64).tiny,
                                   equal_nan=True)
    else:
        assert same_bits(out.cloud.intensity[bad], cloud.intensity[bad])


@PROPERTY
@given(cloud=clouds(max_points=40), alpha=ALPHAS, seed=st.integers(0, 2**32))
def test_provenance_follows_the_per_point_rule(sensor, cloud, alpha, seed):
    fog, table = fog_and_table(alpha, sensor)
    bad, r0 = degenerate(cloud)
    out = foggify_cloud(cloud, fog, sensor, seed=seed, rescale=False, table=table)
    for i in range(len(cloud)):
        if bad[i]:
            expect = False
        else:
            i_tmp, _ = query_soft_max(table, float(r0[i]))
            inten = float(cloud.intensity[i])
            i_soft = (inten * r0[i] * r0[i] / fog.beta_0) * fog.beta * i_tmp
            expect = bool(i_soft > hard_peak(inten, float(r0[i]), fog.alpha))
        assert out.provenance[i] == expect, f"point {i}"


@PROPERTY
@given(cloud=clouds(max_points=300), alpha=ALPHAS, seed=st.integers(0, 2**32),
       rescale=st.booleans(), block_size=st.integers(1, 64), workers=st.integers(2, 4))
def test_outputs_ignore_workers_and_block_size(sensor, cloud, alpha, seed, rescale,
                                               block_size, workers):
    fog, table = fog_and_table(alpha, sensor)
    ref = foggify_cloud(cloud, fog, sensor, seed=seed, rescale=rescale, table=table,
                        workers=1)
    with mock.patch.object(foggify, "_BLOCK_SIZE", block_size):
        out = foggify_cloud(cloud, fog, sensor, seed=seed, rescale=rescale, table=table,
                            workers=workers)
    assert same_bits(out.cloud.xyz, ref.cloud.xyz)
    assert same_bits(out.cloud.intensity, ref.cloud.intensity)
    assert same_bits(out.provenance, ref.provenance)
    assert same_bits(list(dataclasses.asdict(out.stats).values()),
                     list(dataclasses.asdict(ref.stats).values()))


def dense_foggify(cloud, fog, table, seed, rescale, block):
    """`foggify_cloud` restated over the dense reference kernel, block by block:
    the rescale rule and the stats, then the outcome as arrays."""
    n = len(cloud)
    cols = [np.ascontiguousarray(cloud.xyz[:, j]) for j in range(3)]
    parts = []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        draws = uniform01(seed, np.arange(lo, hi, dtype=np.uint64))
        parts.append(dense_transform_reference(*(c[lo:hi] for c in cols),
                                               cloud.intensity[lo:hi], draws, fog, table))
    x, y, z, inten, soft, skipped = (np.concatenate(p) for p in zip(*parts))
    top = float(inten[np.isfinite(inten)].max(initial=0.0))
    factor = foggify.INTENSITY_SCALE / top if top > 0.0 else math.inf
    if rescale and math.isfinite(factor):
        inten = (inten / top) * foggify.INTENSITY_SCALE
    else:
        factor = 1.0
    n_soft = int(np.count_nonzero(soft))
    stats = [n, n_soft, int(np.count_nonzero(skipped)), n_soft / n, factor]
    return np.column_stack((x, y, z)), inten, soft.astype(np.uint8), stats


# fogs past the defaults, where the kernel's bound must fall back to 0: a
# beta whose soft peaks overflow, a subnormal beta_0, and a tiny beta_0 that
# overflows the soft peak's third step, i * r0 * r0 / beta_0, while the
# fog's soft/hard ratio stays far below 1
FOG_VARIANTS = ({}, {"beta": 1e308}, {"beta_0": 1e-320}, {"beta": 1e-300, "beta_0": 1e-300})
# intensities at and one ulp past the edges of the kernel's intensity band
BAND_LO, BAND_HI = _INTENSITY_BAND
PROBE_INTENSITIES = (0.0, 5e-324, BAND_LO, BAND_HI, math.nextafter(BAND_LO, 0.0),
                     math.nextafter(BAND_HI, math.inf), 1e300)


@st.composite
def probes(draw):
    """Rows on a coordinate axis near the kernel's bound or a grid cell's end:
    (anchor, offset, axis, sign, intensity), where the anchor is None for the
    bound or k for the cell end k * RANGE_STEP, and the offset is absolute
    (within two grid steps), relative (within 1e-9) or a count of ulps."""
    return draw(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(1, 2001)),
        st.one_of(st.tuples(st.just("abs"), st.floats(-2 * RANGE_STEP, 2 * RANGE_STEP)),
                  st.tuples(st.just("rel"), st.floats(-1e-9, 1e-9)),
                  st.tuples(st.just("ulps"), st.integers(-3, 3))),
        st.integers(0, 2), st.sampled_from((1.0, -1.0)),
        st.one_of(st.sampled_from(PROBE_INTENSITIES), st.floats(0.0, 300.0))), max_size=12))


def with_probes(cloud, rows, bound):
    """`cloud` followed by the probe rows, placed relative to `bound`; a row on
    an axis has the range |r| exactly, as sqrt(r * r) is |r|."""
    xyz, inten = [], []
    for anchor, (kind, d), axis, sign, i in rows:
        r = bound if anchor is None else anchor * RANGE_STEP
        if kind == "abs":
            r += d
        elif kind == "rel":
            r *= 1.0 + d
        else:
            for _ in range(abs(d)):
                r = math.nextafter(r, math.copysign(math.inf, d))
        xyz.append([0.0, 0.0, 0.0])
        xyz[-1][axis] = sign * r
        inten.append(i)
    return PointCloud(np.vstack([cloud.xyz] + xyz), np.concatenate((cloud.intensity, inten)))


@PROPERTY
@given(cloud=clouds(max_points=30), zero_rows=st.lists(st.integers(0, 29), max_size=3),
       alpha=st.sampled_from((0.0, 0.005, 0.06, 0.5, 10.0)),
       variant=st.sampled_from(FOG_VARIANTS), rows=probes(), seed=st.integers(0, 2**32),
       rescale=st.booleans(), workers=st.sampled_from((1, 3)))
# just past the bound, where the fog wins within a grid step
@example(cloud=PointCloud(np.ones((1, 3)), np.ones(1)), zero_rows=[], alpha=0.06, variant={},
         rows=[(None, ("abs", 0.05), 0, 1.0, 100.0)], seed=0, rescale=False, workers=1)
# the band's greatest intensity, whose soft peak overflows before beta scales it down
@example(cloud=PointCloud(np.ones((1, 3)), np.ones(1)), zero_rows=[], alpha=0.06,
         variant=FOG_VARIANTS[3], rows=[(500, ("ulps", 0), 1, -1.0, BAND_HI)], seed=0,
         rescale=False, workers=1)
def test_sparse_kernel_matches_dense_reference(sensor, cloud, zero_rows, alpha, variant, rows,
                                               seed, rescale, workers):
    """The kernel draws and relocates only the points fog replaces, and
    attenuates the rows below its bound without the soft-return rule; every
    output bit equals the dense reference that draws and relocates every
    point.  Probe rows sit at the edges of the bound, the grid cells and the
    intensity band, also for fogs whose soft peaks overflow."""
    for i in zero_rows:
        cloud.xyz[i % len(cloud)] = 0.0
    fog, table = fog_and_table(alpha, sensor)
    fog = dataclasses.replace(fog, **variant)
    cloud = with_probes(cloud, rows, _overshadow_bound(table, fog))
    with np.errstate(over="ignore", invalid="ignore"):
        xyz, inten, provenance, stats = dense_foggify(cloud, fog, table, seed, rescale, 7)
    with mock.patch.object(foggify, "_BLOCK_SIZE", 7):
        if np.any(provenance.astype(bool) & ~np.isfinite(inten)):
            # a relocated point's fog return overflows: the kernel names it
            with pytest.raises(ValueError, match="overflows"):
                foggify_cloud(cloud, fog, sensor, seed=seed, table=table, workers=workers)
            return
        out = foggify_cloud(cloud, fog, sensor, seed=seed, rescale=rescale, table=table,
                            workers=workers)
    assert same_bits(out.cloud.xyz, xyz)
    assert same_bits(out.cloud.intensity, inten)
    assert same_bits(out.provenance, provenance)
    assert same_bits(list(dataclasses.asdict(out.stats).values()), stats)


def soft_hard_ratio(table, fog, r0):
    """(beta / beta_0) * r0^2 * exp(2 alpha r0) * prefix_max(r0): the intensity-free
    form of the kernel's soft over hard peak."""
    i_tmp, _ = query_soft_max(table, r0)
    return fog.beta / fog.beta_0 * r0 * r0 * math.exp(2.0 * fog.alpha * r0) * i_tmp


@PROPERTY
@given(alpha=st.sampled_from((0.005, 0.03, 0.06, 0.2)),
       ranges=st.lists(st.floats(0.01, 200.0), min_size=2, max_size=2),
       intensities=st.lists(st.floats(1e-3, 1e4), min_size=2, max_size=2))
def test_soft_hard_ratio_ignores_intensity_and_never_decreases(sensor, alpha, ranges,
                                                                intensities):
    fog, table = fog_and_table(alpha, sensor)
    near, far = sorted(ranges)
    assert soft_hard_ratio(table, fog, near) <= soft_hard_ratio(table, fog, far)
    for r0 in (near, far):
        ratio = soft_hard_ratio(table, fog, r0)
        for inten in intensities:
            # the kernel's two peaks, as `_transform_block` forms them
            i_tmp, _ = query_soft_max(table, r0)
            i_soft = (inten * r0 * r0 / fog.beta_0) * fog.beta * i_tmp
            i_hard = float(hard_peak(inten, r0, fog.alpha))
            assert i_soft / i_hard == pytest.approx(ratio, rel=1e-13, abs=0.0)


def relocated(cloud, fog, sensor, table, seed):
    out = foggify_cloud(cloud, fog, sensor, seed=seed, rescale=False, table=table)
    return out.provenance == Provenance.SOFT_REPLACED


@PROPERTY
@given(cloud=clouds(), seed=st.integers(0, 2**32),
       milli=st.lists(st.integers(0, 200), min_size=2, max_size=4, unique=True))
def test_relocation_sets_nest_in_alpha(sensor, cloud, seed, milli):
    """A point fog relocates at alpha1 is relocated at every alpha2 > alpha1
    (beta = 0.046 / MOR, MOR = 3 / alpha)."""
    fogs = [fog_from_alpha(k / 1000) for k in milli]
    sets = {fog.alpha: relocated(cloud, fog, sensor, build_table(fog, sensor), seed)
            for fog in fogs}
    alphas = sorted(sets)
    for lo, hi in zip(alphas, alphas[1:]):
        assert not np.any(sets[lo] & ~sets[hi]), (lo, hi)


@PROPERTY
@given(cloud=clouds(), alpha=st.sampled_from((0.005, 0.03, 0.06, 0.2)),
       seed=st.integers(0, 2**32), mors=st.lists(st.floats(1.0, 2000.0), min_size=2,
                                                  max_size=4, unique=True))
def test_relocation_sets_nest_in_beta(sensor, cloud, alpha, seed, mors):
    """At a fixed alpha, a point relocated at beta1 is relocated at every
    beta2 > beta1, with each beta = 0.046 / MOR drawn from a MOR."""
    _, table = fog_and_table(alpha, sensor)
    sets = {}
    for mor in mors:
        fog = fog_from_alpha(alpha, beta=mor_to_beta(mor))
        sets[fog.beta] = relocated(cloud, fog, sensor, table, seed)
    betas = sorted(sets)
    for lo, hi in zip(betas, betas[1:]):
        assert not np.any(sets[lo] & ~sets[hi]), (lo, hi)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), n_files=st.integers(1, 6),
       schedule=st.lists(st.sampled_from((0.0, 0.01, 0.03, 0.06)), min_size=1, max_size=4))
def test_sweep_builds_one_table_per_drawn_alpha(seed, n_files, schedule):
    names = [f"{k:04d}.bin" for k in range(n_files)]
    drawn = {n: sample_alpha(schedule, uniform01(seed, stable_key64(n))) for n in names}
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in")
        os.mkdir(src)
        rng = np.random.default_rng(seed)
        for name in names:
            rng.uniform(1.0, 60.0, (20, 4)).astype("<f4").tofile(os.path.join(src, name))
        dst = os.path.join(tmp, "out")
        with mock.patch.object(cli, "build_table", wraps=cli.build_table) as build_one:
            rc = cli.main(["sweep", "--input-dir", src, "--output-dir", dst,
                           "--alphas", ",".join(map(repr, schedule)), "--seed", str(seed),
                           "--workers", "2"])
        with open(os.path.join(dst, "manifest.json"), encoding="ascii") as fh:
            manifest = json.load(fh)
    assert rc == 0
    assert manifest["files"] == drawn
    # one build for each distinct drawn alpha and for no other
    built = sorted(call.args[0].alpha for call in build_one.call_args_list)
    assert built == sorted(set(manifest["files"].values()))


@st.composite
def sensors(draw):
    """A valid sensor: 0 < r1 < r2 < 2 and a pulse of 1 ps to 1 us, long
    enough at the top for its span c*tau_h to pass MAX_RANGE."""
    r2 = draw(st.floats(0.05, 2.0, exclude_max=True))
    r1 = draw(st.floats(0.0, r2, exclude_min=True, exclude_max=True))
    return SensorModel(tau_h=10.0 ** draw(st.floats(-12.0, -6.0)), r1=r1, r2=r2)


@PROPERTY
@given(alpha=st.floats(0.0, 0.3), sensor=sensors(),
       r0=hnp.arrays(np.float64, st.integers(1, 64),
                     elements=st.floats(0.0, MAX_RANGE, exclude_min=True)))
@example(alpha=0.06, sensor=SensorModel(tau_h=1e-6), r0=np.array([0.05, 4.3, MAX_RANGE]))
def test_short_table_reads_like_the_whole_grid(alpha, sensor, r0):
    """A table ends just past r2 + c*tau_h, where the soft return stops
    rising; its lookups equal those of the prefix columns of all 2000 grid
    ranges bit for bit, at every grid range and at any r0 in (0, MAX_RANGE]."""
    fog = fog_from_alpha(alpha)
    table = build_table(fog, sensor)
    assert table.alpha == alpha and table.sensor == sensor
    grid = np.arange(1, 2001) * RANGE_STEP
    whole = _prefix_max_argmax(soft_response_integrals(grid, fog, sensor))
    for column, ref in zip((table.prefix_max, table.prefix_argmax), whole):
        assert not column.flags.writeable
        for at in (grid, r0):
            assert same_bits(_lookup(column, at), _lookup(ref, at))


UNIT = st.floats(-1.0, 1.0)


@st.composite
def dual_returns(draw):
    """(strongest xyz, last xyz, tol): a last-return scan with repeated rows
    and signed zeros, and a strongest scan built around it from exact copies,
    copies with the signs of their zeros flipped, copies moved exactly tol
    along an axis, copies moved tol*(1 + k*1e-16) along a drawn direction,
    and free points."""
    tol = draw(st.sampled_from((0.0, 1e-12, 1e-3, 1e6)))
    # coordinates about tol in size put many distances within an ulp of tol
    scale = draw(st.sampled_from((tol or 1.0, 1.0, 150.0, 1e15)))
    m = draw(st.integers(1, 30))
    last = draw(hnp.arrays(np.float64, (m, 3), elements=UNIT)) * scale
    for i, j, zero in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, 2),
                                              st.sampled_from((0.0, -0.0))), max_size=6)):
        last[i, j] = zero
    for i, k in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=4)):
        last[i] = last[k]
    rows = []
    kinds = st.sampled_from(("copy", "flip-zeros", "axis", "direction", "free"))
    for kind, i in draw(st.lists(st.tuples(kinds, st.integers(0, m - 1)), min_size=1,
                                 max_size=40)):
        p = last[i].copy()
        if kind == "flip-zeros":
            p = np.where(p == 0.0, -p, p)
        elif kind == "axis":
            p[draw(st.integers(0, 2))] += draw(st.sampled_from((-tol, tol)))
        elif kind == "direction":
            u = np.array([draw(UNIT) for _ in range(3)])
            norm = math.sqrt(float(u @ u))
            if norm > 0.0:
                p += u / norm * (tol * (1.0 + draw(st.integers(-8, 8)) * 1e-16))
        elif kind == "free":
            p = np.array([draw(UNIT) for _ in range(3)]) * scale
        rows.append(p)
    return np.array(rows), last, tol


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=dual_returns())
def test_intersect_mask_equals_kdtree_ball_query(case):
    strongest, last, tol = case
    kept = intersect_returns(PointCloud(strongest, np.arange(len(strongest), dtype=np.float64)),
                             PointCloud(last, np.zeros(len(last))), tol=tol)
    ball = cKDTree(last).query_ball_point(strongest, r=tol, return_length=True) > 0
    assert np.array_equal(kept.intensity, np.flatnonzero(ball))
    assert np.array_equal(brute_force_match_mask(strongest, last, tol), ball)
