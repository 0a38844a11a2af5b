import concurrent.futures
import dataclasses
import math
import os

import numpy as np
import pytest

from lidarfog import (
    DEFAULT_ALPHA_SCHEDULE,
    CloudFormat,
    FogParams,
    PointCloud,
    Provenance,
    SensorModel,
    alpha_to_mor,
    build_table,
    fog_from_alpha,
    fog_from_mor,
    foggify_cloud,
    mor_to_alpha,
    mor_to_beta,
    query_soft_max,
    read_cloud,
    sample_alpha,
    write_cloud,
)
from lidarfog import foggify
from lidarfog.optics import MAX_RANGE
from lidarfog.rng import uniform01


@pytest.fixture(scope="module")
def fog_heavy():
    # dense enough that a 30 m target is overtaken by the fog return
    return fog_from_alpha(0.2)


@pytest.fixture(scope="module")
def table_heavy(fog_heavy, sensor):
    return build_table(fog_heavy, sensor)


@pytest.fixture(scope="module")
def fog_zero():
    return FogParams(alpha=0.0, beta=0.0)


@pytest.fixture(scope="module")
def table_zero(fog_zero, sensor):
    return build_table(fog_zero, sensor)


# one changed field per case: each takes part in the table's sensor check
SENSOR_CHANGES = ({"tau_h": 10e-9}, {"r1": 0.8}, {"r2": 1.1})


def random_cloud(n, seed=0, span=120.0, scale=255.0):
    rng = np.random.default_rng(seed)
    xyz = rng.uniform(-span / np.sqrt(3), span / np.sqrt(3), (n, 3))
    inten = rng.uniform(0.0, scale, n)
    return PointCloud(xyz, inten)


class TestConversions:
    def test_alpha_to_mor_table(self):
        assert alpha_to_mor(0.06) == pytest.approx(50.0, rel=1e-12)
        assert alpha_to_mor(0.005) == pytest.approx(600.0, rel=1e-12)
        assert alpha_to_mor(0.01) == pytest.approx(300.0, rel=1e-12)
        assert alpha_to_mor(0.0) == float("inf")

    def test_mor_to_beta(self):
        assert mor_to_beta(50.0) == pytest.approx(0.00092, rel=1e-12)
        assert mor_to_beta(float("inf")) == 0.0

    def test_roundtrip(self):
        for a in (0.005, 0.01, 0.02, 0.03, 0.06):
            assert mor_to_alpha(alpha_to_mor(a)) == pytest.approx(a, rel=1e-12)

    def test_invalid_inputs(self):
        for bad in (-0.1, np.nan):
            with pytest.raises(ValueError):
                alpha_to_mor(bad)
        with pytest.raises(ValueError):
            mor_to_beta(0.0)
        with pytest.raises(ValueError):
            mor_to_alpha(-5.0)
        # an infinite alpha has no positive MOR, a subnormal MOR no finite
        # alpha; each message names the quantity passed
        with pytest.raises(ValueError, match="^alpha must be finite, got inf$"):
            alpha_to_mor(float("inf"))
        for mor in (1e-309, 5e-324):
            with pytest.raises(ValueError, match=f"^mor {mor} is too small"):
                mor_to_alpha(mor)
            with pytest.raises(ValueError, match=f"^mor {mor} is too small"):
                fog_from_mor(mor)
        assert mor_to_alpha(1.7e-308) == 3.0 / 1.7e-308

    def test_factories_agree(self):
        # the same atmosphere reached through alpha or through MOR
        a = fog_from_alpha(0.06)
        m = fog_from_mor(50.0)
        assert (a.alpha, a.beta, a.beta_0) == (m.alpha, m.beta, m.beta_0)
        assert fog_from_alpha(0.0).beta == 0.0


class TestSampleAlpha:
    def test_singleton(self):
        assert sample_alpha([0.06], 0.0) == 0.06
        assert sample_alpha([0.06], 0.999) == 0.06

    def test_first_element_at_zero_draw(self):
        assert sample_alpha(DEFAULT_ALPHA_SCHEDULE, 0.0) == 0.0

    def test_empirical_uniformity(self):
        draws = uniform01(42, np.arange(60_000, dtype=np.uint64))
        picks = [sample_alpha(DEFAULT_ALPHA_SCHEDULE, float(d)) for d in draws]
        counts = {a: 0 for a in DEFAULT_ALPHA_SCHEDULE}
        for p in picks:
            counts[p] += 1
        for a, c in counts.items():
            assert abs(c / 60_000 - 1 / 6) <= 0.02 * (1 / 6), f"alpha {a} frequency off"

    def test_errors(self):
        with pytest.raises(ValueError):
            sample_alpha([], 0.5)
        with pytest.raises(ValueError):
            sample_alpha([0.06], 1.0)
        with pytest.raises(ValueError):
            sample_alpha([0.06], -0.1)


def set_draw(monkeypatch, value):
    """Every noise draw `foggify_cloud` takes from now on is `value`."""
    monkeypatch.setattr(foggify, "uniform01",
                        lambda seed, index: np.full(np.shape(index), value))


def foggify_row(x, y, z, intensity, fog, sensor, table):
    """`foggify_cloud` on one point, unscaled: its (x, y, z, intensity) and tag."""
    out = foggify_cloud(PointCloud([[x, y, z]], [intensity]), fog, sensor, rescale=False,
                        table=table)
    return (*out.cloud.xyz[0], out.cloud.intensity[0]), Provenance(out.provenance[0])


class TestFoggifyPoint:
    """The per-point rule, seen through `foggify_cloud` on one-row clouds."""

    def test_identity_in_clear_air(self, fog_zero, table_zero, sensor):
        p = (12.5, -3.25, 1.125, 87.5)
        out, tag = foggify_row(*p, fog_zero, sensor, table_zero)
        assert out == p
        assert tag == Provenance.HARD_KEPT

    def test_median_draw_lands_on_argmax_range(self, fog_heavy, table_heavy, sensor,
                                               monkeypatch):
        set_draw(monkeypatch, 0.5)
        (x, y, z, inten), tag = foggify_row(30.0, 0.0, 0.0, 100.0, fog_heavy, sensor,
                                            table_heavy)
        assert tag == Provenance.SOFT_REPLACED
        i_tmp, r_tmp = query_soft_max(table_heavy, 30.0)
        assert (x, y, z) == (r_tmp, 0.0, 0.0)
        i_soft = (100.0 * 30.0 * 30.0 / fog_heavy.beta_0) * fog_heavy.beta * i_tmp
        assert inten == i_soft

    def test_hard_branch_attenuates_only(self, fog06, table06, sensor):
        # near target: solid return wins
        (x, y, z, inten), tag = foggify_row(0.0, 15.0, 0.0, 200.0, fog06, sensor, table06)
        assert tag == Provenance.HARD_KEPT
        assert (x, y, z) == (0.0, 15.0, 0.0)
        assert inten == 200.0 * np.exp(-2.0 * fog06.alpha * 15.0)

    def test_noise_envelope(self, fog_heavy, table_heavy, sensor, monkeypatch):
        _, r_tmp = query_soft_max(table_heavy, 30.0)
        for draw in np.linspace(0.0, 0.999999, 41):
            set_draw(monkeypatch, draw)
            (x, y, z, _), tag = foggify_row(30.0, 0.0, 0.0, 100.0, fog_heavy, sensor,
                                            table_heavy)
            assert tag == Provenance.SOFT_REPLACED
            rng_out = math.sqrt(x**2 + y**2 + z**2)
            assert r_tmp / 2 <= rng_out < 2 * r_tmp

    def test_zero_intensity_point_kept(self, fog06, table06, sensor):
        out, tag = foggify_row(40.0, 0.0, 0.0, 0.0, fog06, sensor, table06)
        assert tag == Provenance.HARD_KEPT
        assert out == (40.0, 0.0, 0.0, 0.0)

    def test_degenerate_points_pass_through(self, fog06, table06, sensor):
        for p in ((0.0, 0.0, 0.0, 10.0),
                  (np.nan, 1.0, 1.0, 10.0),
                  (500.0, 0.0, 0.0, 10.0),
                  (1.0, 1.0, 1.0, np.inf),
                  (30.0, 0.0, 0.0, -5.0)):
            out, tag = foggify_row(*p, fog06, sensor, table06)
            assert tag == Provenance.HARD_KEPT
            assert np.array(out).tobytes() == np.array(p).tobytes()

    def test_table_sensor_mismatch_rejected(self, fog06, table06):
        p = (30.0, 0.0, 0.0, 100.0)
        for change in SENSOR_CHANGES:
            other = dataclasses.replace(SensorModel(), **change)
            with pytest.raises(ValueError, match="another sensor"):
                foggify_row(*p, fog06, other, table06)
        # an equal sensor built separately is the same sensor
        assert foggify_row(*p, fog06, SensorModel(), table06) == \
            foggify_row(*p, fog06, table06.sensor, table06)

    def test_overflowing_fog_return_rejected(self, sensor):
        for fog in (fog_from_alpha(0.06, beta=1e308), fog_from_alpha(0.06, beta_0=1e-320)):
            with pytest.raises(ValueError, match="overflows.*beta=.*beta_0="):
                foggify_row(30.0, 0.0, 0.0, 1.0, fog, sensor, build_table(fog, sensor))


class TestFoggifyCloud:
    def test_rerun_bit_identical(self, fog06, table06, sensor):
        cloud = random_cloud(20_000, seed=11)
        a = foggify_cloud(cloud, fog06, sensor, seed=5, table=table06)
        b = foggify_cloud(cloud, fog06, sensor, seed=5, table=table06)
        assert np.array_equal(a.cloud.xyz, b.cloud.xyz)
        assert np.array_equal(a.cloud.intensity, b.cloud.intensity)
        assert np.array_equal(a.provenance, b.provenance)

    def test_seed_changes_noise_only(self, fog06, table06, sensor):
        cloud = random_cloud(5_000, seed=12)
        a = foggify_cloud(cloud, fog06, sensor, seed=1, table=table06)
        b = foggify_cloud(cloud, fog06, sensor, seed=2, table=table06)
        assert np.array_equal(a.provenance, b.provenance)  # branch is seed-free
        assert np.array_equal(a.cloud.intensity, b.cloud.intensity)
        soft = a.provenance == 1
        assert not np.array_equal(a.cloud.xyz[soft], b.cloud.xyz[soft])
        assert np.array_equal(a.cloud.xyz[~soft], b.cloud.xyz[~soft])

    def test_identity_configuration(self, fog_zero, table_zero, sensor):
        cloud = random_cloud(10_000, seed=13)
        out = foggify_cloud(cloud, fog_zero, sensor, seed=9, rescale=False, table=table_zero)
        assert np.array_equal(out.cloud.xyz, cloud.xyz)
        assert np.array_equal(out.cloud.intensity, cloud.intensity)
        assert np.all(out.provenance == Provenance.HARD_KEPT)

    def test_worker_count_invariance(self, fog06, table06, sensor):
        cloud = random_cloud(200_000, seed=15)
        ref = foggify_cloud(cloud, fog06, sensor, seed=3, table=table06, workers=1)
        for workers in (3, 7):
            out = foggify_cloud(cloud, fog06, sensor, seed=3, table=table06, workers=workers)
            assert np.array_equal(ref.cloud.xyz, out.cloud.xyz)
            assert np.array_equal(ref.cloud.intensity, out.cloud.intensity)

    @pytest.mark.parametrize("n_blocks", ["2K", "2K-1", "KITTI"])
    def test_default_threads_follow_cloud_size(self, fog06, table06, sensor, monkeypatch,
                                               n_blocks):
        # threads only from 2K blocks on (K = _BLOCKS_PER_THREAD); a KITTI-sized
        # scan of 4 blocks runs in the caller's thread
        k = foggify._BLOCKS_PER_THREAD
        blocks = {"2K": 2 * k, "2K-1": 2 * k - 1, "KITTI": 4}[n_blocks]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 64)
        cloud = random_cloud(blocks * 64 - 5, seed=27)
        ref = foggify_cloud(cloud, fog06, sensor, seed=3, table=table06, workers=1)
        started = []

        class Spy(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        out = foggify_cloud(cloud, fog06, sensor, seed=3, table=table06)
        assert started == ([2] if n_blocks == "2K" else [])
        assert np.array_equal(ref.cloud.xyz, out.cloud.xyz)
        assert np.array_equal(ref.cloud.intensity, out.cloud.intensity)
        assert np.array_equal(ref.provenance, out.provenance)

    def test_block_size_invariance(self, fog06, table06, sensor, monkeypatch):
        cloud = random_cloud(10_000, seed=16)
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 10_000)
        ref = foggify_cloud(cloud, fog06, sensor, seed=3, table=table06)
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 999)
        out = foggify_cloud(cloud, fog06, sensor, seed=3, table=table06)
        assert np.array_equal(ref.cloud.xyz, out.cloud.xyz)
        assert np.array_equal(ref.cloud.intensity, out.cloud.intensity)

    @pytest.mark.parametrize("alpha", [0.0, 0.06, 0.5])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_noise_drawn_only_for_relocated_points(self, sensor, monkeypatch, alpha,
                                                   workers):
        fog = fog_from_alpha(alpha)
        table = build_table(fog, sensor)
        cloud = random_cloud(3_000, seed=25, span=250.0)
        cloud.xyz[::97] = 0.0
        cloud.xyz[5::89, 1] = np.nan
        cloud.intensity[7::83] = -1.0
        requested = []

        def recorder(seed, index):
            requested.append(np.array(index, dtype=np.int64).ravel())
            return uniform01(seed, index)

        monkeypatch.setattr(foggify, "uniform01", recorder)
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 256)
        out = foggify_cloud(cloud, fog, sensor, seed=8, table=table, workers=workers)
        drawn = np.concatenate(requested)
        assert drawn.size == np.unique(drawn).size  # no index twice
        assert np.array_equal(np.sort(drawn), np.flatnonzero(out.provenance))
        assert (drawn.size > 0) == (alpha > 0.0)  # none at all in clear air

    def test_bad_workers_rejected(self, fog06, table06, sensor):
        cloud = random_cloud(100, seed=26)
        for bad in (0, -2, 2.5, "2"):
            with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
                foggify_cloud(cloud, fog06, sensor, table=table06, workers=bad)
        for good in (1, np.int64(2)):
            assert foggify_cloud(cloud, fog06, sensor, table=table06,
                                 workers=good).stats.n_points == 100

    def test_direction_preserved(self, fog06, table06, sensor):
        cloud = random_cloud(5_000, seed=17)
        out = foggify_cloud(cloud, fog06, sensor, seed=4, table=table06)
        r_in = np.linalg.norm(cloud.xyz, axis=1, keepdims=True)
        r_out = np.linalg.norm(out.cloud.xyz, axis=1, keepdims=True)
        assert np.allclose(cloud.xyz / r_in, out.cloud.xyz / r_out, rtol=0, atol=1e-12)

    def test_hard_kept_intensity_exact(self, fog06, table06, sensor):
        cloud = random_cloud(5_000, seed=18)
        out = foggify_cloud(cloud, fog06, sensor, seed=4, rescale=False, table=table06)
        hard = out.provenance == Provenance.HARD_KEPT
        x, y, z = (np.ascontiguousarray(cloud.xyz[:, j]) for j in range(3))
        r0 = np.sqrt(x * x + y * y + z * z)
        expect = cloud.intensity * np.exp(-2.0 * fog06.alpha * r0)
        assert np.array_equal(out.cloud.intensity[hard], expect[hard])

    def test_soft_range_bound(self, fog06, table06, sensor):
        cloud = random_cloud(20_000, seed=19)
        out = foggify_cloud(cloud, fog06, sensor, seed=6, rescale=False, table=table06)
        soft = out.provenance == Provenance.SOFT_REPLACED
        assert np.count_nonzero(soft) > 0
        r0 = np.linalg.norm(cloud.xyz, axis=1)
        r_out = np.linalg.norm(out.cloud.xyz, axis=1)
        r_tmp = np.array([query_soft_max(table06, float(r))[1] for r in r0[soft]])
        assert np.all(r_out[soft] > r_tmp / 2)
        assert np.all(r_out[soft] < 2 * r_tmp)
        assert np.all(r_tmp <= r0[soft])

    def test_rescale_hits_scale_exactly(self, fog06, table06, sensor):
        for scale in (255.0, 1.0):  # 8-bit intensity and KITTI-style reflectance
            cloud = random_cloud(5_000, seed=20, scale=scale)
            out = foggify_cloud(cloud, fog06, sensor, seed=7, rescale=True, table=table06)
            assert out.cloud.intensity.max() == foggify.INTENSITY_SCALE == 255.0
            raw = foggify_cloud(cloud, fog06, sensor, seed=7, rescale=False, table=table06)
            ratio_out = out.cloud.intensity[1:] / out.cloud.intensity[0]
            ratio_raw = raw.cloud.intensity[1:] / raw.cloud.intensity[0]
            assert np.allclose(ratio_out, ratio_raw, rtol=1e-12)
            assert out.stats.rescale_factor == pytest.approx(
                foggify.INTENSITY_SCALE / raw.cloud.intensity.max(), rel=1e-12)

    def test_rescale_skipped_for_all_zero(self, fog06, table06, sensor):
        cloud = PointCloud(np.array([[20.0, 0, 0], [0, 30.0, 0]]), np.zeros(2))
        out = foggify_cloud(cloud, fog06, sensor, table=table06)
        assert out.stats.rescale_factor == 1.0
        assert np.all(out.cloud.intensity == 0.0)

    def test_rescale_skipped_when_factor_overflows(self, fog_zero, table_zero, sensor):
        # 255 / 1e-307 overflows; 255 / 2e-306 does not
        xyz = np.array([[20.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        for top, rescaled in ((1e-310, False), (1e-307, False), (1e-306, False),
                              (2e-306, True)):
            inten = np.array([top, top / 4])
            out = foggify_cloud(PointCloud(xyz, inten), fog_zero, sensor, table=table_zero)
            assert math.isfinite(out.stats.rescale_factor)
            if rescaled:
                assert out.stats.rescale_factor == 255.0 / top
                assert out.cloud.intensity[0] == 255.0
            else:
                assert out.stats.rescale_factor == 1.0
                assert out.cloud.intensity.tobytes() == inten.tobytes()

    def test_degenerate_points_counted_and_passed_through(self, fog06, table06, sensor):
        xyz = np.array([[0.0, 0.0, 0.0],
                        [np.nan, 1.0, 2.0],
                        [300.0, 0.0, 0.0],
                        [30.0, 0.0, 0.0],
                        [30.0, 0.0, 0.0]])
        cloud = PointCloud(xyz, np.array([5.0, 6.0, 7.0, -8.0, 8.0]))
        out = foggify_cloud(cloud, fog06, sensor, rescale=False, table=table06)
        assert out.stats.n_skipped == 4
        assert np.array_equal(out.cloud.xyz[0], xyz[0])
        assert np.isnan(out.cloud.xyz[1, 0])
        assert np.array_equal(out.cloud.xyz[2], xyz[2])
        assert np.array_equal(out.cloud.xyz[3], xyz[3])
        assert out.cloud.intensity[0] == 5.0
        assert out.cloud.intensity[2] == 7.0
        assert out.cloud.intensity[3] == -8.0
        assert np.all(out.provenance[:4] == Provenance.HARD_KEPT)

    def test_extent_is_inclusive(self, fog06, table06, sensor):
        # a point exactly at MAX_RANGE is transformed, the next float beyond
        # it passes through
        xyz = np.array([[MAX_RANGE, 0.0, 0.0], [np.nextafter(MAX_RANGE, np.inf), 0.0, 0.0]])
        cloud = PointCloud(xyz, np.array([50.0, 50.0]))
        out = foggify_cloud(cloud, fog06, sensor, rescale=False, table=table06)
        assert out.provenance.tolist() == [Provenance.SOFT_REPLACED, Provenance.HARD_KEPT]
        assert out.stats.n_skipped == 1
        assert out.cloud.xyz[0, 0] < MAX_RANGE
        assert out.cloud.xyz[1].tobytes() == xyz[1].tobytes()
        assert out.cloud.intensity[1] == 50.0

    def test_table_sensor_mismatch_rejected(self, fog06, table06):
        cloud = random_cloud(100, seed=22)
        for change in SENSOR_CHANGES:
            other = dataclasses.replace(SensorModel(), **change)
            with pytest.raises(ValueError, match="another sensor"):
                foggify_cloud(cloud, fog06, other, table=table06)
            own = foggify_cloud(cloud, fog06, other, table=build_table(fog06, other))
            assert own.stats.n_points == 100
        # an equal sensor built separately is the same sensor
        assert foggify_cloud(cloud, fog06, SensorModel(), table=table06).stats.n_points == 100

    def test_table_alpha_mismatch_rejected(self, fog06, table_heavy, sensor):
        cloud = random_cloud(100, seed=22)
        with pytest.raises(ValueError, match="table was built for alpha=0.2, fog has alpha=0.06"):
            foggify_cloud(cloud, fog06, sensor, table=table_heavy)

    def test_overflowing_fog_return_rejected(self, sensor):
        # KITTI-style reflectance: every point's fog return overflows to inf
        cloud = random_cloud(300, seed=25, scale=1.0)
        for fog in (fog_from_alpha(0.06, beta=1e308), fog_from_alpha(0.06, beta_0=1e-320)):
            table = build_table(fog, sensor)
            for workers in (1, 2):
                with pytest.raises(ValueError, match="overflows.*beta=.*beta_0="):
                    foggify_cloud(cloud, fog, sensor, table=table, workers=workers)

    def test_nan_intensity_leaves_rescale_and_stats_finite(self, fog06, table06, sensor):
        cloud = random_cloud(1_000, seed=23)
        cloud.intensity[17] = np.nan
        raw = foggify_cloud(cloud, fog06, sensor, seed=1, rescale=False, table=table06)
        out = foggify_cloud(cloud, fog06, sensor, seed=1, table=table06)
        finite_raw = np.delete(raw.cloud.intensity, 17)
        assert out.stats.rescale_factor == foggify.INTENSITY_SCALE / finite_raw.max()
        assert np.isnan(out.cloud.intensity[17])
        assert np.nanmax(out.cloud.intensity) == foggify.INTENSITY_SCALE
        assert out.stats.n_skipped == 1

    def test_inf_intensity_does_not_zero_the_cloud(self, fog06, table06, sensor):
        cloud = random_cloud(1_000, seed=24)
        cloud.intensity[5] = np.inf
        raw = foggify_cloud(cloud, fog06, sensor, seed=1, rescale=False, table=table06)
        out = foggify_cloud(cloud, fog06, sensor, seed=1, table=table06)
        others = np.delete(out.cloud.intensity, 5)
        assert out.cloud.intensity[5] == np.inf
        assert others.max() == foggify.INTENSITY_SCALE
        assert np.count_nonzero(others == 0.0) == np.count_nonzero(
            np.delete(raw.cloud.intensity, 5) == 0.0)

    def test_stats_bookkeeping(self, fog06, table06, sensor):
        cloud = random_cloud(1_000, seed=21)
        out = foggify_cloud(cloud, fog06, sensor, seed=1, table=table06)
        s = out.stats
        assert s.n_points == 1_000
        assert len(out.provenance) == 1_000
        assert s.n_soft_replaced == int(np.count_nonzero(out.provenance))
        assert s.fraction_replaced == s.n_soft_replaced / s.n_points
        assert [f.name for f in dataclasses.fields(s)] == [
            "n_points", "n_soft_replaced", "n_skipped", "fraction_replaced", "rescale_factor"]

    def test_empty_cloud_rejected(self, fog06, table06, sensor):
        cloud = PointCloud(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ValueError):
            foggify_cloud(cloud, fog06, sensor, table=table06)

    def test_replacement_threshold_monotone_in_alpha(self, sensor):
        # constant-reflectivity ray: beyond a threshold range the fog return
        # wins; denser fog pulls the threshold inward
        thresholds = []
        ranges = np.arange(1, 2001) * 0.1
        ca_ref = 100.0 * 900.0 / (1e-6 / np.pi)
        for alpha in (0.03, 0.06):
            fog = fog_from_alpha(alpha)
            table = build_table(fog, sensor)
            xyz = np.column_stack((ranges, np.zeros_like(ranges), np.zeros_like(ranges)))
            inten = ca_ref * fog.beta_0 / ranges**2
            out = foggify_cloud(PointCloud(xyz, inten), fog, sensor, rescale=False, table=table)
            replaced = np.nonzero(out.provenance == 1)[0]
            assert len(replaced) > 0
            assert np.all(out.provenance[replaced[0]:] == 1)  # clean threshold
            thresholds.append(ranges[replaced[0]])
        assert thresholds[1] < thresholds[0]


class TestCallerArraysUntouched:
    """The transform reads the caller's arrays in place and writes only its
    own outputs: inputs marked read-only go through, and keep their bytes."""

    @staticmethod
    def read_only_cloud():
        cloud = random_cloud(3_000, seed=41, span=260.0)
        cloud.xyz[::97] = 0.0
        cloud.xyz[5::89, 1] = np.nan
        cloud.xyz[3::71] = -0.0
        cloud.intensity[7::83] = -1.0
        cloud.intensity[9::101] = np.inf
        cloud.intensity[11::103] = np.nan
        cloud.xyz.setflags(write=False)
        cloud.intensity.setflags(write=False)
        return cloud

    @pytest.mark.parametrize("workers", [1, 2])
    def test_foggify_cloud(self, fog06, table06, sensor, monkeypatch, workers):
        cloud = self.read_only_cloud()
        before = cloud.xyz.tobytes(), cloud.intensity.tobytes()
        writable = PointCloud(cloud.xyz.copy(), cloud.intensity.copy())
        ref = foggify_cloud(writable, fog06, sensor, seed=6, table=table06, workers=1)
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 999)
        for rescale in (True, False):
            out = foggify_cloud(cloud, fog06, sensor, seed=6, table=table06,
                                workers=workers, rescale=rescale)
            assert (cloud.xyz.tobytes(), cloud.intensity.tobytes()) == before
            assert out.cloud.xyz.flags.writeable and out.cloud.intensity.flags.writeable
        assert out.stats.n_skipped > 0 and out.stats.n_soft_replaced > 0
        assert out.cloud.xyz.tobytes() == ref.cloud.xyz.tobytes()
        assert out.provenance.tobytes() == ref.provenance.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_leaves_inputs(self, sensor, monkeypatch, workers):
        cloud = self.read_only_cloud()
        before = cloud.xyz.tobytes(), cloud.intensity.tobytes()
        fog = fog_from_alpha(0.06, beta=1e308)
        table = build_table(fog, sensor)
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 999)
        with pytest.raises(ValueError, match="overflows"):
            foggify_cloud(cloud, fog, sensor, table=table, workers=workers)
        assert (cloud.xyz.tobytes(), cloud.intensity.tobytes()) == before


class TestInPlace:
    """`in_place=True` transforms the cloud's own arrays into the bits, the
    provenance and the stats of the copying call, and returns the cloud."""

    @staticmethod
    def copy_of(cloud):
        return PointCloud(cloud.xyz.copy(), cloud.intensity.copy())

    @staticmethod
    def assert_same_outcome(out, ref):
        assert out.cloud.xyz.tobytes() == ref.cloud.xyz.tobytes()
        assert out.cloud.intensity.tobytes() == ref.cloud.intensity.tobytes()
        assert out.provenance.tobytes() == ref.provenance.tobytes()
        assert out.stats == ref.stats

    @pytest.mark.parametrize("workers", [1, 2, None])
    @pytest.mark.parametrize("rescale", [True, False])
    def test_matches_copying_call(self, fog06, table06, sensor, monkeypatch, workers, rescale):
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 999)
        cloud = random_cloud(9_000, seed=51, span=150.0)  # 10 blocks: 2 threads by default
        ref = foggify_cloud(cloud, fog06, sensor, seed=4, table=table06, workers=workers,
                            rescale=rescale)
        assert 0 < ref.stats.n_soft_replaced < 9_000
        mine = self.copy_of(cloud)
        out = foggify_cloud(mine, fog06, sensor, seed=4, table=table06, workers=workers,
                            rescale=rescale, in_place=True)
        assert out.cloud is mine
        self.assert_same_outcome(out, ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_skipped_points(self, fog06, table06, sensor, monkeypatch, workers):
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 999)
        cloud = random_cloud(3_000, seed=52, span=260.0)
        cloud.xyz[5::89, 1] = np.nan
        cloud.xyz[::97] = 0.0
        cloud.xyz[3::71] = -0.0
        cloud.intensity[7::83] = -1.0
        cloud.intensity[11::103] = np.nan
        ref = foggify_cloud(cloud, fog06, sensor, seed=6, table=table06, workers=workers)
        assert ref.stats.n_skipped > 0 and ref.stats.n_soft_replaced > 0
        assert np.any(np.linalg.norm(cloud.xyz, axis=1) > MAX_RANGE)
        out = foggify_cloud(self.copy_of(cloud), fog06, sensor, seed=6, table=table06,
                            workers=workers, in_place=True)
        self.assert_same_outcome(out, ref)

    def test_ply_read_cloud(self, fog06, table06, sensor, tmp_path, monkeypatch):
        path = tmp_path / "scan.ply"
        write_cloud(random_cloud(2_500, seed=53), path, CloudFormat("ply"))
        ref = foggify_cloud(read_cloud(path, CloudFormat("ply")), fog06, sensor, seed=2,
                            table=table06)
        cloud = read_cloud(path, CloudFormat("ply"))
        # both columns are strided views of one row array
        assert cloud.xyz.base is not None and cloud.xyz.base is cloud.intensity.base
        assert not cloud.xyz.flags.c_contiguous
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 999)
        out = foggify_cloud(cloud, fog06, sensor, seed=2, table=table06, workers=2,
                            in_place=True)
        assert out.cloud is cloud
        self.assert_same_outcome(out, ref)

    @pytest.mark.parametrize("in_place", [True, False])
    def test_bin_read_cloud(self, fog06, table06, sensor, tmp_path, monkeypatch, in_place):
        # five columns: a record-backed cloud carries the fifth through
        rows = np.column_stack((random_cloud(2_500, seed=55, span=150.0).xyz,
                                np.arange(2_500) % 7, np.arange(2_500))).astype("<f4")
        path = tmp_path / "scan.bin"
        rows.tofile(path)
        # the float64 cloud the reader once built: exact widenings of the records
        ref = foggify_cloud(PointCloud(rows[:, :3], rows[:, 3]), fog06, sensor, seed=2,
                            table=table06)
        cloud = read_cloud(path, CloudFormat("bin", columns=5))
        assert cloud.xyz.dtype == np.float32 and cloud.xyz.base is cloud.records.base
        monkeypatch.setattr(foggify, "_BLOCK_SIZE", 999)
        out = foggify_cloud(cloud, fog06, sensor, seed=2, table=table06, workers=2,
                            in_place=in_place)
        assert (out.cloud is cloud) == in_place
        assert 0 < out.stats.n_soft_replaced < 2_500
        # each relocated coordinate is rounded once, as the write of the float64 result is
        assert out.cloud.xyz.tobytes() == ref.cloud.xyz.astype("<f4").tobytes()
        assert out.cloud.intensity.tobytes() == ref.cloud.intensity.tobytes()
        assert out.provenance.tobytes() == ref.provenance.tobytes()
        assert out.stats == ref.stats
        assert out.cloud.records[:, 4].tobytes() == rows[:, 4].tobytes()
        if not in_place:
            assert cloud.records.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("frozen", ["xyz", "intensity"])
    def test_read_only_cloud_rejected_before_any_write(self, fog06, table06, sensor, frozen):
        cloud = random_cloud(2_000, seed=54)
        getattr(cloud, frozen).setflags(write=False)
        before = cloud.xyz.tobytes(), cloud.intensity.tobytes()
        with pytest.raises(ValueError, match="writable"):
            foggify_cloud(cloud, fog06, sensor, table=table06, in_place=True)
        assert (cloud.xyz.tobytes(), cloud.intensity.tobytes()) == before


class TestPointCloudType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), np.zeros(4))

    def test_float32_input_is_stored_as_float64(self):
        # only the bin reader builds a cloud with float32 xyz.  A constructor
        # that kept float32 rows moved their widening into every foggify
        # call: the benchmark's in-process 1M-point calls (`bulk-1m`, which
        # builds its clouds from float32 rows) took 0.031-0.033 s at the
        # median against 0.024-0.028 s
        rows = np.arange(12, dtype=np.float32).reshape(3, 4)
        cloud = PointCloud(rows[:, :3], rows[:, 3])
        assert cloud.xyz.dtype == cloud.intensity.dtype == np.float64
        assert cloud.records is None
        assert np.array_equal(cloud.xyz, rows[:, :3])
        assert np.array_equal(cloud.intensity, rows[:, 3])
