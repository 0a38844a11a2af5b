import dataclasses
import inspect
import sys
import tracemalloc

import numpy as np
import pytest

from lidarfog import (
    CloudFormat,
    FogParams,
    PointCloud,
    Provenance,
    SensorModel,
    SoftResponseTable,
    build_table,
    fog_from_alpha,
    foggify_cloud,
    intersect_returns,
    naive_soft_max,
    query_soft_max,
    read_cloud,
    soft_response_integral,
    write_cloud,
)
from lidarfog import foggify, tables
from lidarfog.cli import main
from lidarfog.optics import MAX_RANGE, RANGE_STEP, soft_response_integrals
from lidarfog.pointcloud_io import _IO_ROWS
from lidarfog.tables import _prefix_max_argmax

from oracles import naive_running_max


@pytest.fixture(scope="module")
def row06(fog06, sensor):
    """The integrals on the whole 2000-range grid; `build_table(fog06, sensor)`
    takes its prefix columns from the start of this row."""
    return soft_response_integrals(np.arange(1, 2001) * RANGE_STEP, fog06, sensor)


class TestBuild:
    def test_table_holds_its_columns_and_the_scalar_one_range(self):
        assert [f.name for f in dataclasses.fields(SoftResponseTable)] == [
            "alpha", "prefix_max", "prefix_argmax", "sensor"]
        assert list(inspect.signature(soft_response_integral).parameters) == [
            "r", "fog", "sensor"]

    def test_entries_match_direct_evaluation_bitwise(self, row06, fog06, sensor):
        for k in (1, 5, 9, 10, 47, 300, 2000):
            direct = soft_response_integral(k * RANGE_STEP, fog06, sensor)
            assert row06[k - 1] == direct

    def test_zero_entries_below_crossover_start(self, table06):
        # the integrals are >= 0, so a zero prefix max means nine zero entries
        assert np.count_nonzero(table06.prefix_max[:9] == 0.0) == 9
        assert np.count_nonzero(table06.prefix_argmax[:9] == 0.0) == 9
        assert table06.prefix_max[9] > 0.0
        assert table06.prefix_argmax[9] == 10 * RANGE_STEP

    def test_entry_count_and_extent(self, table06, fog06):
        # ceil((r2 + c*tau_h) / RANGE_STEP) + 1 entries: ceil(69.96) + 1 at 20 ns,
        # and the whole grid once the pulse span reaches past MAX_RANGE
        long_pulse = build_table(fog06, SensorModel(tau_h=1e-6))
        for table, n in ((table06, 71), (long_pulse, 2000)):
            assert len(table.prefix_max) == len(table.prefix_argmax) == n
            # the extent is inclusive: MAX_RANGE reads the last entry
            assert query_soft_max(table, MAX_RANGE) == (table.prefix_max[-1],
                                                        table.prefix_argmax[-1])
            with pytest.raises(ValueError, match="beyond table extent"):
                query_soft_max(table, np.nextafter(MAX_RANGE, np.inf))

    def test_prefix_max_nondecreasing(self, table06):
        assert np.all(np.diff(table06.prefix_max) >= 0.0)

    def test_prefix_arrays_consistent(self, table06, row06):
        best = 0.0
        best_r = 0.0
        for k in range(1, len(table06.prefix_max) + 1):
            v = row06[k - 1]
            if v > best:
                best, best_r = v, k * RANGE_STEP
            assert table06.prefix_max[k - 1] == best
            assert table06.prefix_argmax[k - 1] == best_r

    def test_all_finite_nonnegative(self, table06, row06):
        assert np.all(np.isfinite(row06))
        assert np.all(row06 >= 0.0)
        assert np.all(np.isfinite(table06.prefix_max))
        assert np.all(table06.prefix_max >= 0.0)

    def test_build_deterministic(self, fog06, sensor):
        again = build_table(fog06, sensor)
        other = build_table(fog06, sensor)
        assert np.array_equal(again.prefix_max, other.prefix_max)
        assert np.array_equal(again.prefix_argmax, other.prefix_argmax)

    def test_values_are_read_only(self, table06):
        for column in (table06.prefix_max, table06.prefix_argmax):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_build_peak_memory_stays_bounded(self):
        # blocks of optics._BLOCK_SIZE ranges keep the quadrature temporaries
        # small: about 0.8 MB for the 71-entry default table, 1.3 MB for all
        # 2000 ranges of the grid at the default sensor (7.5 MB in one block)
        fog, sensor = fog_from_alpha(0.06), SensorModel()
        grid = np.arange(1, 2001) * RANGE_STEP
        assert traced_peak(lambda: build_table(fog, sensor)) < 4e6
        assert traced_peak(lambda: soft_response_integrals(grid, fog, sensor)) < 4e6

    def test_sweep_build_peak_memory_stays_bounded(self):
        # a sweep builds its tables one after the other, so the 13-value
        # schedule needs no more temporaries than one table: about 0.8 MB
        fogs = [fog_from_alpha(round(0.005 * k, 3)) for k in range(13)]
        sensor = SensorModel()
        assert traced_peak(lambda: [build_table(fog, sensor) for fog in fogs]) < 4e6


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCloudPeakMemory:
    """Budgets in the cloud's bytes C = 32 n (float64 xyz and intensity).

    The CLI's bin path holds one buffer per file: the file's float32
    records and a float64 intensity column, 24 n bytes (0.75 C) at four
    columns.  The read fills the records with one `readinto`, `simulate`
    and `sweep` foggify the cloud in place with a few block buffers per
    thread, and the write narrows the intensity into the records and writes
    them in one write.  No stage makes a staging copy of a whole cloud.
    With whole-cloud copies, float64 record staging and 65536-row blocks,
    the same calls peaked at 2.9 C (1 worker) and 2.9-4.1 C (2 workers) for
    `foggify_cloud`, 2.0 C for the read and 1.5 C for the write; with
    whole-cloud float32 records beside a float64 cloud, 1.5 C for the read,
    0.5 C for the bin write and 1.2 C for the PLY write, and with the float64
    cloud widened a block at a time, 1.05 C for the read.  A PLY read that
    copied the rows' columns into the cloud peaked at 2.0 C.
    """

    N = 120_000
    # per thread: six float64 values per row of a 32768-row block.  A block
    # holds four float64 arrays and a bool mask at its lookup peak (33 bytes
    # per row traced on this cloud) and at most five values per relocated
    # row after it (40 bytes per row with every row relocated); the sixth
    # value is the margin
    BLOCK_WORKSET = 6 * 8 * 32768

    @pytest.fixture(scope="class")
    def cloud(self):
        # ranges 2-150 m: at alpha 0.06 about 3 in 4 points are relocated
        rng = np.random.default_rng(61)
        d = rng.normal(size=(self.N, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return PointCloud(d * rng.uniform(2.0, 150.0, (self.N, 1)), rng.uniform(0, 1, self.N))

    @pytest.mark.parametrize("workers", [1, 2, None])
    def test_foggify_cloud_holds_output_and_block_buffers(self, cloud, table06, fog06,
                                                          sensor, workers):
        peak = traced_peak(lambda: foggify_cloud(cloud, fog06, sensor, seed=1,
                                                 table=table06, workers=workers))
        # output xyz and intensity (C), uint8 provenance (n), block buffers; by
        # default the cloud's 4 blocks run in one thread
        threads = workers or 1
        assert peak < 32 * self.N + self.N + threads * self.BLOCK_WORKSET

    @pytest.mark.parametrize("workers", [1, 2, None])
    def test_foggify_in_place_holds_only_block_buffers(self, cloud, table06, fog06, sensor,
                                                       workers):
        mine = PointCloud(cloud.xyz.copy(), cloud.intensity.copy())
        peak = traced_peak(lambda: foggify_cloud(mine, fog06, sensor, seed=1, table=table06,
                                                 workers=workers, in_place=True))
        # the uint8 provenance (n) and the block buffers; no output cloud
        threads = workers or 1
        assert peak < self.N + threads * self.BLOCK_WORKSET

    @pytest.mark.parametrize("workers", [1, 2])
    def test_foggify_records_in_place_holds_only_block_buffers(self, cloud, table06, fog06,
                                                               sensor, tmp_path, workers):
        path = tmp_path / "scan.bin"
        write_cloud(cloud, path)
        records = read_cloud(path)
        peak = traced_peak(lambda: foggify_cloud(records, fog06, sensor, seed=1,
                                                 table=table06, workers=workers,
                                                 in_place=True))
        # float32 xyz adds a float32 gather per relocated column to the block buffers
        assert peak < self.N + workers * self.BLOCK_WORKSET

    def test_bin_read_widens_without_staging(self, cloud, tmp_path):
        path = tmp_path / "scan.bin"
        write_cloud(cloud, path)
        peak = traced_peak(lambda: read_cloud(path, CloudFormat("bin")))
        # one buffer of float32 records and float64 intensity (0.75 C) and
        # one block of finite flags
        assert peak < 0.8 * 32 * self.N

    def test_bin_write_stages_only_float32_records(self, cloud, tmp_path):
        peak = traced_peak(lambda: write_cloud(cloud, tmp_path / "out.bin"))
        # one block of float32 records: no whole-cloud record array
        assert peak < 0.1 * 32 * self.N

    def test_bin_write_of_records_stages_at_most_one_block(self, cloud, tmp_path):
        path = tmp_path / "scan.bin"
        write_cloud(cloud, path)
        records = read_cloud(path, CloudFormat("bin"))
        peak = traced_peak(lambda: write_cloud(records, tmp_path / "out.bin"))
        # the records are written in place: no more than one block of them
        assert peak <= 16 * _IO_ROWS
        assert (tmp_path / "out.bin").read_bytes() == path.read_bytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor fault counts as Linux reports them")
    def test_bin_files_in_a_loop_reuse_their_memory(self, cloud, table06, fog06, sensor,
                                                    tmp_path):
        # one allocation per cloud is taken again from the heap for the next
        # file; memory returned to the system after each file is faulted in
        # again, page by page (a 120k-point cloud's buffer is about 700 pages)
        import resource

        path, out = tmp_path / "scan.bin", tmp_path / "out.bin"
        write_cloud(cloud, path)
        for k in range(40):
            if k == 10:
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            foggy = foggify_cloud(read_cloud(path), fog06, sensor, seed=k, table=table06,
                                  in_place=True)
            write_cloud(foggy.cloud, out)
        per_file = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 30
        assert per_file < 200

    # per value of one _IO_ROWS block: its float64 and integer forms, the
    # 19-byte text field, the mask of its bytes and the text kept
    PLY_BLOCK_WORKSET = 100 * 4 * _IO_ROWS

    def test_ply_write_holds_records_and_one_block(self, cloud, tmp_path):
        peak = traced_peak(lambda: write_cloud(cloud, tmp_path / "out.ply", CloudFormat("ply")))
        # one block's records and work arrays, below the join's budget, so
        # the write never sets an `intersect` run's peak
        assert self.PLY_BLOCK_WORKSET < self.JOIN_BUDGET
        assert peak < self.PLY_BLOCK_WORKSET

    def test_ply_read_holds_one_row_array(self, cloud, tmp_path):
        path = tmp_path / "scan.ply"
        write_cloud(cloud, path, CloudFormat("ply"))
        peak = traced_peak(lambda: read_cloud(path, CloudFormat("ply")))
        # loadtxt's float64 rows (C), whose columns the cloud keeps as views
        assert peak < 1.4 * 32 * self.N

    # the dual-return join: the last scan's finite rows in cell-key order (C * 3/4),
    # its distinct keys and run bounds (C / 4 each at most), the mask and the
    # work arrays of one block of strongest rows
    JOIN_BUDGET = 2 * 32 * N

    @pytest.fixture(scope="class")
    def jittered(self, cloud):
        # within 7e-4 of its partner, and across a 2 mm cell face from it on some
        # axis for about one point in four, so the near-cell probes run
        rng = np.random.default_rng(62)
        return PointCloud(cloud.xyz + rng.uniform(-4e-4, 4e-4, (self.N, 3)), cloud.intensity)

    def test_intersect_holds_last_scan_once(self, cloud, jittered):
        peak = traced_peak(lambda: intersect_returns(jittered, cloud, tol=1e-3))
        # a join that hashed, sorted and copied both whole scans peaked at 5.75 C
        assert peak < self.JOIN_BUDGET

    def test_intersect_command_holds_two_clouds_and_the_join(self, cloud, jittered, tmp_path):
        paths = [tmp_path / "strongest.ply", tmp_path / "last.ply"]
        write_cloud(jittered, paths[0], CloudFormat("ply"))
        write_cloud(cloud, paths[1], CloudFormat("ply"))
        argv = ["intersect", *map(str, paths), "--format", "ply",
                "--output", str(tmp_path / "kept.ply")]
        peak = traced_peak(lambda: main(argv))
        # both clouds (2 C) and the join; the same command peaked at 7.8 C with
        # the join that copied both whole scans
        assert peak < 2 * 32 * self.N + self.JOIN_BUDGET


class TestPrefixHelper:
    def test_first_occurrence_tie_break(self):
        vals = np.array([0.0, 0.0, 3.0, 3.0, 1.0, 5.0, 5.0])
        pm, am = _prefix_max_argmax(vals)
        assert np.array_equal(pm, [0.0, 0.0, 3.0, 3.0, 3.0, 5.0, 5.0])
        assert am[0] == am[1] == 0.0  # no positive max yet: no contribution
        assert am[2] == am[3] == am[4] == pytest.approx(0.3)
        assert am[5] == am[6] == pytest.approx(0.6)


class TestQuery:
    def test_below_first_grid_point(self, table06):
        assert query_soft_max(table06, 0.05) == (0.0, 0.0)

    def test_domain_errors(self, table06):
        with pytest.raises(ValueError):
            query_soft_max(table06, 0.0)
        with pytest.raises(ValueError):
            query_soft_max(table06, -3.0)
        with pytest.raises(ValueError):
            query_soft_max(table06, MAX_RANGE + 1.0)

    def test_random_queries_match_naive_scan_bitwise(self, table06, row06):
        rng = np.random.default_rng(7)
        for r0 in rng.uniform(0.01, 200.0, 300):
            i_tmp, r_tmp = query_soft_max(table06, float(r0))
            k_max = int(r0 / RANGE_STEP)
            ref_i, ref_r = naive_running_max(row06, k_max)  # the whole grid's scan
            assert i_tmp == ref_i
            assert r_tmp == ref_r

    def test_matches_naive_full_recompute(self, table06, fog06, sensor):
        for r0 in (0.5, 2.34, 4.6, 17.25, 30.0):
            assert query_soft_max(table06, r0) == naive_soft_max(r0, fog06, sensor)

    def test_monotone_in_query_range(self, table06):
        r = np.linspace(0.2, 200.0, 500)
        vals = [query_soft_max(table06, float(x))[0] for x in r]
        assert np.all(np.diff(vals) >= 0.0)

    def test_argmax_not_beyond_query(self, table06):
        rng = np.random.default_rng(8)
        for r0 in rng.uniform(0.2, 200.0, 200):
            _, r_tmp = query_soft_max(table06, float(r0))
            assert r_tmp <= r0

    def test_snap_down_index_shared(self, sensor, monkeypatch):
        # strictly increasing entries make the chosen entry visible everywhere
        step = RANGE_STEP
        values = np.arange(1, 2001) * step
        pm, am = _prefix_max_argmax(values)
        fog = fog_from_alpha(0.06)
        table = SoftResponseTable(fog.alpha, pm, am, sensor)
        monkeypatch.setattr(tables, "soft_response_integral", lambda r, *args: r)
        k = np.arange(1, 2001)
        ranges = {"product": k * step,
                  "literal": np.array([float(f"{i // 10}.{i % 10}") for i in k])}
        chosen, below = {}, {}
        for kind, r0 in ranges.items():
            entry = (r0 / step).astype(np.int64)  # floor in floating point
            chosen[kind] = entry * step
            for r, want in zip(r0.tolist(), chosen[kind].tolist()):
                assert query_soft_max(table, r) == (want, want)
                assert naive_soft_max(r, fog, sensor) == (want, want)
            below[kind] = int(np.count_nonzero(entry == k - 1))
        # a median draw puts every relocated point exactly on r_tmp
        monkeypatch.setattr(foggify, "uniform01",
                            lambda seed, index: np.full(np.shape(index), 0.5))
        r0 = np.concatenate(list(ranges.values()))
        cloud = PointCloud(np.column_stack((r0, np.zeros_like(r0), np.zeros_like(r0))),
                           np.full(r0.size, 50.0))
        out = foggify_cloud(cloud, fog, sensor, rescale=False, table=table)
        assert np.all(out.provenance == Provenance.SOFT_REPLACED)
        assert np.array_equal(out.cloud.xyz[:, 0], np.concatenate(list(chosen.values())))
        assert below == {"product": 98, "literal": 697}
        assert query_soft_max(table, 4.3)[1] == 42 * step

    def test_saturation_beyond_peak(self, sensor):
        for alpha in (0.02, 0.03, 0.06):
            fog = FogParams(alpha=alpha, beta=0.0)
            table = build_table(fog, sensor)
            assert query_soft_max(table, 150.0) == query_soft_max(table, 200.0)
