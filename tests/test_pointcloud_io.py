import importlib.util
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lidarfog import (
    CloudFormat,
    MalformedFileError,
    PointCloud,
    foggify_cloud,
    intersect_returns,
    read_cloud,
    write_cloud,
)
from lidarfog import pointcloud_io
from lidarfog.cli import main
from lidarfog.pointcloud_io import _PLY_HEADER, _IO_ROWS

from oracles import brute_force_match_mask

BIN = CloudFormat("bin")
PLY = CloudFormat("ply")
SCENES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"


def load_scenes():
    """The benchmark's seeded KITTI-like scan generator."""
    spec = importlib.util.spec_from_file_location("perfbench_scenes", SCENES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_ply_text(cloud):
    """The per-row f-string writer the block writer must match byte for byte."""
    rows32 = np.column_stack((cloud.xyz, cloud.intensity)).astype("<f4")
    out = [_PLY_HEADER.format(n=len(cloud))]
    for x, y, z, i in rows32:
        out.append(f"{x:.6f} {y:.6f} {z:.6f} {i:.6f}\n")
    return "".join(out)


def reference_ply_body(path):
    """A whole-file per-line body parser: the declared count and the body's
    rows, of whatever shape, where every data line holds the same count of
    numbers; None in place of the rows otherwise.  A token with `_` counts
    as bad: `float()` takes `1_0`, the reader does not."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh]
    end = lines.index("end_header")
    n = int(lines[2].split()[-1])
    body = [ln.split() for ln in lines[end + 1:] if ln]
    if not body:
        return n, np.empty((0, 4))
    if len({len(parts) for parts in body}) > 1 or any("_" in v for parts in body for v in parts):
        return n, None
    try:
        return n, np.array([[float(v) for v in parts] for parts in body])
    except ValueError:
        return n, None


def ply_file(path, n, body):
    path.write_bytes((_PLY_HEADER.format(n=n) + body).encode("ascii"))
    return path


def assert_read_matches_reference(path):
    """The reader returns the reference's rows, bit for bit, where they are
    (n, 4), and raises naming the file otherwise; for a body of another
    shape, the message names the declared count."""
    n, expect = reference_ply_body(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a body without data
        if expect is not None and expect.shape == (n, 4):
            got = read_cloud(path, PLY, allow_nonfinite=True)
            assert np.column_stack((got.xyz, got.intensity)).tobytes() == expect.tobytes()
            return
        with pytest.raises(MalformedFileError) as err:
            read_cloud(path, PLY, allow_nonfinite=True)
    assert str(err.value).startswith(f"{path}: ")
    if expect is not None:
        assert f"header declares {n} vertices" in str(err.value)


F32_SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 1e-45, -1e-45, 1e-40, 1e30, 3.4e38, -3.4e38,
                5e-7, 1.5e-6, 2.5e-6)
# %.6f ties of the exact binary values, which round half to even
F32_TIES = (5e-7, 1.5e-6, 2.5e-7, -5e-7, -1.5e-6, -2.5e-7, 0.5, -0.0)
# the float32 values nearest 2**53 / 1e6: numpy formats the one below, and
# Python's %.6f formats a block holding the one above
F32_WIDE_EDGE = np.float32(2.0 ** 53 / 1e6)
assert float(F32_WIDE_EDGE) * 1e6 < 2.0 ** 53 <= float(np.nextafter(F32_WIDE_EDGE, np.inf)) * 1e6
# values that send their block to %.6f
F32_FALLBACK = (np.nan, np.inf, -np.inf, float(np.nextafter(F32_WIDE_EDGE, np.inf)), -1e10,
                3.4e38)


def f32_cloud(n, seed=0, span=100.0):
    """Random cloud whose values are exactly representable in float32."""
    rng = np.random.default_rng(seed)
    xyz = rng.uniform(-span, span, (n, 3)).astype(np.float32).astype(np.float64)
    inten = rng.uniform(0, 255, n).astype(np.float32).astype(np.float64)
    return PointCloud(xyz, inten)


def cell_edge_pairs(tol, n, seed, cells):
    """`n` strongest points on the join's cell grid decision points, each
    with a last point `tol` or the next double beyond it away, toward a face,
    an edge or a corner of the point's cell or away from it.

    On each axis a coordinate x puts its computed cell units u = x * scale on
    a cell face f or midpoint f + 1/2, for f in `cells`, where some double
    does, or just below or just above it.  Few cells give long runs of points
    in one cell; many cells leave most points no partner but their own.  From
    a face, a partner lies across it in the face's half of the cell, the near
    side; from a midpoint, a partner within tol stays in the cell, and would
    lie across the far face of narrower cells.  A partner along one axis is
    exactly that far away unless p +/- tol rounds.
    """
    # cells 2 * tol wide: the extent floor is far below that for |x| < 1e6 * tol
    scale = pointcloud_io._cell_scale(tol * tol, 0.0)
    xs = []
    for t in np.ravel([(f, f + 0.5) for f in cells]):
        x = t / scale
        cand = x + np.arange(-32, 33) * np.spacing(x)
        u = cand * scale
        xs += [cand[u < t].max(), *cand[u == t], cand[u > t].min()]
    rng = np.random.default_rng(seed)
    strongest = rng.choice(xs, (n, 3))
    # unit steps along one, two or three axes: (1, 0, 0), (3, 4, 0) / 5, (2, 3, 6) / 7
    steps = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [2 / 7, 3 / 7, 6 / 7]])
    steps = rng.permuted(steps[rng.integers(0, 3, n)], axis=1) * rng.choice([-1.0, 1.0], (n, 3))
    length = rng.choice([tol, np.nextafter(tol, np.inf)], (n, 1))
    return strongest, strongest + steps * length


class TestBinFormat:
    def test_empty_file_is_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(read_cloud(path, BIN)) == 0

    def test_record_count(self, tmp_path):
        path = tmp_path / "two.bin"
        path.write_bytes(np.arange(8, dtype="<f4").tobytes())
        cloud = read_cloud(path, BIN)
        assert len(cloud) == 2
        assert cloud.xyz[1, 0] == 4.0 and cloud.intensity[1] == 7.0

    def test_partial_record_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 33)
        with pytest.raises(MalformedFileError):
            read_cloud(path, BIN)

    def test_roundtrip_bitwise(self, tmp_path):
        cloud = f32_cloud(10_000, seed=1)
        path = tmp_path / "rt.bin"
        write_cloud(cloud, path, BIN)
        back = read_cloud(path, BIN)
        assert np.array_equal(back.xyz, cloud.xyz)
        assert np.array_equal(back.intensity, cloud.intensity)

    def test_empty_cloud_writes_zero_bytes(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_cloud(PointCloud(np.empty((0, 3)), np.empty(0)), path, BIN)
        assert path.stat().st_size == 0

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_cloud(tmp_path / "nope.bin", BIN)

    def test_nonfinite_rejected_by_default(self, tmp_path):
        rows = np.zeros((2, 4), dtype="<f4")
        rows[1, 0] = np.nan
        path = tmp_path / "nan.bin"
        path.write_bytes(rows.tobytes())
        with pytest.raises(MalformedFileError):
            read_cloud(path, BIN)
        cloud = read_cloud(path, BIN, allow_nonfinite=True)
        assert len(cloud) == 2 and np.isnan(cloud.xyz[1, 0])


class TestPlyFormat:
    def test_roundtrip_within_text_precision(self, tmp_path):
        cloud = f32_cloud(500, seed=2)
        path = tmp_path / "rt.ply"
        write_cloud(cloud, path, PLY)
        back = read_cloud(path, PLY)
        assert len(back) == 500
        assert np.allclose(back.xyz, cloud.xyz, rtol=0, atol=1e-5)
        assert np.allclose(back.intensity, cloud.intensity, rtol=0, atol=1e-5)

    def test_header_structure(self, tmp_path):
        path = tmp_path / "h.ply"
        write_cloud(f32_cloud(2), path, PLY)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 2" in lines
        assert lines[-1].count(" ") == 3  # body rows have 4 columns

    def test_malformed_headers_rejected(self, tmp_path):
        cases = {
            "nomagic.ply": "nothing\nend_header\n",
            "noend.ply": "ply\nformat ascii 1.0\nelement vertex 1\n",
            "badcount.ply": "ply\nformat ascii 1.0\nelement vertex 5\n"
                            "property float x\nproperty float y\nproperty float z\n"
                            "property float intensity\nend_header\n1 2 3 4\n",
            "badrow.ply": "ply\nformat ascii 1.0\nelement vertex 1\n"
                          "property float x\nproperty float y\nproperty float z\n"
                          "property float intensity\nend_header\n1 2 3\n",
            "badprops.ply": "ply\nformat ascii 1.0\nelement vertex 0\n"
                            "property float x\nend_header\n",
            "countword.ply": _PLY_HEADER.format(n="x") + "1 2 3 4\n",
            "negcount.ply": _PLY_HEADER.format(n=-3),
            "latin1.ply": _PLY_HEADER.format(n=1) + "1 2 3 4\xe9\n",
            "binary.ply": _PLY_HEADER.format(n=1).replace("ascii", "binary_little_endian")
                          + "1 2 3 4\n",
            "noformat.ply": _PLY_HEADER.format(n=1).replace("format ascii 1.0\n", "")
                            + "1 2 3 4\n",
        }
        for name, content in cases.items():
            path = tmp_path / name
            path.write_bytes(content.encode("latin-1"))
            with pytest.raises(MalformedFileError, match=re.escape(str(path))):
                read_cloud(path, PLY)
        for name in ("countword.ply", "negcount.ply", "binary.ply", "noformat.ply"):
            with pytest.raises(MalformedFileError, match="unsupported ply layout"):
                read_cloud(tmp_path / name, PLY)

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_cloud(PointCloud(np.empty((0, 3)), np.empty(0)), path, PLY)
        assert len(read_cloud(path, PLY)) == 0

    def test_failed_block_leaves_no_file(self, tmp_path, monkeypatch):
        blocks = []

        def second_block_fails(block):
            blocks.append(len(block))
            if len(blocks) == 2:
                raise RuntimeError("block 2 failed")
            return ply_text(block)

        ply_text = pointcloud_io._ply_text
        monkeypatch.setattr(pointcloud_io, "_ply_text", second_block_fails)
        with pytest.raises(RuntimeError, match="block 2 failed"):
            write_cloud(f32_cloud(2 * _IO_ROWS + 1), tmp_path / "w.ply", PLY)
        assert blocks == [_IO_ROWS, _IO_ROWS]
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rows=hnp.arrays(np.float32, st.tuples(st.integers(1, 16), st.just(4)),
                           elements=st.floats(width=32) | st.sampled_from(F32_SPECIALS)),
           n=st.sampled_from((0, 1, 5, _IO_ROWS, _IO_ROWS + 1)))
    def test_block_writer_matches_row_writer(self, tmp_path_factory, rows, n):
        rows = np.resize(rows, (n, 4)).astype(np.float64)
        cloud = PointCloud(rows[:, :3], rows[:, 3])
        path = tmp_path_factory.mktemp("ply") / "w.ply"
        write_cloud(cloud, path, PLY)
        assert path.read_bytes() == reference_ply_text(cloud).encode("ascii")

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           spoiled=st.lists(st.booleans(), min_size=3, max_size=3),
           special=st.sampled_from(F32_FALLBACK))
    def test_block_writer_matches_percent_format_on_bit_patterns(self, tmp_path_factory, seed,
                                                                 spoiled, special):
        # three blocks of random float32 bit patterns below 2**33, subnormals
        # included, with ties and the edge value below 2**53 / 1e6 scattered
        # in; each spoiled block also holds one value only %.6f formats
        rng = np.random.default_rng(seed)
        n = 2 * _IO_ROWS + 5
        bits = rng.integers(0, 2 ** 32, 4 * n, dtype=np.uint32) & np.uint32(0x807FFFFF)
        bits |= rng.integers(0, 127 + 33, 4 * n, dtype=np.uint32) << np.uint32(23)
        values = bits.view(np.float32)
        values[rng.integers(0, 4 * n, 64)] = rng.choice((*F32_TIES, F32_WIDE_EDGE), 64)
        for k, spoil in enumerate(spoiled):
            if spoil:
                values[4 * (k * _IO_ROWS + rng.integers(0, 5))] = special
        rows = values.reshape(n, 4)
        for k, spoil in enumerate(spoiled):
            block = rows[k * _IO_ROWS:(k + 1) * _IO_ROWS]
            assert (pointcloud_io._ply_text(block) is None) == spoil
        cloud = PointCloud(rows[:, :3].astype(np.float64), rows[:, 3].astype(np.float64))
        path = tmp_path_factory.mktemp("ply") / "w.ply"
        write_cloud(cloud, path, PLY)
        body = ("%.6f %.6f %.6f %.6f\n" * n) % tuple(rows.ravel().tolist())
        assert path.read_bytes() == (_PLY_HEADER.format(n=n) + body).encode("ascii")

    @pytest.mark.parametrize("n, body", [
        (2, "1 2 3 4\n5 6 7 8\n"),
        (2, "\n1 2 3 4\n\n \t \n5 6 7 8\n\n"),     # blank and whitespace-only lines
        (2, "1\t2\t3\t4\n\t5 \t6 7\t 8\t\n"),        # tabs
        (2, "1\x0c2 3 4\n5 6 7 8\x0c\n"),              # form feed
        (2, "1\x0b2 3 4\n5 6 7\x1c8\n"),               # other ASCII whitespace
        (2, "1 2 3 4\r\n5 6 7 8\r\n"),                 # CRLF
        (2, "1 2 3 4\r5 6 7 8\r"),                     # CR
        (2, "1 2 3 4\n5 6 7 8"),                       # no final newline
        (2, "1_0 2 3 4\n5 6 7 8\n"),                   # float() takes it, the reader does not
        (2, "nan Infinity -inf +NaN\n-nan 1e400 -1e-400 iNf\n"),
        (2, "+1 .5 5. -0\n1e5 1E-5 +.5e+2 -0.0\n"),
        (1, "0.100000000000000005551115123125782702118158340454101562 2 3 4\n"),
        (2, "1 2 3\n5 6 7\n"),                         # 3 columns
        (2, "1 2 3 4 5\n5 6 7 8 9\n"),                 # 5 columns
        (2, "1 2 3 4\n5 6 7\n"),
        (1, "1 2 3 4\n5 6 7 8\n"),                     # too many rows
        (3, "1 2 3 4\n5 6 7 8\n"),                     # too few rows
        (2, ""),
        (2, "\n  \n"),
        (0, ""),
        (0, "\n\n"),
        (0, "1 2 3 4\n"),                              # n = 0 with rows
        (4, "1\n2\n3\n4\n"),
        (2, "# comment\n1 2 3 4\n"),
        (2, "1 2 3 4\n5 6 7 8 # comment\n"),
        (2, "1 2 3 4\x00\n5 6 7 8\n"),
        (2, '"1" 2 3 4\n5 6 7 8\n'),
        (2, "1,2 3 4 5\n5 6 7 8\n"),
        (2, "0x1p3 2 3 4\n5 6 7 8\n"),
        (2, "1 2 3 4\nabc 6 7 8\n"),
        (1, "1j 2 3 4\n"),
        (1, "- 1 2 3 4\n"),
    ])
    def test_reader_matches_line_parser(self, tmp_path, n, body):
        assert_read_matches_reference(ply_file(tmp_path / "c.ply", n, body))

    @pytest.mark.parametrize("blank", ["", "\n\n"], ids=["data-first", "two-blank-lines"])
    @pytest.mark.parametrize("line, fault", [
        ("5 abc 7 8", "'abc' is not a number"),
        ("5 6 7", "3 values, expected 4"),
    ], ids=["bad-token", "short-line"])
    def test_body_error_names_line_of_file(self, tmp_path, blank, line, fault):
        body = blank + "1 2 3 4\n" + line + "\n9 9 9 9\n"
        # the written header of 8 lines, and one with comment and obj_info lines
        commented = _PLY_HEADER.replace("element", "comment by hand\nobj_info scan 7\nelement")
        for header in (_PLY_HEADER, commented):
            path = tmp_path / "bad.ply"
            path.write_bytes((header.format(n=3) + body).encode("ascii"))
            # the header lines, the blank lines, the first data line
            lineno = header.count("\n") + len(blank) + 2
            with pytest.raises(MalformedFileError) as err:
                read_cloud(path, PLY)
            assert str(err.value) == f"{path}: line {lineno}: {fault}"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=st.lists(st.lists(st.sampled_from(
        ("1", "-2.5", "1e3", "nan", "-inf", "Infinity", "1_0", "0x1", "+.5", "1e400",
         "abc", "", "#")), min_size=0, max_size=6), max_size=8),
        seps=st.lists(st.sampled_from((" ", "\t", "  ", "\x0c")), min_size=1),
        ends=st.lists(st.sampled_from(("\n", "\r\n", "\n\n", " \n")), min_size=1),
        extra=st.integers(-1, 1))
    def test_reader_matches_line_parser_on_token_soup(self, tmp_path_factory, rows, seps,
                                                       ends, extra):
        body = "".join(seps[i % len(seps)].join(row) + ends[i % len(ends)]
                       for i, row in enumerate(rows))
        n = max(len(rows) + extra, 0)
        assert_read_matches_reference(ply_file(tmp_path_factory.mktemp("ply") / "s.ply", n, body))


class TestColumnOverride:
    def test_extra_columns_kept_beside_xyz_and_intensity(self, tmp_path):
        rows = np.arange(10, dtype="<f4").reshape(2, 5)  # x y z i channel
        path = tmp_path / "five.bin"
        path.write_bytes(rows.tobytes())
        cloud = read_cloud(path, CloudFormat("bin", columns=5))
        assert len(cloud) == 2
        assert np.array_equal(cloud.xyz, rows[:, :3])
        assert np.array_equal(cloud.intensity, rows[:, 3])
        assert cloud.records.tobytes() == rows.tobytes()
        write_cloud(cloud, tmp_path / "copy.bin")
        assert (tmp_path / "copy.bin").read_bytes() == rows.tobytes()

    def test_partial_record_respects_columns(self, tmp_path):
        path = tmp_path / "bad5.bin"
        path.write_bytes(b"\x00" * 32)  # fine for 4 columns, partial for 5
        assert len(read_cloud(path, CloudFormat("bin"))) == 2
        with pytest.raises(MalformedFileError):
            read_cloud(path, CloudFormat("bin", columns=5))


class TestFormatType:
    def test_validation(self):
        with pytest.raises(ValueError):
            CloudFormat("pcd")
        with pytest.raises(ValueError):
            CloudFormat("bin", columns=3)
        with pytest.raises(ValueError):
            CloudFormat("ply", columns=5)


class TestIntersect:
    def test_identical_clouds_zero_tolerance(self):
        cloud = f32_cloud(1_000, seed=3)
        kept = intersect_returns(cloud, cloud, tol=0.0)
        assert np.array_equal(kept.xyz, cloud.xyz)
        assert np.array_equal(kept.intensity, cloud.intensity)

    def test_disjoint_clouds(self):
        a = f32_cloud(100, seed=4)
        b = PointCloud(a.xyz + 1000.0, a.intensity)
        assert len(intersect_returns(a, b, tol=1e-3)) == 0

    def test_jittered_match(self):
        strongest = PointCloud(np.array([[1.0, 2.0, 3.0], [50.0, 0.0, 0.0]]),
                               np.array([10.0, 20.0]))
        last = PointCloud(np.array([[1.0 + 1e-4, 2.0, 3.0]]), np.array([5.0]))
        kept = intersect_returns(strongest, last, tol=1e-3)
        assert len(kept) == 1
        assert np.array_equal(kept.xyz[0], strongest.xyz[0])
        mask = brute_force_match_mask(strongest.xyz, last.xyz, 1e-3)
        assert np.array_equal(mask, [True, False])

    def test_matches_brute_force(self, monkeypatch):
        rng = np.random.default_rng(5)
        strongest = PointCloud(rng.uniform(0, 10, (200, 3)), rng.uniform(0, 1, 200))
        last = PointCloud(rng.uniform(0, 10, (200, 3)), rng.uniform(0, 1, 200))
        edges = [(*cell_edge_pairs(tol, 400, seed, cells), tol)
                 for seed, tol, cells in ((12, 0.125, (-3, 0, 2)), (13, 0.5, range(-90, 90, 3)))]
        cases = [(strongest.xyz, last.xyz, tol) for tol in (0.1, 0.5, 1.0)] + edges
        masks = [brute_force_match_mask(a, b, tol) for a, b, tol in cases]
        assert all(0 < np.count_nonzero(mask) < len(mask) for mask in masks[-len(edges):])
        # blocks of 1 and 7 rows split runs of strongest points in one cell
        for chunk in (1, 7, pointcloud_io._CHUNK_ROWS):
            monkeypatch.setattr(pointcloud_io, "_CHUNK_ROWS", chunk)
            for (a, b, tol), mask in zip(cases, masks):
                kept = intersect_returns(PointCloud(a, np.arange(len(a), dtype=float)),
                                         PointCloud(b, np.zeros(len(b))), tol=tol)
                assert np.array_equal(kept.intensity, np.flatnonzero(mask)), (tol, chunk)

    def test_subset_and_order_preserved(self):
        rng = np.random.default_rng(6)
        strongest = PointCloud(rng.uniform(0, 5, (300, 3)), np.arange(300, dtype=float))
        last = PointCloud(rng.uniform(0, 5, (100, 3)), np.zeros(100))
        kept = intersect_returns(strongest, last, tol=0.3)
        assert np.all(np.diff(kept.intensity) > 0)  # original order, subset by index

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        s = PointCloud(rng.uniform(0, 5, (300, 3)), rng.uniform(0, 1, 300))
        last = PointCloud(rng.uniform(0, 5, (300, 3)), rng.uniform(0, 1, 300))
        once = intersect_returns(s, last, tol=0.25)
        twice = intersect_returns(once, last, tol=0.25)
        assert np.array_equal(once.xyz, twice.xyz)

    def test_empty_inputs(self):
        empty = PointCloud(np.empty((0, 3)), np.empty(0))
        full = f32_cloud(10)
        assert len(intersect_returns(empty, full, tol=1.0)) == 0
        assert len(intersect_returns(full, empty, tol=1.0)) == 0

    def test_negative_tolerance_rejected(self):
        cloud = f32_cloud(2)
        with pytest.raises(ValueError):
            intersect_returns(cloud, cloud, tol=-0.1)

    def test_nonfinite_points_match_nothing(self):
        rng = np.random.default_rng(8)
        last_xyz = rng.uniform(-5, 5, (200, 3))
        strongest_xyz = last_xyz[:120].copy()
        strongest_xyz[[3, 40, 77], [0, 2, 1]] = [np.nan, np.inf, -np.inf]
        last_xyz[[5, 90], [1, 0]] = [np.nan, np.inf]  # rows 5 and 90 confirm nothing
        strongest = PointCloud(strongest_xyz, np.arange(120.0))
        last = PointCloud(last_xyz, np.zeros(200))
        for tol in (0.0, 1e-3, 2.0, np.inf):
            kept = intersect_returns(strongest, last, tol=tol)
            assert np.all(np.isfinite(kept.xyz))
            mask = brute_force_match_mask(strongest.xyz, last.xyz, tol)
            assert np.array_equal(kept.intensity, np.flatnonzero(mask)), tol
            assert not mask[[3, 40, 77]].any()
            if tol < 1.0:
                assert not mask[[5, 90]].any()
        nan_only = PointCloud(np.full((4, 3), np.nan), np.zeros(4))
        assert len(intersect_returns(strongest, nan_only, tol=np.inf)) == 0

    def test_near_boundary_points_follow_the_squared_rule(self):
        # 12k points tol*(1 + k*1e-16) from a last point along random
        # directions: the k-d tree ball query, the oracle and the join agree,
        # and comparing a square root with tol would not
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(11)
        tol, n = 0.5, 12_000
        last_xyz = rng.uniform(-50, 50, (100, 3))
        u = rng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        offset = tol * (1.0 + rng.integers(-8, 9, n) * 1e-16)
        strongest_xyz = last_xyz[rng.integers(0, 100, n)] + u * offset[:, None]
        edge_strongest, edge_last = cell_edge_pairs(tol, 600, 14, range(-50, 50))
        strongest_xyz = np.concatenate([strongest_xyz, edge_strongest])
        last_xyz = np.concatenate([last_xyz, edge_last])
        n += 600
        kept = intersect_returns(PointCloud(strongest_xyz, np.arange(float(n))),
                                 PointCloud(last_xyz, np.zeros(len(last_xyz))), tol=tol)
        ball = cKDTree(last_xyz).query_ball_point(strongest_xyz, r=tol, return_length=True) > 0
        assert np.array_equal(kept.intensity, np.flatnonzero(ball))
        assert np.array_equal(brute_force_match_mask(strongest_xyz, last_xyz, tol), ball)
        root = np.array([np.any(np.sqrt(((last_xyz - p) ** 2).sum(axis=1)) <= tol)
                         for p in strongest_xyz])
        assert np.count_nonzero(root != ball) > 0

    def test_signed_zero_matches_at_zero_tolerance(self):
        strongest = PointCloud(np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0]]), np.zeros(2))
        last = PointCloud(np.array([[-0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), np.zeros(2))
        assert len(intersect_returns(strongest, last, tol=0.0)) == 2

    def test_huge_tolerance_keeps_every_finite_point(self):
        # 50k x 50k in one cell: every pair would be 2.5e9 candidates
        rng = np.random.default_rng(9)
        strongest_xyz = rng.uniform(-100, 100, (50_000, 3))
        strongest_xyz[:10, 1] = np.nan
        strongest = PointCloud(strongest_xyz, np.arange(50_000.0))
        last = PointCloud(rng.uniform(-100, 100, (50_000, 3)), np.zeros(50_000))
        for tol in (1e6, np.inf):
            kept = intersect_returns(strongest, last, tol=tol)
            assert np.array_equal(kept.intensity, np.arange(10.0, 50_000.0)), tol

    def test_crowded_cell_memory_stays_bounded(self):
        # every strongest point shares its cell with every last point but is
        # farther than tol from all of them: 10k x 1000 candidate pairs, whose
        # offsets alone would take 240 MB if built at once
        rng = np.random.default_rng(10)
        last = PointCloud(0.01 + rng.uniform(0, 1e-3, (1_000, 3)), np.zeros(1_000))
        strongest = PointCloud(0.99 - rng.uniform(0, 1e-3, (10_000, 3)), np.zeros(10_000))
        tracemalloc.start()
        try:
            kept = intersect_returns(strongest, last, tol=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) == 0
        # 17.6 MB with 2**18 pairs per pass, 5.0 MB with 2**16
        assert peak < 8e6

    @pytest.mark.parametrize("fmt", [BIN, PLY], ids=["bin", "ply"])
    def test_scan_output_equals_kdtree_filter(self, tmp_path, fmt, sensor, fog06, table06):
        """On a foggified ~120k-point scan the output file has the bytes of the
        k-d tree filter this join replaced."""
        from scipy.spatial import cKDTree

        rows = load_scenes().make_scan(401_000)
        clear = PointCloud(rows[:, :3].astype(np.float64), rows[:, 3].astype(np.float64))
        foggy = foggify_cloud(clear, fog06, sensor, seed=401, table=table06).cloud
        paths = {}
        for name, cloud in (("strongest", foggy), ("last", clear)):
            paths[name] = tmp_path / f"{name}.{fmt.kind}"
            write_cloud(cloud, paths[name], fmt)
        strongest = read_cloud(paths["strongest"], fmt)
        tree = cKDTree(read_cloud(paths["last"], fmt).xyz)
        for tol in ("0", "1e-3", "0.5"):
            out = tmp_path / f"out_{tol}.{fmt.kind}"
            assert main(["intersect", str(paths["strongest"]), str(paths["last"]),
                         "--format", fmt.kind, "--tolerance", tol, "--output", str(out)]) == 0
            mask = tree.query_ball_point(strongest.xyz, r=float(tol), return_length=True) > 0
            ref = tmp_path / f"ref_{tol}.{fmt.kind}"
            write_cloud(PointCloud(strongest.xyz[mask], strongest.intensity[mask]), ref, fmt)
            assert out.read_bytes() == ref.read_bytes(), tol
