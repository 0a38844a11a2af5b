"""Point-cloud file IO and the dual-return intersection filter.

Two formats: the headerless binary record layout used by KITTI-style
datasets (consecutive little-endian float32 x, y, z, intensity, then any
extra per-point fields) and a plain ASCII PLY with the same four
properties.  A binary file is read with one `readinto` into the records of
a record-backed cloud and written back with one write, so round-trips are
bit-exact and extra fields are kept.  PLY text is streamed both ways.  The
body is read by one `np.loadtxt` pass over the open file, whose rows become
the cloud; a body loadtxt rejects is read once more to name the file's
first line that is not 4 numbers.  It is written in blocks of `_IO_ROWS`
rows, each formatted by numpy with the bytes of %.6f (`_ply_text`); a block
holding NaN, inf or a magnitude of 2**53 / 1e6 or more, which numpy cannot
format exactly, goes through Python's % operator instead.

`intersect_returns` keeps the points of a strongest-return scan that have a
counterpart in the last-return scan of the same sweep; everything a
dual-mode sensor reports in only one of the two echoes is scattering noise,
not a solid object.  It is a numpy cell-hash join on a grid of cells at
least twice `tol` wide.  The last-return scan is hashed, sorted and copied
once; the strongest scan is walked in blocks of `_CHUNK_ROWS` rows.  Each
strongest point is checked against the last-return points of its own cell,
and only the points still unmatched look in the 7 neighbouring cells that
touch the octant of their cell they lie in.
"""

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .foggify import PointCloud

BIN_KIND = "bin"
PLY_KIND = "ply"
DEFAULT_MATCH_TOLERANCE = 1e-3  # [m]
# rows per block of the finite check of a read, the write of a cloud without
# records and the PLY write: bounds the flags, float32 records and text held at once
_IO_ROWS = 8192


class MalformedFileError(Exception):
    """File content violates the declared point-cloud format."""


@dataclass(frozen=True)
class CloudFormat:
    """Record layout declaration.

    `columns` covers binary datasets that append extra per-point fields
    (channel, timestamp, ring index, ...) after x, y, z, intensity: records
    are read as that many float32 values, and the cloud keeps them whole,
    so writing it carries the extras through unchanged.  A cloud without
    records (PLY, or built in Python) is written as the canonical four
    columns.
    """

    kind: str = BIN_KIND
    columns: int = 4

    def __post_init__(self):
        if self.kind not in (BIN_KIND, PLY_KIND):
            raise ValueError(f"unknown cloud format kind {self.kind!r}")
        if self.columns < 4:
            raise ValueError(f"records need at least 4 columns, got {self.columns}")
        if self.columns != 4 and self.kind != BIN_KIND:
            raise ValueError("column-count override applies to the binary format only")


def _finite_rows(rows: np.ndarray) -> np.ndarray:
    """Whether each row's values are all finite, built column by column:
    about a tenth of the time of `np.isfinite(rows).all(axis=1)` on 8192-row
    blocks of 3 to 5 columns."""
    finite = np.isfinite(rows[:, 0])
    for j in range(1, rows.shape[1]):
        finite &= np.isfinite(rows[:, j])
    return finite


def _check_finite(rows: np.ndarray, path):
    """Reject a file whose rows hold NaN or infinite values, counted
    `_IO_ROWS` rows at a time.  Only a block that is not all finite gets its
    row flags: a 120k-record bin read took 0.68 ms with the whole-block
    test and 0.98 ms with row flags for every block (2 vCPUs)."""
    bad = 0
    for lo in range(0, len(rows), _IO_ROWS):
        block = rows[lo:lo + _IO_ROWS]
        if not np.isfinite(block).all():
            bad += int(np.count_nonzero(~_finite_rows(block)))
    if bad:
        raise MalformedFileError(
            f"{path}: {bad} record(s) with non-finite values "
            "(pass allow_nonfinite to keep them)"
        )


def _read_bin(path, allow_nonfinite: bool, columns: int) -> PointCloud:
    """The records of a binary file as a record-backed cloud.

    The size is taken from the open file and the records are read with one
    `readinto` into the cloud's buffer, which holds them and the float64
    intensity.  The finite check counts `_IO_ROWS` records at a time, and
    column 3 is widened into the intensity (exactly), so the call holds the
    cloud and one block of flags.  A file that ends before the size it had
    when opened is malformed.
    """
    record_bytes = 4 * columns
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % record_bytes != 0:
            raise MalformedFileError(
                f"{path}: size {size} is not a multiple of the {record_bytes}-byte record"
            )
        cloud = PointCloud._empty_records(size // record_bytes, columns)
        got = fh.readinto(cloud.records)
        if got != size:
            raise MalformedFileError(f"{path}: file ended at byte {got} "
                                     f"of the {size} it had when opened")
    rows = cloud.records[:, :4]
    if not allow_nonfinite:
        _check_finite(rows, path)
    with np.errstate(invalid="ignore"):  # raised as a signaling NaN widens
        cloud.intensity[:] = rows[:, 3]
    return cloud


_PLY_HEADER = """ply
format ascii 1.0
element vertex {n}
property float x
property float y
property float z
property float intensity
end_header
"""
_PLY_ROW = "%.6f %.6f %.6f %.6f\n"
# numpy lays each value's text right-aligned in a row of _PLY_FIELD bytes: a
# sign and 10 integer digits, the point at column _PLY_POINT, 6 decimals and
# the separator
_PLY_FIELD = 19
_PLY_POINT = 11


def _read_ply_header(fh, path):
    """Consume the header through `end_header`; return its vertex and line counts."""
    if fh.readline().strip() != "ply":
        raise MalformedFileError(f"{path}: missing ply magic line")
    if fh.readline().strip() != "format ascii 1.0":
        raise MalformedFileError(f"{path}: unsupported ply layout")
    n = None
    props = []
    # readline, not iteration, so that the caller can still tell() the body's offset
    for lines, raw in enumerate(iter(fh.readline, ""), 3):
        ln = raw.strip()
        if ln == "end_header":
            break
        if ln.startswith("element vertex "):
            try:
                n = int(ln.split()[-1])
            except ValueError:
                n = -1  # reported as an unsupported layout below
        elif ln.startswith("property "):
            props.append(ln.split()[-1])
    else:
        raise MalformedFileError(f"{path}: missing end_header")
    if n is None or n < 0 or props != ["x", "y", "z", "intensity"]:
        raise MalformedFileError(f"{path}: unsupported ply layout")
    return n, lines


def _is_number(token: str) -> bool:
    """Whether loadtxt reads `token`: as `float()` does, but not 1_0."""
    try:
        float(token)
    except ValueError:
        return False
    return "_" not in token


def _first_bad_line(fh, start, header_lines: int):
    """`line L: ...` (L counted from the file's first line) for the first body
    line of `fh`, read from offset `start`, that is not 4 numbers, else None."""
    fh.seek(start)
    for lineno, raw in enumerate(fh, header_lines + 1):
        parts = raw.split()
        if parts and len(parts) != 4:
            return f"line {lineno}: {len(parts)} values, expected 4"
        bad = next((token for token in parts if not _is_number(token)), None)
        if bad is not None:
            return f"line {lineno}: {bad!r} is not a number"
    return None


def _read_ply(path, allow_nonfinite: bool) -> PointCloud:
    """The body of an ASCII ply file as a cloud, from one `np.loadtxt` pass
    over the open file: `xyz` and `intensity` are views of its rows.  loadtxt
    parses numbers with the same C routine as `float()`, so each value has
    the bits `float()` gives its text.  When loadtxt fails, the body is read
    again to name the first line that is not 4 numbers."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            n, header_lines = _read_ply_header(fh, path)
            start = fh.tell()
            if any(raw.strip() for raw in iter(fh.readline, "")):
                fh.seek(start)
                try:
                    rows = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
                except ValueError as exc:
                    bad = _first_bad_line(fh, start, header_lines) or exc
                    raise MalformedFileError(f"{path}: {bad}") from None
            else:
                rows = np.empty((0, 4))  # loadtxt warns on a body without data
    except UnicodeDecodeError:
        raise MalformedFileError(f"{path}: not an ASCII ply file") from None
    if rows.shape != (n, 4):
        raise MalformedFileError(f"{path}: header declares {n} vertices of 4 values, "
                                 f"found {rows.shape[0]} rows of {rows.shape[1]}")
    if not allow_nonfinite:
        _check_finite(rows, path)
    return PointCloud(rows[:, :3], rows[:, 3])


def read_cloud(path, fmt: CloudFormat = CloudFormat(), allow_nonfinite: bool = False) -> PointCloud:
    """Load a point cloud.

    Raises OSError for filesystem trouble and MalformedFileError for content
    that breaks the format (partial trailing record, bad PLY header or body,
    and — unless allow_nonfinite — NaN/inf values).
    """
    if fmt.kind == BIN_KIND:
        return _read_bin(path, allow_nonfinite, fmt.columns)
    return _read_ply(path, allow_nonfinite)


def _ply_text(block: np.ndarray):
    """The `_PLY_ROW` text of the float32 rows of `block`, as a uint8 array;
    None when a value is NaN, infinite or of magnitude 2**53 / 1e6 or more.

    A float32 widened to float64 times 1e6 is exact (24 + 14 significant
    bits), so its rint rounds half to even as %.6f does, and below 2**53 it
    is an exact integer count of millionths.  Its digits, the point, the
    sign (from signbit, so -0.0 gives -0.000000) and the separator fill one
    `_PLY_FIELD`-byte row per value, whose unused leading bytes are dropped.
    """
    values = block.astype(np.float64).ravel()
    micro = np.abs(values)
    micro *= 1e6
    np.rint(micro, out=micro)
    if not (micro < 2.0 ** 53).all():  # NaN fails it too
        return None
    micro = micro.astype(np.uint64)
    whole = micro // 1000000
    decimals = (micro - whole * 1000000).astype(np.uint32)
    field = np.empty((len(values), _PLY_FIELD), dtype=np.uint8)
    for col in range(_PLY_POINT + 6, _PLY_POINT, -1):
        rest = decimals // 10
        field[:, col] = decimals - rest * 10
        decimals = rest
    digits = len(str(int(whole.max())))  # integer digits of the widest value
    width = np.ones(len(values), dtype=np.uint8)  # integer digits of each value
    for col in range(_PLY_POINT - 1, _PLY_POINT - 1 - digits, -1):
        rest = whole // 10
        field[:, col] = whole - rest * 10
        width += rest > 0
        whole = rest
    field += ord("0")
    field[:, _PLY_POINT] = ord(".")
    field[:, -1] = ord(" ")
    field[3::4, -1] = ord("\n")
    neg = np.signbit(values)
    start = _PLY_POINT - width - neg  # the column of each value's first byte
    signs = np.flatnonzero(neg)
    field.reshape(-1)[signs * _PLY_FIELD + start[signs]] = ord("-")
    lo = _PLY_POINT - 1 - digits  # no value's text starts before this column
    return field[:, lo:][np.arange(lo, _PLY_FIELD, dtype=np.uint8) >= start[:, None]]


def _write_blocks(fh, cloud: PointCloud, kind: str) -> None:
    """Write `cloud` to `fh` as four-column binary records or PLY text,
    narrowing it `_IO_ROWS` rows at a time into one reused float32 (B, 4)
    buffer, filled column by column with the cast of `astype`, so no
    whole-cloud record array is made."""
    n = len(cloud)
    if kind == PLY_KIND:
        fh.write(_PLY_HEADER.format(n=n).encode("ascii"))
    buf = np.empty((min(n, _IO_ROWS), 4), dtype="<f4")
    for lo in range(0, n, _IO_ROWS):
        block = buf[:min(n - lo, _IO_ROWS)]
        for j in range(3):
            block[:, j] = cloud.xyz[lo:lo + len(block), j]
        block[:, 3] = cloud.intensity[lo:lo + len(block)]
        if kind == BIN_KIND:
            fh.write(block)
            continue
        text = _ply_text(block)
        if text is None:
            # %.6f of a float32 widened to a Python float is the text
            # of f"{np.float32(x):.6f}", nan, inf and -0.0 included
            text = (_PLY_ROW * len(block)) % tuple(block.ravel().tolist())
            text = text.encode("ascii")
        fh.write(text)


def write_cloud(cloud: PointCloud, path, fmt: CloudFormat = CloudFormat()) -> None:
    """Write a cloud atomically (temp file + rename).

    A record-backed cloud written as binary has its intensity narrowed into
    column 3 of its records, which are then written whole in one write,
    extra columns included and xyz bytes as they are.  Any other cloud, and
    every PLY write, goes through `_write_blocks`.  Reading binary output
    back reproduces its records bit-exactly.  PLY text keeps six decimals,
    good to 5e-7 absolute per coordinate: each block is formatted by numpy
    (`_ply_text`), or with Python's %.6f when it holds a value numpy cannot
    format exactly.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            if cloud.records is not None and fmt.kind == BIN_KIND:
                cloud.records[:, 3] = cloud.intensity
                fh.write(cloud.records)
            else:
                _write_blocks(fh, cloud, fmt.kind)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# odd 64-bit multipliers that hash a cell's integer (ix, iy, iz) to one key;
# two cells that share a key only add candidates, which the distance rule drops
_CELL_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
                      dtype=np.uint64)
# the 7 cells beside a cell on one chosen side of each axis, as 0/1 steps per
# axis: the 3 across a face first, then the 3 across an edge, then the corner
_NEAR_CELLS = np.array(sorted(itertools.product((0, 1), repeat=3), key=sum)[1:],
                       dtype=np.uint64)
_PAIR_BUDGET = 1 << 16  # candidate pairs checked per numpy pass: bounds the join's memory
_CHUNK_ROWS = 1 << 13  # strongest rows joined per pass: bounds the join's working set


def _cell_scale(tol2: float, extent: float) -> float:
    """Cells per metre of the join's grid, given an `extent` that bounds
    every finite |coordinate| of both scans.

    `reach` bounds |dx|, |dy| and |dz| of any pair the rule keeps, underflow
    of the squares included.  Cells are at least 2 * reach wide, so reach *
    scale is at most (1 - 2**-10) / 2, to within one rounding.  The extent
    floor keeps every |x * scale| below 2**40, where rounding the product
    errs by at most 2**-14.  So on each axis the computed cell units
    u = x * scale of a kept pair differ by
    |u_p - u_b| <= (1 - 2**-10) / 2 + 2**-54 + 2 * 2**-14 < 1/2.
    With f = floor(u_p), u_p - f >= 1/2 then gives f < u_b < f + 3/2 (cell f
    or f + 1), and u_p - f < 1/2 gives f - 1/2 < u_b < f + 1 (cell f - 1 or
    f): the partner lies in the point's own cell or in one of the 7 cells on
    its near side, the side of the half of its cell it lies in on each axis.
    With tol*tol = inf every point falls in cell 0.
    """
    reach = math.sqrt(tol2 + math.ulp(0.0)) * (1.0 + 2.0 ** -30)
    return (1.0 - 2.0 ** -10) / max(2.0 * reach, extent * 2.0 ** -40)


def _finite_blocks(xyz: np.ndarray):
    """Row numbers and float64 rows of the finite points of each
    `_CHUNK_ROWS` block."""
    for lo in range(0, len(xyz), _CHUNK_ROWS):
        block = xyz[lo:lo + _CHUNK_ROWS]
        keep = np.flatnonzero(_finite_rows(block))
        yield lo + keep, block[keep].astype(np.float64, copy=False)


def _extent(xyz: np.ndarray):
    """Largest |coordinate| of the finite points; None when there are none."""
    return max((float(np.abs(p).max()) for _, p in _finite_blocks(xyz) if len(p)),
               default=None)


def _cells(xyz: np.ndarray, scale: float):
    """The cell key of each row, and per axis whether the row lies in the
    upper half of its cell: u - floor(u) is exact whenever it is below 1/2,
    so the half is that of the computed u."""
    u = np.multiply(xyz, scale, dtype=np.float64)
    cells = np.floor(u)
    upper = u - cells >= 0.5
    cells = cells.astype(np.int64).view(np.uint64)
    keys = cells[:, 0] * _CELL_HASH[0] + cells[:, 1] * _CELL_HASH[1] + cells[:, 2] * _CELL_HASH[2]
    return keys, upper


def _sorted_cells(b: np.ndarray, scale: float):
    """The finite rows of `b`, gathered once in cell-key order as float64,
    with their distinct keys and run bounds: rows starts[i]:starts[i + 1]
    lie in keys[i]."""
    rows = np.flatnonzero(_finite_rows(b))
    keys = np.empty(len(rows), dtype=np.uint64)
    for lo in range(0, len(rows), _CHUNK_ROWS):
        keys[lo:lo + _CHUNK_ROWS] = _cells(b[rows[lo:lo + _CHUNK_ROWS]], scale)[0]
    order = np.argsort(keys)
    rows, keys = rows[order], keys[order]
    del order
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
    keys = keys[starts[:-1]]
    return keys, starts, b[rows].astype(np.float64, copy=False)


def _any_within(p: np.ndarray, q: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                tol2: float) -> np.ndarray:
    """For each row of `p`: some row of `q[lo:hi]` within the distance rule.

    Candidates are checked a few per point per pass, at most `_PAIR_BUDGET`
    pairs at once, and a point leaves the loop at its first match.
    """
    found = np.zeros(len(p), dtype=bool)
    live = np.flatnonzero(lo < hi)
    while live.size:
        take = np.minimum(hi[live] - lo[live], max(1, _PAIR_BUDGET // live.size))
        owner = np.repeat(live, take)
        j = np.arange(len(owner)) + np.repeat(lo[live] - (np.cumsum(take) - take), take)
        d = p[owner]
        d -= q[j]
        d *= d
        found[owner[d[:, 0] + d[:, 1] + d[:, 2] <= tol2]] = True
        lo[live] += take
        live = live[~found[live] & (lo[live] < hi[live])]
    return found


def _runs(keys: np.ndarray, starts: np.ndarray, key: np.ndarray):
    """Bounds lo, hi of the sorted last-scan rows in cell `key`, for each key."""
    i = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    lo = starts[i]
    return lo, np.where(keys[i] == key, starts[i + 1], lo)


def _match_mask(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Rows of `a` with a row of `b` such that dx*dx + dy*dy + dz*dz <= tol*tol.

    `b` is held once, as its finite rows in cell-key order; `a` is joined in
    place, `_CHUNK_ROWS` rows at a time, each block writing its slice of the
    mask.  Non-finite points match nothing.
    """
    mask = np.zeros(len(a), dtype=bool)
    extents = (_extent(a), _extent(b))
    if None in extents:
        return mask
    tol2 = tol * tol
    scale = _cell_scale(tol2, max(extents))
    keys, starts, b = _sorted_cells(b, scale)
    for rows, p in _finite_blocks(a):
        key, upper = _cells(p, scale)
        order = np.argsort(key)  # sorted search keys make the binary searches cache-friendly
        key, upper, p, rows = key[order], upper[order], p[order], rows[order]
        hit = _any_within(p, b, *_runs(keys, starts, key), tol2)
        todo = np.flatnonzero(~hit)
        for steps in _NEAR_CELLS:
            if not todo.size:
                break
            # the key steps to the neighbouring cells on the near sides
            near = np.where(upper[todo], _CELL_HASH, -_CELL_HASH) @ steps
            hit[todo] = _any_within(p[todo], b, *_runs(keys, starts, key[todo] + near), tol2)
            todo = todo[~hit[todo]]
        mask[rows[hit]] = True
    return mask


def intersect_returns(strongest: PointCloud, last: PointCloud,
                      tol: float = DEFAULT_MATCH_TOLERANCE) -> PointCloud:
    """Points of `strongest` with a neighbor in `last` within Euclidean tol.

    A pair is within tol when, in float64, dx*dx + dy*dy + dz*dz <= tol*tol
    (summed in that order), the rule of a k-d tree ball query.  A point
    with a NaN or infinite coordinate is within tol of nothing: it is
    dropped from `strongest` and confirms nothing in `last`.  Output
    preserves the order (and is a subset by index) of `strongest`; tol = 0
    keeps exact coordinate matches only (-0.0 matches 0.0).  Float32 xyz
    (record-backed clouds) is joined in float64, exactly as its widening.
    A record-backed `strongest` gives a record-backed result: the kept rows'
    records, extra columns included, and their float64 intensity.
    """
    if tol < 0 or math.isnan(tol):
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    mask = _match_mask(strongest.xyz, last.xyz, tol)
    if strongest.records is None:
        return PointCloud(strongest.xyz[mask], strongest.intensity[mask])
    kept = PointCloud._empty_records(int(np.count_nonzero(mask)), strongest.records.shape[1])
    np.compress(mask, strongest.records, axis=0, out=kept.records)
    np.compress(mask, strongest.intensity, out=kept.intensity)
    return kept
