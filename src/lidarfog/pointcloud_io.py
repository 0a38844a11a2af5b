"""Point-cloud file IO and the dual-return intersection filter.

Two formats: the headerless binary record layout used by KITTI-style
datasets (consecutive little-endian float32 x, y, z, intensity) and a plain
ASCII PLY with the same four properties.  Binary round-trips are bit-exact.
PLY text is streamed both ways: the body is read by one `np.loadtxt` pass
over the open file, whose rows become the cloud, and written in blocks of
`_PLY_WRITE_ROWS` rows.

`intersect_returns` keeps the points of a strongest-return scan that have a
counterpart in the last-return scan of the same sweep; everything a
dual-mode sensor reports in only one of the two echoes is scattering noise,
not a solid object.  It is a numpy cell-hash join: both scans are hashed
into a grid of cells at least `tol` wide, each strongest point is checked
against the last-return points of its own cell, and only the points still
unmatched look in the 26 neighbouring cells.
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


class MalformedFileError(Exception):
    """File content violates the declared point-cloud format."""


@dataclass(frozen=True)
class CloudFormat:
    """Record layout declaration.

    `columns` covers binary datasets that append extra per-point fields
    (channel, timestamp, ...) after x, y, z, intensity: records are read as
    that many float32 values and the extras are dropped.  Output always
    carries the canonical four columns.
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


def _check_finite(rows: np.ndarray, path, allow_nonfinite: bool):
    if allow_nonfinite:
        return
    if not np.all(np.isfinite(rows)):
        bad = int(np.count_nonzero(~np.all(np.isfinite(rows), axis=1)))
        raise MalformedFileError(
            f"{path}: {bad} record(s) with non-finite values "
            "(pass allow_nonfinite to keep them)"
        )


def _read_bin(path, allow_nonfinite: bool, columns: int) -> PointCloud:
    """The records of a binary file as a cloud.

    The float32 records stay as read; the finite check runs on them, and
    `xyz` and `intensity` are widened to float64 once, straight from their
    float32 columns, so no float64 copy of the whole record array is made.
    """
    record_bytes = 4 * columns
    size = os.path.getsize(path)
    if size % record_bytes != 0:
        raise MalformedFileError(
            f"{path}: size {size} is not a multiple of the {record_bytes}-byte record"
        )
    with open(path, "rb") as fh:
        rows = np.fromfile(fh, dtype="<f4").reshape(-1, columns)[:, :4]
    _check_finite(rows, path, allow_nonfinite)
    return PointCloud(rows[:, :3].astype(np.float64), rows[:, 3].astype(np.float64))


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
_PLY_WRITE_ROWS = 8192  # rows formatted per write: bounds the text held at once


def _read_ply_header(fh, path) -> int:
    """Consume the header through `end_header`; return the vertex count."""
    if fh.readline().strip() != "ply":
        raise MalformedFileError(f"{path}: missing ply magic line")
    if fh.readline().strip() != "format ascii 1.0":
        raise MalformedFileError(f"{path}: unsupported ply layout")
    n = None
    props = []
    while True:
        raw = fh.readline()
        if not raw:
            raise MalformedFileError(f"{path}: missing end_header")
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
    if n is None or n < 0 or props != ["x", "y", "z", "intensity"]:
        raise MalformedFileError(f"{path}: unsupported ply layout")
    return n


def _read_ply(path, allow_nonfinite: bool) -> PointCloud:
    """The body of an ASCII ply file as a cloud, from one `np.loadtxt` pass
    over the open file: `xyz` and `intensity` are views of its rows.  loadtxt
    parses numbers with the same C routine as `float()`, so each value has
    the bits `float()` gives its text."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            n = _read_ply_header(fh, path)
            start = fh.tell()
            if any(raw.strip() for raw in iter(fh.readline, "")):
                fh.seek(start)
                rows = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
            else:
                rows = np.empty((0, 4))  # loadtxt warns on a body without data
    except UnicodeDecodeError:  # a ValueError subclass, so it is caught first
        raise MalformedFileError(f"{path}: not an ASCII ply file") from None
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}") from None
    if rows.shape != (n, 4):
        raise MalformedFileError(f"{path}: header declares {n} vertices of 4 values, "
                                 f"found {rows.shape[0]} rows of {rows.shape[1]}")
    _check_finite(rows, path, allow_nonfinite)
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


def write_cloud(cloud: PointCloud, path, fmt: CloudFormat = CloudFormat()) -> None:
    """Write a cloud atomically (temp file + rename).

    Both formats first narrow the cloud to one float32 (n, 4) record array,
    filled column by column with the cast of `astype`, so no float64 copy of
    the cloud is made.  Binary output writes those records (reading them
    back reproduces them bit-exactly).  PLY text keeps six decimals, good to
    5e-7 absolute per coordinate.
    """
    rows32 = np.empty((len(cloud), 4), dtype="<f4")
    rows32[:, :3] = cloud.xyz
    rows32[:, 3] = cloud.intensity
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        if fmt.kind == BIN_KIND:
            with open(tmp, "wb") as fh:
                rows32.tofile(fh)
        else:
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(_PLY_HEADER.format(n=len(cloud)))
                # %.6f of a float32 widened to a Python float is the text of
                # f"{np.float32(x):.6f}", nan, inf and -0.0 included
                for lo in range(0, len(rows32), _PLY_WRITE_ROWS):
                    block = rows32[lo:lo + _PLY_WRITE_ROWS]
                    fh.write((_PLY_ROW * len(block)) % tuple(block.ravel().tolist()))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# odd 64-bit multipliers that hash a cell's integer (ix, iy, iz) to one key;
# two cells that share a key only add candidates, which the distance rule drops
_CELL_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
                      dtype=np.uint64)
# key offsets of the 27 cells around a cell, its own first (the hash is linear)
_NEIGHBOUR_SHIFTS = (np.array(list(itertools.product((0, -1, 1), repeat=3)),
                              dtype=np.int64).view(np.uint64) * _CELL_HASH).sum(axis=1)
_PAIR_BUDGET = 1 << 18  # candidate pairs checked per numpy pass: bounds the join's memory


def _cell_keys(xyz: np.ndarray, inv_side: float) -> np.ndarray:
    cells = np.floor(xyz * inv_side).astype(np.int64).view(np.uint64)
    return cells[:, 0] * _CELL_HASH[0] + cells[:, 1] * _CELL_HASH[1] + cells[:, 2] * _CELL_HASH[2]


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
        ends = np.cumsum(take)
        j = np.arange(ends[-1]) + np.repeat(lo[live] - (ends - take), take)
        d = p[owner] - q[j]
        found[owner[d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= tol2]] = True
        lo[live] += take
        live = live[~found[live] & (lo[live] < hi[live])]
    return found


def _match_mask(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Rows of `a` with a row of `b` such that dx*dx + dy*dy + dz*dz <= tol*tol."""
    mask = np.zeros(len(a), dtype=bool)
    b = b[np.isfinite(b).all(axis=1)]
    rows = np.flatnonzero(np.isfinite(a).all(axis=1))  # non-finite points match nothing
    if len(b) == 0 or len(rows) == 0:
        return mask
    tol2 = tol * tol
    a = a[rows]
    # `reach` bounds |dx|, |dy| and |dz| of any pair the rule keeps, underflow of
    # the squares included.  A cell a little wider than `reach` puts such pairs
    # in the same or adjacent cells; the extent floor keeps cell indices below
    # 2**40, where rounding `xyz * inv_side` moves an index by far less than the
    # 2**-10 slack.  With tol*tol = inf every point falls in cell 0.
    reach = math.sqrt(tol2 + math.ulp(0.0)) * (1.0 + 2.0 ** -30)
    extent = max(float(np.abs(a).max()), float(np.abs(b).max()))
    inv_side = (1.0 - 2.0 ** -10) / max(reach, extent * 2.0 ** -40)
    ka = _cell_keys(a, inv_side)
    kb = _cell_keys(b, inv_side)
    order = np.argsort(ka)  # sorted search keys make the binary searches cache-friendly
    ka, a, rows = ka[order], a[order], rows[order]
    order = np.argsort(kb)
    kb, b = kb[order], b[order]
    hit = np.zeros(len(a), dtype=bool)
    todo = np.arange(len(a))
    for shift in _NEIGHBOUR_SHIFTS:
        key = ka[todo] + shift
        lo = np.searchsorted(kb, key, side="left")
        hi = np.searchsorted(kb, key, side="right")
        hit[todo] = _any_within(a[todo], b, lo, hi, tol2)
        todo = todo[~hit[todo]]
        if not todo.size:
            break
    mask[rows] = hit
    return mask


def intersect_returns(strongest: PointCloud, last: PointCloud,
                      tol: float = DEFAULT_MATCH_TOLERANCE) -> PointCloud:
    """Points of `strongest` with a neighbor in `last` within Euclidean tol.

    A pair is within tol when, in float64, dx*dx + dy*dy + dz*dz <= tol*tol
    (summed in that order), the rule of a k-d tree ball query.  A point
    with a NaN or infinite coordinate is within tol of nothing: it is
    dropped from `strongest` and confirms nothing in `last`.  Output
    preserves the order (and is a subset by index) of `strongest`; tol = 0
    keeps exact coordinate matches only (-0.0 matches 0.0).
    """
    if tol < 0 or math.isnan(tol):
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    mask = _match_mask(strongest.xyz, last.xyz, tol)
    return PointCloud(strongest.xyz[mask], strongest.intensity[mask])
