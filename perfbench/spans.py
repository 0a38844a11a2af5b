"""Span recording around lidarfog's public functions, from outside the package.

`install` swaps each traced function, as the module that calls it binds it
(``lidarfog.cli.read_cloud``, ``lidarfog.foggify.uniform01``, ...), for a
wrapper that records one span per call: name, start, end, parent span,
operation id and a few counts read off the call's arguments or result.
Spans stay in memory; `Tracer.dump` writes them as JSON.

Parents come from a thread-local stack.  A span opened on a pool thread
with nothing open on that thread hangs under the innermost span open on the
thread that started tracing, which is the thread blocked in ``pool.map``
(``foggify_cloud``'s block pool, ``cmd_sweep``'s file pool).
"""

import itertools
import json
import os
import threading
import time


def _read_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _write_counts(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _foggify_counts(args, kwargs, result):
    return {"points": result.stats.n_points, "soft": result.stats.n_soft_replaced}


def _draw_counts(args, kwargs, result):
    index = args[1] if len(args) > 1 else kwargs["index"]
    return {"draws": int(getattr(index, "size", 1))}


# span name -> counts taken from (args, kwargs, result) once the call returns
COUNTS = {
    "pointcloud_io.read_cloud": _read_counts,
    "pointcloud_io.write_cloud": _write_counts,
    "foggify.foggify_cloud": _foggify_counts,
    "rng.uniform01": _draw_counts,
}

# (module, attribute, span name): every binding through which the benchmark's
# workloads reach a traced function
TARGETS = (
    ("lidarfog.cli", "main", "cli.main"),
    ("lidarfog.cli", "read_cloud", "pointcloud_io.read_cloud"),
    ("lidarfog.cli", "write_cloud", "pointcloud_io.write_cloud"),
    ("lidarfog.cli", "intersect_returns", "pointcloud_io.intersect_returns"),
    ("lidarfog.cli", "foggify_cloud", "foggify.foggify_cloud"),
    ("lidarfog.cli", "build_table", "tables.build_table"),
    ("lidarfog.cli", "uniform01", "rng.uniform01"),
    ("lidarfog.foggify", "build_table", "tables.build_table"),
    ("lidarfog.foggify", "uniform01", "rng.uniform01"),
    ("lidarfog.tables", "soft_response_integral", "optics.soft_response_integral"),
    ("lidarfog", "foggify_cloud", "foggify.foggify_cloud"),
)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op, counts]
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._origin = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, op):
        self.op = op
        self._origin = self._stack()

    def end(self):
        self.op = None

    def wrap(self, name, fn):
        counts = COUNTS.get(name)

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                origin = self._origin
                parent = origin[-1] if origin else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            extra = counts(args, kwargs, result) if counts else None
            self.spans.append([sid, name, t0, t1, parent, op, extra])
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def install(tracer):
    """Wrap every target; returns a function that puts the originals back."""
    import importlib

    saved = []
    for module_name, attr, name in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans):
    """Per-operation layer figures from one operation's spans.

    Durations are inclusive span time, except ``cli.self_s`` and
    ``foggify.transform_s``, which are self time: the span minus the part
    of it that child spans cover (children on two threads overlap, so the
    union is taken).
    """
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))

    def self_time(s):
        return (s[3] - s[2]) - _covered(s[2], s[3], children.get(s[0], ()))

    out = {
        "cli.self_s": 0.0,
        "tables.build_calls": 0,
        "tables.build_s": 0.0,
        "optics.soft_integral_calls": 0,
        "optics.soft_integral_s": 0.0,
        "foggify.cloud_calls": 0,
        "foggify.points": 0,
        "foggify.soft_points": 0,
        "foggify.transform_s": 0.0,
        "rng.draws": 0,
        "rng.uniform01_s": 0.0,
        "pointcloud_io.read_s": 0.0,
        "pointcloud_io.read_bytes": 0,
        "pointcloud_io.write_s": 0.0,
        "pointcloud_io.write_bytes": 0,
        "pointcloud_io.intersect_calls": 0,
        "pointcloud_io.intersect_s": 0.0,
    }
    for s in spans:
        name, dur, extra = s[1], s[3] - s[2], s[6]
        if name == "cli.main":
            out["cli.self_s"] += self_time(s)
        elif name == "tables.build_table":
            out["tables.build_calls"] += 1
            out["tables.build_s"] += dur
        elif name == "optics.soft_response_integral":
            out["optics.soft_integral_calls"] += 1
            out["optics.soft_integral_s"] += dur
        elif name == "foggify.foggify_cloud":
            out["foggify.cloud_calls"] += 1
            out["foggify.points"] += extra["points"]
            out["foggify.soft_points"] += extra["soft"]
            out["foggify.transform_s"] += self_time(s)
        elif name == "rng.uniform01":
            out["rng.draws"] += extra["draws"]
            out["rng.uniform01_s"] += dur
        elif name == "pointcloud_io.read_cloud":
            out["pointcloud_io.read_s"] += dur
            out["pointcloud_io.read_bytes"] += extra["bytes"]
        elif name == "pointcloud_io.write_cloud":
            out["pointcloud_io.write_s"] += dur
            out["pointcloud_io.write_bytes"] += extra["bytes"]
        elif name == "pointcloud_io.intersect_returns":
            out["pointcloud_io.intersect_calls"] += 1
            out["pointcloud_io.intersect_s"] += dur
    return out


def import_times(stderr_text):
    """(lidarfog import s, scipy import s) from ``-X importtime`` output.

    The lidarfog figure sums the cumulative time of the top-level
    ``lidarfog*`` imports; the scipy figure sums the cumulative time of the
    outermost ``scipy*`` imports wherever they nest.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2]
        name = label.strip()
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        rows.append((depth, name, int(parts[1]) * 1e-6))
    lidarfog_s = scipy_s = 0.0
    ancestors = []
    for depth, name, cum in reversed(rows):  # a parent line follows its children
        del ancestors[depth:]
        parent = ancestors[depth - 1] if 0 < depth <= len(ancestors) else ""
        ancestors.extend([""] * (depth - len(ancestors)))
        ancestors.append(name)
        if depth == 0 and (name == "lidarfog" or name.startswith("lidarfog.")):
            lidarfog_s += cum
        if (name == "scipy" or name.startswith("scipy.")) and not parent.startswith("scipy"):
            scipy_s += cum
    return lidarfog_s, scipy_s
