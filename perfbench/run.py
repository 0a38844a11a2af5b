"""lidarfog benchmark: one workload per run, seeded inputs, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: simulate-cold, sweep-dense, bulk-1m, ply-dual-return (see
workloads.py and README.md); ``--workload all`` runs each in turn and prints
one summary line per workload.  The run generates its inputs from the seed
under ``.perfbench_work/`` in the repository root, measures set-up, then
runs operations in a closed loop until S seconds of operation time have
been measured, checking every operation's outputs outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics, with tracing off.
With ``--trace 1`` it alternates untraced and traced operations and reports
the per-layer metrics from the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON record of the host, the calibration kernel and the run's counts.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3  # fresh interpreters per set-up measurement; the median is reported
MIN_OPS = 3
P90_MIN_OPS = 100  # a p90 needs ten samples beyond it

END_TO_END = (
    ("op_s.p50", "s"),
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.self_s", "s"),
    ("tables.build_calls", "count"),
    ("tables.build_s", "s"),
    ("optics.soft_integral_calls", "count"),
    ("optics.soft_integral_s", "s"),
    ("foggify.cloud_calls", "count"),
    ("foggify.points", "count"),
    ("foggify.transform_s", "s"),
    ("foggify.transform_s.1thread", "s"),
    ("foggify.soft_fraction", "ratio"),
    ("rng.draws", "count"),
    ("rng.uniform01_s", "s"),
    ("pointcloud_io.read_s", "s"),
    ("pointcloud_io.read_bytes", "B"),
    ("pointcloud_io.write_s", "s"),
    ("pointcloud_io.write_bytes", "B"),
    ("pointcloud_io.intersect_calls", "count"),
    ("pointcloud_io.intersect_s", "s"),
    ("trace.overhead_s", "s"),
)


def calibrate():
    """Seconds for a fixed numpy-plus-interpreter kernel (median of 3), to show machine drift."""
    import numpy as np

    data = np.random.default_rng(12345).random(1 << 20)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(data)
        acc = 0
        for k in range(200_000):
            acc += k * k
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_crc():
    """CRC32 of the package sources, which names the code when there is no git."""
    crc = 0
    pkg = os.path.join(SRC, "lidarfog")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                crc = zlib.crc32(name.encode() + fh.read(), crc)
    return f"{crc:08x}"


def host_record():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "src_crc32": source_crc(),
    }


def measure_setup(wl, env, work):
    """Median over fresh interpreters of ``import lidarfog`` plus the workload's table builds."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    alphas = [repr(a) for a in wl.setup_alphas]
    out_path = os.path.join(work, "probe.txt")
    samples = []
    for rep in range(SETUP_REPS + 1):  # the first, import-only, warms .pyc and page caches
        argv = probe + alphas if rep else probe
        with open(out_path, "wb") as out:
            proc = subprocess.run(argv, env=env, cwd=work, stdout=out,
                                  stderr=subprocess.DEVNULL, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        with open(out_path, "r", encoding="ascii") as fh:
            value = float(fh.read())
        if rep:
            samples.append(value)
    return statistics.median(samples)


def percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(wl, plain, traced, one_thread):
    def med(rows, key):
        return statistics.median(r.layers[key] for r in rows) if rows else 0.0

    out = {}
    for name, _ in PER_LAYER:
        if name in traced[0].layers:
            out[name] = med(traced, name)
    out["foggify.soft_fraction"] = statistics.median(
        r.layers["foggify.soft_points"] / r.layers["foggify.points"] if r.layers["foggify.points"]
        else 0.0 for r in traced)
    if wl.foggify_single_threaded:
        out["foggify.transform_s.1thread"] = out["foggify.transform_s"]
    else:
        out["foggify.transform_s.1thread"] = med(one_thread, "foggify.transform_s")
    out["trace.overhead_s"] = (statistics.median(r.seconds for r in traced)
                               - statistics.median(r.seconds for r in plain))
    return out


def run_all(args):
    """Run every workload in turn, each in its own process; print each result line."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", repr(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        metrics = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {metrics}")
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "lidarfog", "__init__.py")):
        print(f"error: no lidarfog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS and args.workload != "all":
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        host = host_record()
        cal_start = calibrate()
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        wl.prepare()
        setup_s = measure_setup(wl, workloads.child_env(ROOT), work)

        variants = ["plain"]
        if args.trace:
            variants.append("traced")
            if wl.one_thread_variant:
                variants.append("traced-1thread")
        results = {v: [] for v in variants}
        attempted = failed = 0
        measured = 0.0
        guard = time.perf_counter() + 2.5 * args.seconds + 20.0
        i = 0
        while (measured < args.seconds or attempted < MIN_OPS) and time.perf_counter() < guard:
            variant = variants[i % len(variants)]
            attempted += 1
            try:
                r = wl.run_op(i, traced=variant != "plain", one_thread=variant == "traced-1thread")
                measured += r.seconds
                wl.check()
                results[variant].append(r)
            except checks.CheckFailed as exc:
                failed += 1
                print(f"op {i} ({variant}) failed: {exc}", file=sys.stderr)
            i += 1
        cal_end = calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    plain = results["plain"]
    if not plain or (args.trace and not results["traced"]):
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    secs = [r.seconds for r in plain]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "calibration_s": {"start": cal_start, "end": cal_end},
        "ops": {v: len(rs) for v, rs in results.items()},
        "failed_ratio": failed / attempted,
        "op_s": secs,
        "op_s.p50": statistics.median(secs),
        "op_s.p90": percentile(secs, 0.9) if len(secs) >= P90_MIN_OPS else None,
        "setup_s": setup_s,
        "benchmark_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        values = layer_metrics(wl, plain, results["traced"], results.get("traced-1thread", []))
        units = PER_LAYER
    else:
        values = {
            "op_s.p50": statistics.median(secs),
            "points_per_s": sum(r.points for r in plain) / sum(secs),
            "setup_s": setup_s,
            "peak_rss_mb": wl.peak_rss_kb(plain) / 1024.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
