"""The four benchmark workloads.

Each is a closed loop with one client: the next operation starts when the
previous one has ended.  An operation is one fresh ``lidarfog`` CLI process
(``simulate-cold``, ``sweep-dense``, ``ply-dual-return``) or one in-process
``lidarfog.foggify_cloud`` call (``bulk-1m``).  `prepare` generates the
inputs from the workload seed; `run_op` times one operation; `check` checks
its outputs outside the timed region and raises `checks.CheckFailed`.
"""

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import checks
import lidarfog
import scenes
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
OP_TIMEOUT_S = 60.0
DEFAULT_SCHEDULE = (0.005, 0.01, 0.02, 0.03, 0.06)  # lidarfog's schedule without clear air
DENSE_SCHEDULE = tuple(round(0.005 * k, 3) for k in range(13))  # 0, 0.005, ..., 0.06


@dataclass
class OpResult:
    seconds: float
    points: int
    rss_kb: int = 0
    layers: Optional[dict] = None  # per-layer figures of a traced operation


def child_env(root):
    """Environment for lidarfog child processes: the checkout's sources first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv, env, cwd, stderr_path):
    """Run one process to its end through launch.py.

    Returns (wall s, exit code, the process's peak RSS in KiB).  The
    launcher runs in its own session so a timeout kills both processes.
    """
    result_path = stderr_path + ".result"
    cmd = [sys.executable, "-S", LAUNCHER, result_path, stderr_path] + argv
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise checks.CheckFailed(f"no exit within {OP_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"launcher exited with {code}")
    with open(result_path, "r", encoding="ascii") as fh:
        seconds, code, rss = fh.read().split()
    return float(seconds), int(code), int(rss)


class CliWorkload:
    """Shared machinery of the workloads that run one CLI process per operation."""

    setup_alphas = ()
    one_thread_variant = False  # run extra traced ops at --workers 1
    foggify_single_threaded = False  # the CLI path always foggifies with one thread

    def __init__(self, root, work, seed):
        self.root = root
        self.work = work
        self.seed = seed
        self.env = child_env(root)
        self.verified = {}  # input key -> digest of the first checked output
        self.last = None

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def cli_args(self, i, one_thread):
        raise NotImplementedError

    def clear_outputs(self):
        raise NotImplementedError

    def run_op(self, i, traced=False, one_thread=False):
        self.clear_outputs()
        args, points = self.cli_args(i, one_thread)
        err = self.path("stderr.txt")
        if traced:
            span_file = self.path("spans.json")
            argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "bootstrap.py"),
                    span_file, str(i)] + args
        else:
            argv = [sys.executable, "-m", "lidarfog.cli"] + args
        seconds, code, rss = run_child(argv, self.env, self.work, err)
        if code != 0:
            with open(err, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:]
            raise checks.CheckFailed(f"exit code {code}: {tail}")
        layers = None
        if traced:
            with open(span_file, "r", encoding="ascii") as fh:
                layers = spans.layer_totals(json.load(fh))
            with open(err, "r", encoding="utf-8", errors="replace") as fh:
                layers["cli.import_s"], layers["cli.import_scipy_s"] = spans.import_times(fh.read())
        self.last = i
        return OpResult(seconds, points, rss, layers)

    def peak_rss_kb(self, results):
        """Median over operations of each child's peak resident set."""
        return float(np.median([r.rss_kb for r in results]))


class SimulateCold(CliWorkload):
    """``simulate`` on one ~120k-point scan per process, rotating over four scans."""

    name = "simulate-cold"
    alpha = 0.06
    n_scans = 4
    setup_alphas = (alpha,)
    one_thread_variant = True

    def prepare(self):
        os.makedirs(self.path("in"))
        self.scans = []
        for k in range(self.n_scans):
            rows = scenes.make_scan(self.seed * 1000 + k)
            path = self.path("in", f"scan_{k}.bin")
            scenes.write_bin(rows, path)
            self.scans.append((rows, path, (self.seed * 7919 + k) % 2**31))

    def clear_outputs(self):
        for name in ("out.bin", "stats.json", "prov.bin"):
            if os.path.exists(self.path(name)):
                os.unlink(self.path(name))

    def cli_args(self, i, one_thread):
        rows, path, seed = self.scans[i % self.n_scans]
        args = ["simulate", "--input", path, "--output", self.path("out.bin"),
                "--alpha", str(self.alpha), "--seed", str(seed),
                "--stats", self.path("stats.json"), "--provenance", self.path("prov.bin")]
        if one_thread:
            args += ["--workers", "1"]
        return args, len(rows)

    def check(self):
        k = self.last % self.n_scans
        rows, _, seed = self.scans[k]
        outs = (self.path("out.bin"), self.path("stats.json"), self.path("prov.bin"))
        if k not in self.verified:
            self.verified[k] = checks.simulate_outputs(rows, *outs, self.alpha, seed)
        else:
            checks.require(checks.simulate_digest(*outs) == self.verified[k],
                           "output differs from the first run on the same input")


class SweepDense(CliWorkload):
    """``sweep --workers 2`` over 32 scans with a 13-value alpha schedule."""

    name = "sweep-dense"
    n_scans = 32
    setup_alphas = DENSE_SCHEDULE
    foggify_single_threaded = True

    def prepare(self):
        os.makedirs(self.path("in"))
        self.scans = {}
        for k in range(self.n_scans):
            rows = scenes.make_scan(self.seed * 1000 + k)
            name = f"{k:06d}.bin"
            scenes.write_bin(rows, self.path("in", name))
            self.scans[name] = rows
        self.points = sum(len(r) for r in self.scans.values())
        self.sweep_seed, self.draws = self.covering_seed()

    def covering_seed(self):
        """First seed in a sequence derived from the workload seed whose per-file
        draws (lidarfog's documented rule) hit every schedule value, so each
        operation builds all 13 tables whatever the workload seed."""
        from lidarfog.rng import stable_key64, uniform01

        keys = {name: stable_key64(name) for name in self.scans}
        for attempt in range(10_000):
            seed = (self.seed * 104729 + 17 + attempt * 7919) % 2**31
            draws = {n: lidarfog.sample_alpha(DENSE_SCHEDULE, uniform01(seed, k))
                     for n, k in keys.items()}
            if len(set(draws.values())) == len(DENSE_SCHEDULE):
                return seed, draws
        raise RuntimeError("no sweep seed draws the whole schedule")

    def clear_outputs(self):
        shutil.rmtree(self.path("out"), ignore_errors=True)

    def cli_args(self, i, one_thread):
        args = ["sweep", "--input-dir", self.path("in"), "--output-dir", self.path("out"),
                "--alphas", ",".join(repr(a) for a in DENSE_SCHEDULE),
                "--seed", str(self.sweep_seed), "--workers", "2"]
        return args, self.points

    def check(self):
        with open(self.path("out", "manifest.json"), "r", encoding="ascii") as fh:
            manifest = json.load(fh)
        checks.require(manifest["failures"] == {}, f"sweep failures: {manifest['failures']}")
        checks.require(manifest["files"] == self.draws,
                       "manifest does not list every file with its draw for (seed, file name)")
        checks.require(manifest["seed"] == self.sweep_seed, "manifest echoes another seed")
        digests = []
        for k, name in enumerate(sorted(self.scans)):
            out = self.path("out", name)
            if "sweep" not in self.verified:
                d = checks.sweep_output(self.scans[name], out, manifest["files"][name],
                                        self.seed * 1000 + k)
            else:
                d = checks.digest(np.fromfile(out, dtype="<f4"))
            digests.append(d)
        key = tuple(digests)
        checks.require(self.verified.setdefault("sweep", key) == key,
                       "outputs differ from the first sweep with the same seed")


class PlyDualReturn(CliWorkload):
    """``intersect --format ply`` of a foggified 120k-point PLY with its clear PLY."""

    name = "ply-dual-return"
    alpha = 0.06

    def prepare(self):
        rows = scenes.make_scan(self.seed * 1000)
        self.last_ply = self.path("last.ply")
        self.strongest_ply = self.path("strongest.ply")
        scenes.write_ply(rows, self.last_ply)
        argv = [sys.executable, "-m", "lidarfog.cli", "simulate", "--format", "ply",
                "--input", self.last_ply, "--output", self.strongest_ply,
                "--alpha", str(self.alpha), "--seed", str(self.seed),
                "--provenance", self.path("strongest_prov.bin")]
        _, code, _ = run_child(argv, self.env, self.work, self.path("stderr.txt"))
        if code != 0:
            raise RuntimeError(f"set-up simulate exited with {code}")
        self.strongest = scenes.read_ply(self.strongest_ply)
        self.kept = np.fromfile(self.path("strongest_prov.bin"), dtype=np.uint8) == 0
        if len(self.kept) != len(self.strongest) or len(self.strongest) != len(rows):
            raise RuntimeError("set-up simulate wrote inconsistent outputs")
        self.points = 2 * len(rows)

    def clear_outputs(self):
        if os.path.exists(self.path("out.ply")):
            os.unlink(self.path("out.ply"))

    def cli_args(self, i, one_thread):
        args = ["intersect", self.strongest_ply, self.last_ply,
                "--output", self.path("out.ply"), "--format", "ply"]
        return args, self.points

    def check(self):
        with open(self.path("out.ply"), "rb") as fh:
            d = checks.digest(np.frombuffer(fh.read(), dtype=np.uint8))
        if "ply" not in self.verified:
            checks.intersect_output(self.strongest, self.kept, scenes.read_ply(self.path("out.ply")))
            self.verified["ply"] = d
        checks.require(d == self.verified["ply"], "output differs from the first run")


class Bulk1M:
    """In-process ``foggify_cloud`` on ~1M-point clouds with prebuilt tables."""

    name = "bulk-1m"
    n_clouds = 2
    setup_alphas = DEFAULT_SCHEDULE
    one_thread_variant = True
    foggify_single_threaded = False

    def __init__(self, root, work, seed):
        self.seed = seed
        self.verified = {}  # (cloud, alpha) -> digest of the workers=1 result
        self.last = None

    def prepare(self):
        self.sensor = lidarfog.SensorModel()
        self.fogs = [lidarfog.fog_from_alpha(a) for a in DEFAULT_SCHEDULE]
        self.tables = [lidarfog.build_table(f, self.sensor) for f in self.fogs]
        self.clouds = []
        for k in range(self.n_clouds):
            rows = scenes.make_scan(self.seed * 1000 + k, scenes.DENSE_RINGS, scenes.DENSE_AZIMUTHS)
            cloud = lidarfog.PointCloud(rows[:, :3], rows[:, 3])
            self.clouds.append((cloud, (self.seed * 7919 + k) % 2**31))
        self.tracer = spans.Tracer()

    def combo(self, i):
        return i % self.n_clouds, i % len(self.fogs)

    def run_op(self, i, traced=False, one_thread=False):
        self.outcome = None
        c, a = self.combo(i)
        cloud, seed = self.clouds[c]
        workers = 1 if one_thread else None
        restore = None
        if traced:
            restore = spans.install(self.tracer)
            self.tracer.spans = []
            self.tracer.begin(i)
        try:
            t0 = time.perf_counter()
            outcome = lidarfog.foggify_cloud(cloud, self.fogs[a], self.sensor, seed=seed,
                                            table=self.tables[a], workers=workers)
            t1 = time.perf_counter()
        finally:
            if restore is not None:
                self.tracer.end()
                restore()
        layers = None
        if traced:
            layers = spans.layer_totals(self.tracer.spans)
            layers["cli.import_s"] = layers["cli.import_scipy_s"] = 0.0
        self.outcome = outcome
        self.last = i
        return OpResult(t1 - t0, len(cloud), 0, layers)

    def check(self):
        c, a = self.combo(self.last)
        outcome, self.outcome = self.outcome, None
        d = checks.outcome_digest(outcome)
        if (c, a) not in self.verified:
            cloud, seed = self.clouds[c]
            alpha = self.fogs[a].alpha
            checks.cloud_outcome(cloud.xyz, cloud.intensity, outcome, alpha, seed)
            del outcome
            ref = lidarfog.foggify_cloud(cloud, self.fogs[a], self.sensor, seed=seed,
                                        table=self.tables[a], workers=1)
            self.verified[(c, a)] = checks.outcome_digest(ref)
        checks.require(d == self.verified[(c, a)],
                       "output differs from the workers=1 result (determinism)")

    def peak_rss_kb(self, results):
        """Peak resident set of this process, which did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {w.name: w for w in (SimulateCold, SweepDense, Bulk1M, PlyDualReturn)}
