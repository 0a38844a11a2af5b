"""Golden SHA-256 digests of CLI outputs: the suite's "same bits" check.

A seeded corpus (three small ring scans plus hand-placed degenerate rows) is
run through `lidarfog.cli.main` in-process: `simulate`, `sweep`, `response`
and `intersect`.  Each case hashes the bytes the command leaves behind:
output clouds, provenance masks, `--stats` without its `runtime_ms` line,
manifests, CSVs and stdout without its `ms` figure.  Only CLI outputs are
hashed (float32 records, text and JSON), never float64 arrays, whose last
bits may depend on the host's SIMD dispatch.

A changed digest is regenerated in the commit that changes it, and the
change log names each changed case and says why:

    python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "golden_digests.json"
SRC = HERE.parent / "src"

CORPUS_SEED = 1616
SIMULATE_SEED = 77
ALPHAS = ("0", "0.005", "0.02", "0.06")
SWEEP_SCHEDULE = ",".join(repr(round(0.005 * k, 3)) for k in range(13))
# AVX-512 dispatch off: the outputs must not depend on it
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# float32 coordinates whose float64 range sqrt(x*x + y*y + z*z) is exactly
# 4.3, where the table lookup snaps down to entry 42
AT_4_3_M = (np.float32("4.2999997"), np.float32("0.0015685683"), np.float32("8.554399e-06"))

EDGE_ROWS = np.array([
    [10.0, 0.0, 0.0, np.nan],  # NaN intensity
    [0.0, 0.0, 0.0, 0.5],  # zero range
    [300.0, 0.0, 0.0, 0.4],  # beyond the 200 m table
    [0.0, 20.0, 0.0, -0.3],  # negative intensity
    [-0.0, 25.0, -0.0, 0.3],  # -0.0 coordinates
    [-0.0, -0.0, -0.0, 0.1],  # -0.0 at zero range
    [*AT_4_3_M, 0.6],
], dtype="<f4")

# values no 53-bit integer count of millionths holds, which the PLY writer
# formats on its own path: a 1e10 coordinate (beyond the table, so written as
# read) and an infinite intensity
WIDE_ROWS = np.array([
    [1e10, 0.0, 0.0, 0.5],
    [10.0, 0.0, 0.0, np.inf],
    [-1e10, 3.0, -0.0, 0.2],
], dtype="<f4")


def ring_scan(rng, rings=16, azimuths=160):
    """A KITTI-style scan: float32 x, y, z and reflectance in [0, 1].

    Rings of fixed elevation slope see the ground 1.73 m below or a wall
    5-120 m away, about 8% of the rays drop out.  Only +, *, / and sqrt
    (correctly rounded everywhere) touch the draws, so the corpus has the
    same bits on any host.
    """
    u, v = rng.uniform(-1.0, 1.0, (2, azimuths))
    norm = np.sqrt(u * u + v * v)
    slope = np.linspace(-0.42, 0.03, rings)[:, None]
    ground = np.where(slope < 0.0, 1.73 / np.abs(slope), np.inf)
    horiz = np.minimum(ground, rng.uniform(5.0, 120.0, azimuths)[None, :])
    keep = rng.uniform(size=horiz.shape) >= 0.08
    x, y, z = horiz * (u / norm), horiz * (v / norm), horiz * slope
    refl = rng.uniform(0.0, 1.0, horiz.shape)
    return np.stack((x[keep], y[keep], z[keep], refl[keep]), axis=1).astype("<f4")


def write_ply(rows, path):
    """ASCII PLY in the layout lidarfog reads (six decimals)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("ply\nformat ascii 1.0\nelement vertex %d\nproperty float x\n"
                 "property float y\nproperty float z\nproperty float intensity\n"
                 "end_header\n" % len(rows))
        for row in rows.tolist():
            fh.write("%.6f %.6f %.6f %.6f\n" % tuple(row))


def make_corpus(root: Path):
    """clear/scan_{0,1,2}.bin and .ply; scan_0 ends with the EDGE_ROWS."""
    rng = np.random.default_rng(CORPUS_SEED)
    scans = [ring_scan(rng) for _ in range(3)]
    scans[0] = np.concatenate((scans[0], EDGE_ROWS))
    (root / "clear").mkdir()
    for k, rows in enumerate(scans):
        rows.tofile(root / "clear" / f"scan_{k}.bin")
        write_ply(rows, root / "clear" / f"scan_{k}.ply")


def _normalize_stdout(text: str) -> str:
    return re.sub(r", [0-9.]+ ms$", ", <t> ms", text, flags=re.MULTILINE)


def _strip_runtime(stats: bytes) -> bytes:
    return re.sub(rb'^  "runtime_ms": [^\n]*\n', b"", stats, flags=re.MULTILINE)


class Runner:
    """Runs CLI commands with relative paths inside the corpus directory."""

    def __init__(self, root: Path):
        self.root = root

    def main(self, argv):
        from lidarfog.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    def digest(self, code, stdout, paths):
        h = hashlib.sha256()
        h.update(b"exit %d\n" % code)
        h.update(_normalize_stdout(stdout).encode())
        for path in paths:
            data = (self.root / path).read_bytes()
            if path == "stats.json":
                data = _strip_runtime(data)
            h.update(b"\0%s\0%d\0" % (path.encode(), len(data)))
            h.update(data)
        return h.hexdigest()

    def simulate(self, scan, kind, *flags):
        # every case writes the same names, so equal bytes give equal digests
        out, stats, prov = f"out.{kind}", "stats.json", "prov.bin"
        code, stdout = self.main(["simulate", "--input", f"clear/{scan}.{kind}",
                                  "--output", out, "--stats", stats, "--provenance", prov,
                                  "--format", kind, "--seed", str(SIMULATE_SEED), *flags])
        assert code == 0, (scan, kind, flags)
        return self.digest(code, stdout, [out, prov, stats])


def compute_digests(root: Path) -> dict:
    """Digest of every case, on a corpus made in the empty directory `root`."""
    from lidarfog import foggify

    make_corpus(root)
    run = Runner(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        cases = {}
        for kind in ("bin", "ply"):
            h = hashlib.sha256()
            for k in range(3):
                h.update((root / "clear" / f"scan_{k}.{kind}").read_bytes())
            cases[f"corpus/{kind}"] = h.hexdigest()
            for alpha in ALPHAS:
                cases[f"simulate/{kind}/alpha={alpha}"] = run.simulate(
                    "scan_1", kind, "--alpha", alpha)
            cases[f"simulate/{kind}/allow-nonfinite"] = run.simulate(
                "scan_0", kind, "--alpha", "0.06", "--allow-nonfinite")
        cases["simulate/bin/mor=7.1"] = run.simulate("scan_2", "bin", "--mor", "7.1")
        cases["simulate/bin/no-rescale"] = run.simulate(
            "scan_0", "bin", "--alpha", "0.06", "--no-rescale", "--allow-nonfinite")
        cases["simulate/bin/beta"] = run.simulate(
            "scan_2", "bin", "--alpha", "0.02", "--beta", "0.004", "--beta0", "2e-7")

        # worker count and block size change no bit
        block = foggify._BLOCK_SIZE
        try:
            for workers, size in (("1", "default"), ("2", 999), ("1", 999)):
                foggify._BLOCK_SIZE = block if size == "default" else size
                cases[f"simulate/bin/allow-nonfinite/workers={workers},block={size}"] = (
                    run.simulate("scan_0", "bin", "--alpha", "0.06", "--allow-nonfinite",
                                 "--workers", workers))
        finally:
            foggify._BLOCK_SIZE = block

        code, stdout = run.main(["sweep", "--input-dir", "clear", "--output-dir", "swept",
                                 "--alphas", SWEEP_SCHEDULE, "--seed", "5", "--workers", "2",
                                 "--allow-nonfinite"])
        files = sorted(f"swept/{name}" for name in os.listdir(root / "swept"))
        cases["sweep/13-values"] = run.digest(code, stdout, files)

        for kind in ("bin", "ply"):
            strongest = f"strongest.{kind}"
            assert run.main(["simulate", "--input", f"clear/scan_1.{kind}", "--output",
                             strongest, "--format", kind, "--alpha", "0.02", "--seed",
                             "3"])[0] == 0
            for tol in ("0", "1e-3", "0.5"):
                out = f"kept_{tol}.{kind}"
                code, stdout = run.main(["intersect", strongest, f"clear/scan_1.{kind}",
                                         "--output", out, "--format", kind,
                                         "--tolerance", tol])
                cases[f"intersect/{kind}/tol={tol}"] = run.digest(code, stdout, [out])

        for name, flags in (("alpha=0.06,r0=30", ["--alpha", "0.06", "--r0", "30"]),
                            ("alpha=0.02,r0=12,peak-correction",
                             ["--alpha", "0.02", "--r0", "12", "--peak-correction"])):
            # one name for every case, so the digest does not move with the case count
            out = "response.csv"
            code, stdout = run.main(["response", "--output", out, *flags])
            cases[f"response/{name}"] = run.digest(code, stdout, [out])

        # four copies of a scan fill more than one 8192-row PLY block, so the
        # file's first block holds ordinary rows only and its last the WIDE_ROWS
        rows = np.fromfile(root / "clear" / "scan_1.bin", dtype="<f4").reshape(-1, 4)
        (root / "wide").mkdir()
        write_ply(np.concatenate([rows] * 4 + [WIDE_ROWS]), root / "wide" / "scan_1.ply")
        out = "out.ply"
        code, stdout = run.main(["simulate", "--input", "wide/scan_1.ply", "--output", out,
                                 "--format", "ply", "--alpha", "0.02", "--seed",
                                 str(SIMULATE_SEED), "--allow-nonfinite"])
        assert code == 0
        cases["simulate/ply/wide-values"] = run.digest(code, stdout, [out])
    finally:
        os.chdir(cwd)
    return cases


def load_golden() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="ascii"))


def changed_cases(cases: dict, golden: dict) -> list:
    keys = sorted(set(cases) | set(golden))
    return [k for k in keys if cases.get(k) != golden.get(k)]


def test_golden_digests(tmp_path):
    golden = load_golden()["cases"]
    cases = compute_digests(tmp_path)
    assert not changed_cases(cases, golden), "changed digests: " + ", ".join(
        changed_cases(cases, golden))


def test_edge_row_lies_at_exactly_4_3_m():
    x, y, z = (float(v) for v in AT_4_3_M)
    r0 = np.sqrt(x * x + y * y + z * z)
    assert r0 == 4.3 and int(r0 / 0.1) == 42


def test_digests_do_not_depend_on_block_size_or_workers():
    golden = load_golden()["cases"]
    base = golden["simulate/bin/allow-nonfinite"]
    variants = {k: v for k, v in golden.items()
                if k.startswith("simulate/bin/allow-nonfinite/")}
    assert len(variants) == 3
    assert set(variants.values()) == {base}


def test_digests_do_not_depend_on_avx512(tmp_path):
    env = dict(os.environ, **NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--print", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    cases = json.loads(proc.stdout)
    changed = changed_cases(cases, load_golden()["cases"])
    assert not changed, "changed digests without AVX-512: " + ", ".join(changed)


def _main(argv):
    import tempfile

    sys.path.insert(0, str(SRC))
    if argv[:1] == ["--print"]:
        print(json.dumps(compute_digests(Path(argv[1])), indent=1, sort_keys=True))
        return 0
    if argv != ["--write"]:
        print("usage: python tests/test_golden.py --write", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        cases = compute_digests(Path(tmp))
    payload = {"numpy": np.__version__, "cases": cases}
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                            encoding="ascii")
    print(f"wrote {len(cases)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
