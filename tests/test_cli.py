import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import lidarfog
from lidarfog import DEFAULT_ALPHA_SCHEDULE, fog_from_alpha, foggify_cloud, sample_alpha
from lidarfog.cli import _BOOL_FLAGS, _apply_config_file, build_parser, main
from lidarfog.optics import MAX_RANGE
from lidarfog.pointcloud_io import _PLY_HEADER, CloudFormat, read_cloud, write_cloud
from lidarfog.rng import stable_key64, uniform01


def make_bin(path, n=500, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-span, span, (n, 4)).astype("<f4")
    rows[:, 3] = np.abs(rows[:, 3])
    path.write_bytes(rows.tobytes())
    return rows


STATS_FIELDS = ("n_points", "n_soft_replaced", "n_skipped", "fraction_replaced",
                "rescale_factor")

# the fewest arguments each subcommand parses with
REQUIRED_ARGS = {
    "simulate": ["--input", "a.bin", "--output", "b.bin"],
    "sweep": ["--input-dir", "in", "--output-dir", "out"],
    "response": ["--r0", "30", "--output", "c.csv"],
    "intersect": ["s.bin", "l.bin", "--output", "k.bin"],
}


def store_true_flags():
    """{subcommand: {flag name without dashes: dest}} of the parser's store_true options."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {cmd: {opt[2:]: a.dest for a in p._actions
                  if isinstance(a, argparse._StoreTrueAction) for opt in a.option_strings}
            for cmd, p in sub.choices.items()}


@pytest.fixture
def cloud_file(tmp_path):
    path = tmp_path / "scan.bin"
    make_bin(path)
    return path


class TestSimulate:
    def test_basic_run(self, tmp_path, cloud_file, capsys):
        out = tmp_path / "foggy.bin"
        stats = tmp_path / "stats.json"
        prov = tmp_path / "prov.bin"
        rc = main(["simulate", "--input", str(cloud_file), "--output", str(out),
                   "--alpha", "0.06", "--seed", "42",
                   "--stats", str(stats), "--provenance", str(prov)])
        assert rc == 0
        assert out.stat().st_size == cloud_file.stat().st_size
        payload = json.loads(stats.read_text())
        assert payload["schema_version"] == 1
        assert payload["alpha"] == 0.06
        assert payload["mor"] == 50.0
        assert payload["n_points"] == 500
        assert set(payload) == {"schema_version", "alpha", "mor", "beta", "beta_0", "seed",
                                "n_points", "n_soft_replaced", "n_skipped",
                                "fraction_replaced", "rescale_factor", "runtime_ms"}
        direct = foggify_cloud(read_cloud(cloud_file, CloudFormat()), fog_from_alpha(0.06),
                               lidarfog.SensorModel(), seed=42)
        assert {k: payload[k] for k in STATS_FIELDS} == dataclasses.asdict(direct.stats)
        mask = np.frombuffer(prov.read_bytes(), dtype=np.uint8)
        assert len(mask) == 500
        assert set(np.unique(mask)) <= {0, 1}
        assert payload["n_soft_replaced"] == int(mask.sum())
        assert "500 points" in capsys.readouterr().out

    def test_identity_flags_reproduce_input(self, tmp_path, cloud_file):
        out = tmp_path / "same.bin"
        rc = main(["simulate", "--input", str(cloud_file), "--output", str(out),
                   "--alpha", "0", "--beta", "0", "--no-rescale"])
        assert rc == 0
        assert out.read_bytes() == cloud_file.read_bytes()

    def test_mor_equals_alpha_beta_spelling(self, tmp_path, cloud_file):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        assert main(["simulate", "--input", str(cloud_file), "--output", str(a),
                     "--mor", "50", "--seed", "9"]) == 0
        assert main(["simulate", "--input", str(cloud_file), "--output", str(b),
                     "--alpha", "0.06", "--beta", "0.00092", "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_deterministic(self, tmp_path, cloud_file):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        args = ["simulate", "--input", str(cloud_file), "--alpha", "0.06", "--seed", "5"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_exits_1(self, tmp_path):
        rc = main(["simulate", "--input", str(tmp_path / "nope.bin"),
                   "--output", str(tmp_path / "o.bin"), "--alpha", "0.06"])
        assert rc == 1

    def test_malformed_input_exits_1(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 19)
        rc = main(["simulate", "--input", str(bad),
                   "--output", str(tmp_path / "o.bin"), "--alpha", "0.06"])
        assert rc == 1

    def test_parameter_conflicts_exit_2(self, tmp_path, cloud_file, capsys):
        out = str(tmp_path / "o.bin")
        base = ["simulate", "--input", str(cloud_file), "--output", out]
        assert main(base + ["--alpha", "0.06", "--mor", "50"]) == 2
        assert main(base) == 2                       # neither alpha nor mor
        assert main(base + ["--alpha", "-1"]) == 2   # invalid value
        # out of the other quantity's domain: the message names the flag given
        capsys.readouterr()
        for flags, name in ((["--alpha", "inf"], "alpha"), (["--mor", "1e-309"], "mor")):
            assert main(base + flags) == 2
            assert capsys.readouterr().err.startswith(f"error: {name} ")
        assert main(base + ["--alpha", "0.06", "--r1", "2", "--r2", "1"]) == 2
        for tau_h in ("inf", "1e300"):  # no finite pulse span
            assert main(base + ["--alpha", "0.06", "--tau-h", tau_h]) == 2

    def test_stats_mor_is_the_mor_given(self, tmp_path, cloud_file):
        # 3 / (3 / 7.1) is 7.099999999999999: the MOR is not derived from alpha
        stats = tmp_path / "stats.json"
        base = ["simulate", "--input", str(cloud_file), "--output", str(tmp_path / "o.bin"),
                "--stats", str(stats)]
        for flags, mor in ((["--mor", "7.1"], 7.1), (["--mor", "inf"], None),
                           (["--alpha", "0.06"], 50.0), (["--alpha", "0"], None)):
            assert main(base + flags) == 0
            assert json.loads(stats.read_text())["mor"] == mor

    def test_overflowing_fog_return_exits_2_and_writes_nothing(self, tmp_path, capsys):
        scan = tmp_path / "scan.bin"
        rows = make_bin(scan, n=300)
        rows[:, 3] /= rows[:, 3].max()  # KITTI-style reflectance in [0, 1]
        scan.write_bytes(rows.tobytes())
        outputs = [tmp_path / name for name in ("o.bin", "stats.json", "prov.bin")]
        base = ["simulate", "--input", str(scan), "--output", str(outputs[0]),
                "--stats", str(outputs[1]), "--provenance", str(outputs[2]), "--alpha", "0.06"]
        for flags in (["--beta", "1e308"], ["--beta0", "1e-320"]):
            assert main(base + flags) == 2
            assert "overflows" in capsys.readouterr().err
            assert not any(path.exists() for path in outputs)

    @pytest.fixture
    def huge_intensity_ply(self, tmp_path):
        # a finite intensity that only a float64 PLY body can carry
        path = tmp_path / "scan.ply"
        path.write_text(_PLY_HEADER.format(n=2) + "50 0 0 1e300\n10 0 0 0.5\n")
        return path

    def test_overflowing_intensity_names_the_point(self, huge_intensity_ply, tmp_path, capsys):
        out = tmp_path / "o.ply"
        assert main(["simulate", "--input", str(huge_intensity_ply), "--output", str(out),
                     "--format", "ply", "--alpha", "0.06"]) == 2
        # the fog parameters are valid and are not blamed
        assert capsys.readouterr().err == ("error: point 0 (intensity 1e+300, range 50.0 m) "
                                           "has a fog return that overflows\n")
        assert not out.exists()

    def test_fog_overflowing_at_unit_intensity_names_the_fog(self, huge_intensity_ply,
                                                              tmp_path, capsys):
        out = tmp_path / "o.ply"
        assert main(["simulate", "--input", str(huge_intensity_ply), "--output", str(out),
                     "--format", "ply", "--alpha", "0.06", "--beta", "1e300",
                     "--beta0", "1e-300"]) == 2
        assert capsys.readouterr().err == ("error: the fog return overflows: beta=1e+300 and "
                                           "beta_0=1e-300 give a non-finite intensity\n")
        assert not out.exists()

    def test_empty_input_exits_1_and_names_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        rc = main(["simulate", "--input", str(empty),
                   "--output", str(tmp_path / "o.bin"), "--alpha", "0.06"])
        assert rc == 1
        assert str(empty) in capsys.readouterr().err

    def test_input_truncated_after_its_size_is_taken_exits_1(self, tmp_path, cloud_file,
                                                               capsys, monkeypatch):
        # the file loses 12 bytes, leaving 41 floats, just after the reader
        # takes its size, by path or from the open file
        size = cloud_file.stat().st_size
        inode = cloud_file.stat().st_ino
        getsize, fstat = os.path.getsize, os.fstat

        def getsize_then_truncate(path):
            got = getsize(path)
            if os.path.samefile(path, cloud_file):
                os.truncate(cloud_file, 164)
            return got

        def fstat_then_truncate(fd):
            got = fstat(fd)
            if got.st_ino == inode:
                os.truncate(cloud_file, 164)
            return got

        assert size > 164 and size % 16 == 0
        monkeypatch.setattr(os.path, "getsize", getsize_then_truncate)
        monkeypatch.setattr(os, "fstat", fstat_then_truncate)
        out = tmp_path / "o.bin"
        assert main(["simulate", "--input", str(cloud_file), "--output", str(out),
                     "--alpha", "0.06"]) == 1
        assert f"error: {cloud_file}: file ended at byte " in capsys.readouterr().err
        assert not out.exists()

    def test_output_onto_a_directory_exits_1_and_leaves_no_temp(self, tmp_path, cloud_file,
                                                                capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["simulate", "--input", str(cloud_file), "--output", str(out),
                     "--alpha", "0.06"]) == 1
        assert f"Is a directory: '{out}.tmp{os.getpid()}' -> '{out}'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scan.bin"]
        assert list(out.iterdir()) == []

    def test_workers_below_one_exit_2(self, tmp_path, cloud_file):
        base = ["simulate", "--input", str(cloud_file), "--output", str(tmp_path / "o.bin"),
                "--alpha", "0.06", "--workers"]
        assert main(base + ["0"]) == 2
        assert main(base + ["-3"]) == 2
        assert not (tmp_path / "o.bin").exists()

    def test_peak_correction_rejected(self, tmp_path, cloud_file):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--input", str(cloud_file), "--output", str(tmp_path / "o.bin"),
                  "--alpha", "0.06", "--peak-correction"])
        assert exc.value.code == 2

    def test_config_file_with_flag_override(self, tmp_path, cloud_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.06\nseed = 9\nno-rescale = true\n# comment\n")
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        c = tmp_path / "c.bin"
        assert main(["simulate", "--config", str(cfg),
                     "--input", str(cloud_file), "--output", str(a)]) == 0
        assert main(["simulate", "--input", str(cloud_file), "--output", str(b),
                     "--alpha", "0.06", "--seed", "9", "--no-rescale"]) == 0
        assert a.read_bytes() == b.read_bytes()
        # a flag beats the config value
        assert main(["simulate", "--config", str(cfg), "--seed", "11",
                     "--input", str(cloud_file), "--output", str(c)]) == 0
        assert c.read_bytes() != a.read_bytes()

    def test_config_value_starting_with_dash(self, tmp_path, cloud_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cloud_file.rename("-scan.bin")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("input = -scan.bin\noutput = -a.bin\nalpha = 0.06\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["simulate", "--input=-scan.bin", "--output=-b.bin",
                     "--alpha", "0.06"]) == 0
        assert (tmp_path / "-a.bin").read_bytes() == (tmp_path / "-b.bin").read_bytes()

    def test_config_equals_spelling_runs_like_two_tokens(self, tmp_path, cloud_file):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("alpha = 0.06\nseed = 9\n")
        outs = [tmp_path / f"{name}.bin" for name in "abc"]
        assert main(["simulate", f"--config={cfg}",
                     "--input", str(cloud_file), "--output", str(outs[0])]) == 0
        assert main(["simulate", "--config", str(cfg),
                     "--input", str(cloud_file), "--output", str(outs[1])]) == 0
        assert main(["simulate", "--alpha", "0.06", "--seed", "9",
                     "--input", str(cloud_file), "--output", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("line, message", [
        ("alpha 0.02", "bad.cfg: expected key=value, got 'alpha 0.02'"),
        ("no_rescale = maybe", "bad.cfg: boolean key no-rescale has value 'maybe'"),
    ])
    def test_bad_config_line_exits_2(self, tmp_path, cloud_file, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"seed = 9\n{line}\n")
        assert main(["simulate", "--config", str(cfg), "--alpha", "0.06",
                     "--input", str(cloud_file), "--output", str(tmp_path / "o.bin")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()

    def test_config_booleans_match_the_parser(self, tmp_path):
        flags = store_true_flags()
        assert set(REQUIRED_ARGS) == set(flags)
        assert set().union(*flags.values()) == _BOOL_FLAGS
        cfg = tmp_path / "flag.cfg"
        for cmd, names in flags.items():
            for name, dest in names.items():
                cfg.write_text(f"{name} = true\n")
                argv = _apply_config_file([cmd, "--config", str(cfg), *REQUIRED_ARGS[cmd]])
                assert getattr(build_parser().parse_args(argv), dest) is True, (cmd, name)


class TestSweep:
    def _make_dir(self, tmp_path, n_files=12):
        src = tmp_path / "in"
        src.mkdir()
        for i in range(n_files):
            make_bin(src / f"{i:04d}.bin", n=200, seed=i)
        return src

    def test_manifest_and_outputs(self, tmp_path):
        src = self._make_dir(tmp_path)
        dst = tmp_path / "out"
        rc = main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                   "--seed", "3", "--workers", "2"])
        assert rc == 0
        manifest = json.loads((dst / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert len(manifest["files"]) == 12
        assert set(manifest["files"]) == {f"{i:04d}.bin" for i in range(12)}
        assert all(a in list(DEFAULT_ALPHA_SCHEDULE) for a in manifest["files"].values())
        for name in manifest["files"]:
            assert (dst / name).stat().st_size == (src / name).stat().st_size

    def test_rerun_identical(self, tmp_path):
        src = self._make_dir(tmp_path, n_files=6)
        d1 = tmp_path / "o1"
        d2 = tmp_path / "o2"
        for dst in (d1, d2):
            assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                         "--seed", "3"]) == 0
        assert (d1 / "manifest.json").read_text() == (d2 / "manifest.json").read_text()
        for name in json.loads((d1 / "manifest.json").read_text())["files"]:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_failures_logged_batch_continues(self, tmp_path, capsys):
        src = self._make_dir(tmp_path, n_files=4)
        (src / "broken.bin").write_bytes(b"\x00" * 7)
        dst = tmp_path / "out"
        rc = main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                   "--seed", "3", "--workers", "1"])
        assert rc == 1
        manifest = json.loads((dst / "manifest.json").read_text())
        assert len(manifest["files"]) == 4
        assert "broken.bin" in manifest["failures"]
        assert "broken.bin" in capsys.readouterr().err

    def test_overflowing_fog_return_is_a_failure(self, tmp_path):
        src = self._make_dir(tmp_path, n_files=3)
        dst = tmp_path / "out"
        assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                     "--alphas", "0.06", "--beta", "1e308"]) == 1
        manifest = json.loads((dst / "manifest.json").read_text())
        assert manifest["files"] == {}
        assert set(manifest["failures"]) == {"0000.bin", "0001.bin", "0002.bin"}
        assert all("overflows" in err for err in manifest["failures"].values())
        assert sorted(os.listdir(dst)) == ["manifest.json"]

    def test_empty_file_is_a_failure(self, tmp_path):
        src = self._make_dir(tmp_path, n_files=2)
        (src / "empty.bin").write_bytes(b"")
        dst = tmp_path / "out"
        assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst)]) == 1
        manifest = json.loads((dst / "manifest.json").read_text())
        assert set(manifest["files"]) == {"0000.bin", "0001.bin"}
        assert manifest["failures"] == {
            "empty.bin": f"{os.path.join(src, 'empty.bin')}: no points to foggify"}

    @pytest.mark.parametrize("fmt", ["bin", "ply"])
    def test_swept_file_is_a_simulate_run(self, tmp_path, fmt):
        # with a one-value schedule every file gets that alpha, and its noise
        # is keyed by seed ^ stable_key64(name), as `simulate --seed` takes it
        src = tmp_path / "in"
        src.mkdir()
        for i in range(3):
            make_bin(tmp_path / "clear.bin", n=3000, seed=i)
            write_cloud(read_cloud(tmp_path / "clear.bin"), src / f"{i:04d}.{fmt}",
                        CloudFormat(kind=fmt))
        dst = tmp_path / "out"
        assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                     "--alphas", "0.06", "--seed", "11", "--workers", "2",
                     "--format", fmt]) == 0
        names = sorted(os.listdir(src))
        assert json.loads((dst / "manifest.json").read_text())["files"] == dict.fromkeys(
            names, 0.06)
        for name in names:
            ref = tmp_path / f"ref.{fmt}"
            assert main(["simulate", "--input", str(src / name), "--output", str(ref),
                         "--alpha", "0.06", "--seed", str(11 ^ stable_key64(name)),
                         "--format", fmt]) == 0
            assert (dst / name).read_bytes() == ref.read_bytes(), name

    def test_name_not_utf8_is_processed(self, tmp_path):
        # os.listdir gives the bad byte as a surrogate escape
        bad = os.fsdecode(b"bad\xff.bin")
        src = tmp_path / "in"
        alone = tmp_path / "alone"
        for d in (src, alone):
            d.mkdir()
            make_bin(d / "good.bin", n=200, seed=0)
        make_bin(src / bad, n=200, seed=1)
        for d, dst in ((src, tmp_path / "out"), (alone, tmp_path / "ref")):
            assert main(["sweep", "--input-dir", str(d), "--output-dir", str(dst),
                         "--seed", "3"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["files"]) == {"good.bin", bad}
        assert manifest["failures"] == {}
        # its draw is keyed by the name's bytes on disk
        key = int.from_bytes(hashlib.blake2b(b"bad\xff.bin", digest_size=8).digest(), "little")
        assert manifest["files"][bad] == sample_alpha(DEFAULT_ALPHA_SCHEDULE, uniform01(3, key))
        assert (tmp_path / "out" / bad).stat().st_size == (src / bad).stat().st_size
        assert ((tmp_path / "out" / "good.bin").read_bytes()
                == (tmp_path / "ref" / "good.bin").read_bytes())

    def test_invalid_schedule_exits_2_before_any_file(self, tmp_path):
        src = self._make_dir(tmp_path, n_files=3)
        dst = tmp_path / "out"
        assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                     "--alphas=-0.1,0.02"]) == 2
        assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                     "--alphas", "0.02,nan", "--beta", "0.001"]) == 2
        assert not dst.exists()

    def test_empty_schedule_exits_2(self, tmp_path, capsys):
        src = self._make_dir(tmp_path, n_files=1)
        dst = tmp_path / "out"
        assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                     "--alphas", ","]) == 2
        assert "--alphas schedule is empty" in capsys.readouterr().err
        assert not dst.exists()

    def test_output_dir_equal_to_input_exits_2(self, tmp_path, capsys):
        src = self._make_dir(tmp_path, n_files=1)
        before = (src / "0000.bin").read_bytes()
        (tmp_path / "link").symlink_to(src, target_is_directory=True)
        for dst in (src, src / ".", tmp_path / "link"):
            assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst)]) == 2
            assert "is the input directory" in capsys.readouterr().err
            assert sorted(os.listdir(src)) == ["0000.bin"]
            assert (src / "0000.bin").read_bytes() == before

    def test_workers_below_one_exit_2(self, tmp_path):
        src = self._make_dir(tmp_path, n_files=2)
        dst = tmp_path / "out"
        for workers in ("0", "-1"):
            assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                         "--workers", workers]) == 2
        assert not dst.exists()

    def test_one_and_two_workers_agree(self, tmp_path):
        src = self._make_dir(tmp_path, n_files=6)
        (src / "broken.bin").write_bytes(b"\x00" * 7)
        outs = []
        for workers in ("1", "2"):
            dst = tmp_path / f"o{workers}"
            assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                         "--seed", "3", "--workers", workers]) == 1
            outs.append({p.name: p.read_bytes() for p in dst.iterdir()})
        assert outs[0] == outs[1]
        assert len(outs[0]) == 7  # six outputs and the manifest

    def test_peak_correction_rejected(self, tmp_path):
        src = self._make_dir(tmp_path, n_files=1)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--input-dir", str(src), "--output-dir", str(tmp_path / "out"),
                  "--peak-correction"])
        assert exc.value.code == 2

    def test_nonfinite_pulse_span_exits_2(self, tmp_path):
        src = self._make_dir(tmp_path, n_files=1)
        dst = tmp_path / "out"
        for tau_h in ("inf", "1e300"):
            assert main(["sweep", "--input-dir", str(src), "--output-dir", str(dst),
                         "--tau-h", tau_h]) == 2
        assert not dst.exists()

    def test_empty_dir_exits_2(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        assert main(["sweep", "--input-dir", str(src),
                     "--output-dir", str(tmp_path / "out")]) == 2

    def test_per_file_draws_are_uniform(self):
        # the sweep keys each file's draw on (seed, filename hash)
        picks = [sample_alpha(DEFAULT_ALPHA_SCHEDULE,
                              uniform01(3, stable_key64(f"{i:06d}.bin")))
                 for i in range(6000)]
        freq = {a: picks.count(a) / 6000 for a in DEFAULT_ALPHA_SCHEDULE}
        for a, f in freq.items():
            assert abs(f - 1 / 6) <= 0.02, f"alpha {a}: frequency {f}"


class TestResponse:
    def test_clear_air_soft_column_zero(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        rc = main(["response", "--r0", "30", "--alpha", "0", "--output", str(csv)])
        assert rc == 0
        assert "hard wins" in capsys.readouterr().out
        rows = csv.read_text().splitlines()
        assert rows[0] == "range,p_hard,p_soft"
        soft = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert np.all(soft == 0.0)

    def test_hard_support_window(self, tmp_path):
        csv = tmp_path / "r.csv"
        assert main(["response", "--r0", "30", "--alpha", "0.06",
                     "--output", str(csv)]) == 0
        rows = [r.split(",") for r in csv.read_text().splitlines()[1:]]
        rng_col = np.array([float(r[0]) for r in rows])
        hard = np.array([float(r[1]) for r in rows])
        span = 299_792_458.0 * 20e-9
        nz = hard > 0
        assert np.all(rng_col[nz] > 30.0)
        assert np.all(rng_col[nz] < 30.0 + span)
        assert hard.max() > 0

    def test_dense_fog_soft_wins(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        assert main(["response", "--r0", "30", "--alpha", "0.2",
                     "--output", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "soft wins" in out
        assert "r_tmp=" in out

    def test_soft_column_matches_table_peak(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        assert main(["response", "--r0", "30", "--alpha", "0.06",
                     "--output", str(csv)]) == 0
        rows = [r.split(",") for r in csv.read_text().splitlines()[1:]]
        rng_col = np.array([float(r[0]) for r in rows])
        soft = np.array([float(r[2]) for r in rows])
        assert rng_col[np.argmax(soft)] == pytest.approx(4.6, abs=0.05)

    def test_invalid_r0_exits_2(self, tmp_path):
        assert main(["response", "--r0", "0.5", "--alpha", "0.06",
                     "--output", str(tmp_path / "r.csv")]) == 2

    def test_r0_beyond_max_range_exits_2(self, tmp_path, capsys):
        assert main(["response", "--r0", "250", "--alpha", "0.06",
                     "--output", str(tmp_path / "r.csv")]) == 2
        assert f"--r0 must be within {MAX_RANGE} m" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_nonfinite_pulse_span_or_energy_exits_2(self, tmp_path):
        base = ["response", "--r0", "30", "--alpha", "0.06", "--output", str(tmp_path / "r.csv")]
        for tau_h in ("inf", "1e300"):
            assert main(base + ["--tau-h", tau_h]) == 2
        assert main(base + ["--ca-p0", "inf"]) == 2
        assert not (tmp_path / "r.csv").exists()

    def test_grid_beyond_twice_max_range_exits_2_at_once(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        base = ["response", "--alpha", "0.06", "--output", str(csv)]
        t0 = time.perf_counter()
        # a 30 km pulse span would ask for ~300,000 rows
        assert main(base + ["--r0", "30", "--tau-h", "1e-4"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "400.0 m" in capsys.readouterr().err
        # r0 + c*tau_h just beyond and just within 2 * MAX_RANGE
        assert main(base + ["--r0", "200", "--tau-h", "6.7e-7"]) == 2
        assert not csv.exists()
        assert main(base + ["--r0", "200", "--tau-h", "6.6e-7"]) == 0
        rows = csv.read_text().splitlines()[1:]
        assert 3900 < len(rows) <= 4000
        assert float(rows[-1].split(",")[0]) <= 2 * MAX_RANGE

    @pytest.mark.parametrize("flag", [["--format", "ply"], ["--columns", "9"],
                                      ["--allow-nonfinite"]])
    def test_file_flags_rejected(self, tmp_path, flag):
        # response reads no point cloud
        with pytest.raises(SystemExit) as exc:
            main(["response", "--r0", "30", "--alpha", "0.06",
                  "--output", str(tmp_path / "r.csv")] + flag)
        assert exc.value.code == 2


class TestIntersect:
    def test_self_intersection(self, tmp_path, cloud_file, capsys):
        out = tmp_path / "kept.bin"
        rc = main(["intersect", str(cloud_file), str(cloud_file),
                   "--output", str(out), "--tolerance", "0"])
        assert rc == 0
        assert out.read_bytes() == cloud_file.read_bytes()
        assert "(1.0000)" in capsys.readouterr().out

    def test_disjoint(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        rows = make_bin(a, n=100, seed=1)
        shifted = rows.copy()
        shifted[:, :3] += 5000.0
        b.write_bytes(shifted.astype("<f4").tobytes())
        rc = main(["intersect", str(a), str(b), "--output", str(tmp_path / "o.bin")])
        assert rc == 0
        assert "(0.0000)" in capsys.readouterr().out

    def test_half_overlap(self, tmp_path, capsys):
        rows = make_bin(tmp_path / "unused.bin", n=100, seed=2)
        strongest = tmp_path / "s.bin"
        strongest.write_bytes(rows.tobytes())
        half = rows.copy()
        half[50:, :3] += 5000.0  # second half has no counterpart
        last = tmp_path / "l.bin"
        last.write_bytes(half.astype("<f4").tobytes())
        rc = main(["intersect", str(strongest), str(last),
                   "--output", str(tmp_path / "o.bin"), "--tolerance", "1e-3"])
        assert rc == 0
        assert "50/100" in capsys.readouterr().out

    def test_empty_clouds_accepted(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        out = tmp_path / "o.bin"
        assert main(["intersect", str(empty), str(empty), "--output", str(out)]) == 0
        assert out.read_bytes() == b""
        assert "0/0" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_exits_2_before_any_read(self, tmp_path, cloud_file, capsys, tol):
        # were a file read before the check, the missing one would exit 1
        missing = tmp_path / "missing.bin"
        for pair in ((cloud_file, missing), (missing, cloud_file)):
            rc = main(["intersect", *map(str, pair), "--output", str(tmp_path / "o.bin"),
                       "--tolerance", tol])
            assert rc == 2
            assert "--tolerance must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()

    def test_malformed_ply_exits_1_and_names_file(self, tmp_path, capsys):
        good = tmp_path / "good.ply"
        good.write_text(_PLY_HEADER.format(n=1) + "1 2 3 4\n")
        for name, content in {
            "count.ply": _PLY_HEADER.format(n="x") + "1 2 3 4\n",
            "latin1.ply": _PLY_HEADER.format(n=1) + "1 2 3 4\xe9\n",
            # an ASCII body under a binary or missing format line
            "binary.ply": _PLY_HEADER.format(n=1).replace("ascii", "binary_little_endian")
                          + "1 2 3 4\n",
            "noformat.ply": _PLY_HEADER.format(n=1).replace("format ascii 1.0\n", "")
                            + "1 2 3 4\n",
            "underscore.ply": _PLY_HEADER.format(n=1) + "1_0 2 3 4\n",
            "threecol.ply": _PLY_HEADER.format(n=1) + "1 2 3\n",
        }.items():
            bad = tmp_path / name
            bad.write_bytes(content.encode("latin-1"))
            rc = main(["intersect", str(bad), str(good), "--format", "ply",
                       "--output", str(tmp_path / "o.ply")])
            assert rc == 1, name
            assert str(bad) in capsys.readouterr().err

    def test_allow_nonfinite_drops_nonfinite_points(self, tmp_path, capsys):
        rows = make_bin(tmp_path / "unused.bin", n=100, seed=3)
        for holder in ("strongest", "last"):
            strongest, last = rows.copy(), rows.copy()
            bad = strongest if holder == "strongest" else last
            bad[7, 0] = np.nan
            bad[20, 2] = np.inf
            (tmp_path / "s.bin").write_bytes(strongest.tobytes())
            (tmp_path / "l.bin").write_bytes(last.tobytes())
            out = tmp_path / "o.bin"
            argv = ["intersect", str(tmp_path / "s.bin"), str(tmp_path / "l.bin"),
                    "--output", str(out), "--tolerance", "0"]
            assert main(argv) == 1, holder  # rejected at read time without the flag
            capsys.readouterr()
            assert main(argv + ["--allow-nonfinite"]) == 0, holder
            assert "98/100" in capsys.readouterr().out
            kept = np.fromfile(out, dtype="<f4").reshape(-1, 4)
            assert np.array_equal(kept, np.delete(rows, [7, 20], axis=0)), holder


class TestHelp:
    def test_help_lists_all_flags(self, capsys):
        for cmd, flags in {
            "simulate": ["--input", "--output", "--alpha", "--mor", "--beta", "--beta0",
                         "--tau-h", "--r1", "--r2", "--seed", "--no-rescale", "--stats",
                         "--provenance", "--workers", "--format",
                         "--columns", "--allow-nonfinite", "--config"],
            "sweep": ["--input-dir", "--output-dir", "--alphas", "--seed", "--workers"],
            "response": ["--r0", "--ca-p0", "--output", "--peak-correction"],
            "intersect": ["--tolerance", "--output"],
        }.items():
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, f"{cmd} help missing {flag}"
            if cmd in ("simulate", "sweep"):
                # only `response` applies the peak shift
                assert "--peak-correction" not in text

    def test_sweep_seed_and_no_rescale_are_explained(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        helps = {cmd: {a.dest: a.help for a in p._actions} for cmd, p in sub.choices.items()}
        seed = helps["sweep"]["seed"]
        assert "alpha" in seed and "noise" in seed, seed
        assert helps["sweep"]["no_rescale"] == helps["simulate"]["no_rescale"]
        assert "rescale" in helps["sweep"]["no_rescale"]

    def test_every_sensor_field_has_a_flag(self, capsys):
        flags = ["--" + f.name.replace("_", "-") for f in dataclasses.fields(lidarfog.SensorModel)]
        for cmd in ("simulate", "sweep", "response"):
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, f"{cmd} help missing {flag}"


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy serves only `intersect`; importing it costs every command ~0.3 s
        src = os.path.dirname(os.path.dirname(lidarfog.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import lidarfog.cli, sys; assert 'scipy' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_intersect_leaves_scipy_unloaded(self, tmp_path):
        # the dual-return join is numpy only; importing scipy costs ~0.4 s per run
        rows = make_bin(tmp_path / "scan.bin", n=200, seed=4)
        (tmp_path / "last.bin").write_bytes(rows[::2].tobytes())
        src = os.path.dirname(os.path.dirname(lidarfog.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys; from lidarfog.cli import main; "
                "assert main(sys.argv[1:]) == 0; assert 'scipy' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code, "intersect", "scan.bin", "last.bin",
                               "--output", "kept.bin"], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "100/200" in proc.stdout

    def test_no_command_loads_hashlib_and_only_threads_load_pools(self, tmp_path):
        # hashlib maps OpenSSL (~3.4 MB): `sweep` keys its files with blake2b
        # from `_blake2`, so no command loads hashlib or _hashlib.
        # concurrent.futures brings logging; `simulate` starts no block thread
        # on a KITTI-sized scan (4 blocks), and a sweep starts file threads
        # only with two workers and two files
        (tmp_path / "in").mkdir()
        (tmp_path / "in2").mkdir()
        rows = make_bin(tmp_path / "in" / "scan.bin", n=200, seed=4)
        make_bin(tmp_path / "in2" / "a.bin", n=200, seed=6)
        make_bin(tmp_path / "in2" / "b.bin", n=200, seed=7)
        make_bin(tmp_path / "kitti.bin", n=120_000, seed=5)
        (tmp_path / "last.bin").write_bytes(rows[::2].tobytes())
        src = os.path.dirname(os.path.dirname(lidarfog.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = textwrap.dedent("""
            import sys
            from lidarfog.cli import main

            def loaded():
                return [m for m in ("hashlib", "_hashlib", "concurrent.futures")
                        if m in sys.modules]

            assert loaded() == [], ("import", loaded())
            assert main(["intersect", "in/scan.bin", "last.bin", "--output", "kept.bin"]) == 0
            assert main(["response", "--r0", "30", "--alpha", "0.06", "--output", "curve.csv"]) == 0
            assert main(["simulate", "--input", "in/scan.bin", "--output", "fog.bin",
                         "--alpha", "0.02"]) == 0
            assert main(["simulate", "--input", "kitti.bin", "--output", "kitti_fog.bin",
                         "--alpha", "0.06"]) == 0
            assert loaded() == [], ("intersect, response, simulate", loaded())
            assert main(["sweep", "--input-dir", "in", "--output-dir", "out",
                         "--workers", "2"]) == 0
            assert loaded() == [], ("one-file sweep", loaded())
            assert main(["sweep", "--input-dir", "in2", "--output-dir", "out1",
                         "--workers", "1"]) == 0
            assert loaded() == [], ("one-worker sweep", loaded())
            assert main(["sweep", "--input-dir", "in2", "--output-dir", "out2",
                         "--workers", "2"]) == 0
            assert loaded() == ["concurrent.futures"], ("two-worker sweep", loaded())
        """)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
