"""Checks that outside users of the API still resolve after an API cut.

The benchmark's tracer reaches lidarfog through the bindings listed in
`perfbench/spans.py` (``TARGETS``); an API cut that drops one of them makes
``perfbench/run.py --trace 1`` fail while every other test passes.  The
README's Python API example is run as written, and the names it documents
are exported.  `--config` knows every boolean flag of the CLI.  The CLI reaches
the traced file steps through its module attributes on every call."""

import argparse
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np

import lidarfog
from lidarfog import cli
from lidarfog.foggify import _BLOCK_SIZE, _BLOCKS_PER_THREAD
from lidarfog.pointcloud_io import _PAIR_BUDGET
from lidarfog.tables import _INTENSITY_BAND, _RATIO_MARGIN

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attr, span in targets:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span}) is gone"


def count_cli_calls(monkeypatch):
    """Swap the file steps of `lidarfog.cli` for counting wrappers, rebinding
    the module attributes as `perfbench/spans.py` does; returns the list of
    (step, file name) calls."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            path = {"read_cloud": args[0], "write_cloud": args[1]}.get(name, "")
            calls.append((name, Path(path).name))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("read_cloud", "foggify_cloud", "write_cloud"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    return calls


def test_traced_steps_see_every_file(tmp_path, monkeypatch):
    # a refactor that bound these names early would hide calls from --trace 1
    src = tmp_path / "in"
    src.mkdir()
    rng = np.random.default_rng(0)
    for i in range(3):
        (src / f"{i}.bin").write_bytes(rng.uniform(1.0, 60.0, (500, 4)).astype("<f4").tobytes())
    calls = count_cli_calls(monkeypatch)
    assert cli.main(["simulate", "--input", str(src / "0.bin"),
                     "--output", str(tmp_path / "foggy.bin"), "--alpha", "0.06"]) == 0
    assert sorted(calls) == [("foggify_cloud", ""), ("read_cloud", "0.bin"),
                             ("write_cloud", "foggy.bin")]
    calls.clear()
    assert cli.main(["sweep", "--input-dir", str(src), "--output-dir", str(tmp_path / "out"),
                     "--workers", "2"]) == 0
    names = ["0.bin", "1.bin", "2.bin"]
    assert sorted(calls) == sorted([("foggify_cloud", "")] * 3
                                   + [(step, n) for n in names
                                      for step in ("read_cloud", "write_cloud")])


README_PATH = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(tmp_path, monkeypatch):
    text = README_PATH.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    # a small KITTI-style scan: float32 x, y, z and reflectance in [0, 1]
    rng = np.random.default_rng(0)
    rows = np.column_stack((rng.uniform(-60.0, 60.0, (2_000, 3)),
                            rng.uniform(0.0, 1.0, 2_000))).astype("<f4")
    (tmp_path / "scan.bin").write_bytes(rows.tobytes())
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README_PATH), "exec"), {})
    out = np.fromfile(tmp_path / "scan_foggy.bin", dtype="<f4").reshape(-1, 4)
    assert out.shape == rows.shape
    assert out[:, 3].max() == 255.0


def test_readme_lower_level_names_are_exported():
    text = README_PATH.read_text(encoding="utf-8")
    sentence = text.split("Lower-level pieces (", 1)[1].split(")", 1)[0]
    names = re.findall(r"`(\w+)`", sentence)
    assert len(names) >= 9
    assert set(names) <= set(lidarfog.__all__), set(names) - set(lidarfog.__all__)


def test_readme_pair_budget_is_the_code_figure():
    text = README_PATH.read_text(encoding="utf-8")
    powers = re.findall(r"checks at most 2\^(\d+)\s+candidate pairs", text)
    assert powers and all(2 ** int(p) == _PAIR_BUDGET for p in powers), powers


def test_readme_overshadow_band_and_margin_are_the_code_figures():
    # "How it works" states the intensity band and the ratio margin of the
    # kernel's overshadow bound
    text = README_PATH.read_text(encoding="utf-8")
    bands = re.findall(r"intensity band\s+\[2\^(-?\d+), 2\^(\d+)\]", text)
    assert bands and all((2.0 ** int(lo), 2.0 ** int(hi)) == _INTENSITY_BAND
                         for lo, hi in bands), bands
    margins = re.findall(r"1 - (\d(?:\.\d+)?e-\d+)", text)
    assert margins and all(float(m) == _RATIO_MARGIN for m in margins), margins


CLI_PATH = Path(lidarfog.__file__).with_name("cli.py")


def test_readme_thread_rule_is_the_code_figure():
    # the README and `simulate --help` state the default block-thread rule
    for path in (README_PATH, CLI_PATH):
        text = path.read_text(encoding="utf-8")
        rules = re.findall(r"one thread per (\d+)\s+\W*blocks of (\d+) points", text)
        assert rules, path
        assert all((int(k), int(rows)) == (_BLOCKS_PER_THREAD, _BLOCK_SIZE)
                   for k, rows in rules), (path, rules)


def test_every_exported_name_resolves():
    missing = [name for name in lidarfog.__all__ if not hasattr(lidarfog, name)]
    assert not missing


def test_config_bool_keys_are_the_zero_argument_flags():
    # `--config` turns `key = true` into a bare flag only for the keys in
    # _BOOL_FLAGS; any other key is passed as `--key=value`, which a
    # store_true flag rejects
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == {"simulate", "sweep", "response", "intersect"}
    flags = {opt[2:] for p in commands.choices.values() for a in p._actions
             if a.nargs == 0 and not isinstance(a, argparse._HelpAction)
             for opt in a.option_strings if opt.startswith("--")}
    assert flags == cli._BOOL_FLAGS
