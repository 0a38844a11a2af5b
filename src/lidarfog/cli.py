"""Command-line frontend.

Subcommands:
  simulate   foggify one point-cloud file
  sweep      foggify a directory, drawing a per-file attenuation coefficient
             from a schedule (training-style augmentation)
  response   emit hard/soft response curves for one target range as CSV
  intersect  strongest/last dual-return intersection filter

Exit codes: 0 success, 1 IO or file-format trouble, 2 invalid parameters.
Every flag can also be supplied from a key=value config file via --config;
command-line flags win on conflict.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from .foggify import (
    DEFAULT_ALPHA_SCHEDULE,
    FoggifyOutcome,
    _map_threads,
    alpha_to_mor,
    fog_from_alpha,
    fog_from_mor,
    foggify_cloud,
    sample_alpha,
)
from .optics import (
    DEFAULT_BETA_0,
    MAX_RANGE,
    RANGE_STEP,
    FogParams,
    PulseEnergy,
    SensorModel,
    clear_response,
    soft_response_integrals,
)
from .pointcloud_io import (
    DEFAULT_MATCH_TOLERANCE,
    CloudFormat,
    MalformedFileError,
    intersect_returns,
    read_cloud,
    write_cloud,
)
from .rng import stable_key64, uniform01
from .tables import build_table, build_tables, query_soft_max

STATS_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"

# `response` tabulates its curves out to r0 + c*tau_h; this caps that end,
# and with it the CSV, at 4000 rows of the 10 cm grid
RESPONSE_GRID_END = 2 * MAX_RANGE  # [m]

_BOOL_FLAGS = {"no-rescale", "peak-correction", "allow-nonfinite"}
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _add_config_flag(p):
    p.add_argument("--config", help="key=value file mirroring the flags; flags win")


def _add_io_flags(p):
    _add_config_flag(p)
    p.add_argument("--format", choices=("bin", "ply"), default="bin",
                   help="point cloud file format (default: bin)")
    p.add_argument("--columns", type=int, default=4,
                   help="float32 columns per binary record; extras beyond "
                        "x,y,z,intensity are dropped on read (default: 4)")
    p.add_argument("--allow-nonfinite", action="store_true",
                   help="keep records with NaN/inf values instead of rejecting the file")


def _add_sensor_flags(p):
    s = SensorModel()
    p.add_argument("--tau-h", type=float, default=s.tau_h,
                   help=f"half-power pulse width [s] (default: {s.tau_h})")
    p.add_argument("--r1", type=float, default=s.r1,
                   help=f"crossover ramp start [m] (default: {s.r1})")
    p.add_argument("--r2", type=float, default=s.r2,
                   help=f"crossover ramp end [m] (default: {s.r2})")


def _add_fog_flags(p, with_alpha=True):
    if with_alpha:
        p.add_argument("--alpha", type=float, help="attenuation coefficient [1/m]")
        p.add_argument("--mor", type=float, help="meteorological optical range [m]")
    p.add_argument("--beta", type=float,
                   help="backscattering coefficient [1/m]; wins over --mor/--alpha derivation")
    p.add_argument("--beta0", type=float, default=DEFAULT_BETA_0,
                   help="hard-target differential reflectivity [1/sr] (default: 1e-6/pi)")


def _sensor_from_args(args) -> SensorModel:
    return SensorModel(tau_h=args.tau_h, r1=args.r1, r2=args.r2)


def _workers_from_args(args):
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    return args.workers


def _fog_from_args(args) -> FogParams:
    """Resolve fog parameters: beta precedence is --beta > --mor > --alpha."""
    has_alpha = args.alpha is not None
    has_mor = args.mor is not None
    if has_alpha == has_mor:
        raise ValueError("exactly one of --alpha or --mor is required")
    if has_mor:
        return fog_from_mor(args.mor, beta=args.beta, beta_0=args.beta0)
    return fog_from_alpha(args.alpha, beta=args.beta, beta_0=args.beta0)


def _fmt_from_args(args) -> CloudFormat:
    return CloudFormat(kind=args.format, columns=args.columns)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _stats_payload(args, fog: FogParams, outcome: FoggifyOutcome, runtime_ms: float) -> dict:
    # the MOR as given: 3 / (3 / 7.1) is not 7.1
    mor = args.mor if args.mor is not None else alpha_to_mor(fog.alpha)
    return {
        "schema_version": STATS_SCHEMA_VERSION,
        "alpha": fog.alpha,
        "mor": mor if math.isfinite(mor) else None,
        "beta": fog.beta,
        "beta_0": fog.beta_0,
        "seed": args.seed,
        **dataclasses.asdict(outcome.stats),
        "runtime_ms": runtime_ms,
    }


def _foggify_file(args, src, dst, fmt, fog, table, seed, workers):
    """Read src, foggify it in place with `table` and write dst (`simulate`, or
    one file of `sweep`); returns the outcome and the transform's time [ms]."""
    cloud = read_cloud(src, fmt, allow_nonfinite=args.allow_nonfinite)
    if len(cloud) == 0:
        raise MalformedFileError(f"{src}: no points to foggify")
    t0 = time.perf_counter()
    outcome = foggify_cloud(cloud, fog, table.sensor, seed=seed, rescale=not args.no_rescale,
                            table=table, workers=workers, in_place=True)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    write_cloud(outcome.cloud, dst, fmt)
    return outcome, runtime_ms


def cmd_simulate(args) -> int:
    fog = _fog_from_args(args)
    sensor = _sensor_from_args(args)
    fmt = _fmt_from_args(args)
    workers = _workers_from_args(args)
    # the table's quadrature temporaries are freed before the cloud is read
    table = build_table(fog, sensor)
    outcome, runtime_ms = _foggify_file(args, args.input, args.output, fmt, fog, table,
                                        args.seed, workers)
    if args.stats:
        _write_json(args.stats, _stats_payload(args, fog, outcome, runtime_ms))
    if args.provenance:
        with open(args.provenance, "wb") as fh:
            outcome.provenance.tofile(fh)
    s = outcome.stats
    print(f"{args.input}: {s.n_points} points, {s.n_soft_replaced} relocated "
          f"({s.fraction_replaced:.4f}), {s.n_skipped} skipped, "
          f"alpha={fog.alpha:.6g}, {runtime_ms:.1f} ms")
    return 0


def cmd_sweep(args) -> int:
    sensor = _sensor_from_args(args)
    fmt = _fmt_from_args(args)
    workers = _workers_from_args(args) or os.cpu_count() or 1
    schedule = [float(v) for v in args.alphas.split(",") if v.strip() != ""]
    if not schedule:
        raise ValueError("--alphas schedule is empty")
    names = sorted(n for n in os.listdir(args.input_dir) if n.endswith("." + args.format))
    if not names:
        raise ValueError(f"no .{args.format} files in {args.input_dir}")
    # writing into the input directory would replace each clear scan with its foggy one
    if os.path.exists(args.output_dir) and os.path.samefile(args.input_dir, args.output_dir):
        raise ValueError(f"--output-dir {args.output_dir} is the input directory")

    # plan: each file's alpha is a pure function of (seed, name), so every
    # fog is checked and every table built, in one pass, before any file is
    # opened
    keys = {name: stable_key64(name) for name in names}
    drawn = {name: sample_alpha(schedule, uniform01(args.seed, keys[name])) for name in names}
    fogs = {a: fog_from_alpha(a, beta=args.beta, beta_0=args.beta0) for a in schedule}
    used = sorted(set(drawn.values()))
    tables = dict(zip(used, build_tables([fogs[a] for a in used], sensor)))
    os.makedirs(args.output_dir, exist_ok=True)

    def process(name: str):
        """Foggify one file; returns None or the error that stopped it."""
        try:
            _foggify_file(args, os.path.join(args.input_dir, name),
                          os.path.join(args.output_dir, name), fmt, fogs[drawn[name]],
                          tables[drawn[name]], args.seed ^ keys[name], 1)
        except Exception as exc:  # keep the batch going
            print(f"error: {name}: {exc}", file=sys.stderr)
            return str(exc)
        return None

    failures = {n: e for n, e in zip(names, _map_threads(process, names, workers)) if e is not None}

    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "seed": args.seed,
        "schedule": schedule,
        "files": {n: drawn[n] for n in names if n not in failures},
        "failures": failures,
    }
    _write_json(os.path.join(args.output_dir, MANIFEST_NAME), manifest)
    print(f"{len(names) - len(failures)} file(s) processed, {len(failures)} failed; "
          f"manifest at {os.path.join(args.output_dir, MANIFEST_NAME)}")
    return 1 if failures else 0


def cmd_response(args) -> int:
    fog = _fog_from_args(args)
    sensor = _sensor_from_args(args)
    r0 = args.r0
    if not r0 > sensor.r2:
        raise ValueError(f"--r0 must exceed the crossover end r2={sensor.r2}")
    if r0 > MAX_RANGE:
        raise ValueError(f"--r0 must be within {MAX_RANGE} m")
    energy = (PulseEnergy(args.ca_p0) if args.ca_p0 is not None
              else PulseEnergy.from_reference(100.0, r0, fog.beta_0))

    span = sensor.pulse_span
    if not r0 + span <= RESPONSE_GRID_END:
        raise ValueError(f"--r0 plus the pulse span c*tau_h ({r0 + span:.6g} m) must be "
                         f"within {RESPONSE_GRID_END} m, the end of the response grid")
    shift = span / 2.0 if args.peak_correction else 0.0
    n = int((r0 + span) / RANGE_STEP)
    grid = (np.arange(n, dtype=np.int64) + 1) * RANGE_STEP

    p_hard = np.exp(-2.0 * fog.alpha * r0) * clear_response(
        grid, r0, energy, fog, sensor, peak_correction=args.peak_correction)
    p_soft = energy.ca_p0 * fog.beta * soft_response_integrals(grid + shift, fog, sensor,
                                                               hard_range=r0)

    table = build_table(fog, sensor)
    _, r_tmp = query_soft_max(table, r0)
    hard_max = float(p_hard.max())
    soft_max = float(p_soft.max())
    verdict = "soft wins" if soft_max > hard_max else "hard wins"

    with open(args.output, "w", encoding="ascii") as fh:
        fh.write("range,p_hard,p_soft\n")
        for r, ph, ps in zip(grid, p_hard, p_soft):
            fh.write(f"{r:.6g},{ph:.12e},{ps:.12e}\n")
    print(f"{verdict}: p_soft_max={soft_max:.6e} p_hard_max={hard_max:.6e} "
          f"r_tmp={r_tmp - shift:.6g}")
    return 0


def cmd_intersect(args) -> int:
    if not args.tolerance >= 0:  # NaN included
        raise ValueError(f"--tolerance must be >= 0, got {args.tolerance}")
    fmt = _fmt_from_args(args)
    strongest = read_cloud(args.strongest, fmt, allow_nonfinite=args.allow_nonfinite)
    last = read_cloud(args.last, fmt, allow_nonfinite=args.allow_nonfinite)
    kept = intersect_returns(strongest, last, tol=args.tolerance)
    total = len(strongest)
    del strongest, last  # the write holds the kept points alone
    write_cloud(kept, args.output, fmt)
    frac = len(kept) / total if total else 0.0
    print(f"{len(kept)}/{total} points retained ({frac:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidarfog",
        description="Physically-based fog simulation for LiDAR point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="foggify one point-cloud file")
    p.add_argument("--input", required=True, help="clear-weather input cloud")
    p.add_argument("--output", required=True, help="foggified output cloud")
    _add_fog_flags(p)
    _add_sensor_flags(p)
    p.add_argument("--seed", type=int, default=0, help="noise seed (default: 0)")
    p.add_argument("--no-rescale", action="store_true",
                   help="skip the per-cloud intensity rescale to the full value range")
    p.add_argument("--stats", help="write run statistics JSON here")
    p.add_argument("--provenance", help="write per-point provenance mask here "
                                        "(one byte per point: 0 kept, 1 relocated)")
    p.add_argument("--workers", type=int, help="block threads (default: one thread per 4 "
                                               "blocks of 32768 points, at most the cpu count)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="foggify a directory with per-file alpha sampling")
    p.add_argument("--input-dir", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_ALPHA_SCHEDULE),
                   help="comma-separated alpha schedule "
                        f"(default: {','.join(str(a) for a in DEFAULT_ALPHA_SCHEDULE)})")
    _add_fog_flags(p, with_alpha=False)
    _add_sensor_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="draws each file's alpha and keys its noise (default: 0)")
    p.add_argument("--no-rescale", action="store_true",
                   help="skip the per-cloud intensity rescale to the full value range")
    p.add_argument("--workers", type=int, help="parallel files (default: cpu count)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("response", help="hard/soft response curves for one target range")
    p.add_argument("--r0", type=float, required=True, help="hard-target range [m]")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--ca-p0", type=float,
                   help="pulse energy times system constant "
                        "(default: implied by intensity 100 at r0)")
    _add_fog_flags(p)
    _add_sensor_flags(p)
    p.add_argument("--peak-correction", action="store_true",
                   help="report response maxima shifted by -c*tau_h/2")
    _add_config_flag(p)
    p.set_defaults(func=cmd_response)

    p = sub.add_parser("intersect", help="strongest/last dual-return intersection")
    p.add_argument("strongest", help="strongest-return cloud")
    p.add_argument("last", help="last-return cloud")
    p.add_argument("--output", required=True)
    p.add_argument("--tolerance", type=float, default=DEFAULT_MATCH_TOLERANCE,
                   help=f"match distance [m] (default: {DEFAULT_MATCH_TOLERANCE})")
    _add_io_flags(p)
    p.set_defaults(func=cmd_intersect)

    return parser


def _apply_config_file(argv):
    """Splice config-file entries in as flags, before (= weaker than) real flags."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            if key in _BOOL_FLAGS:
                if value.lower() in _TRUE:
                    flags.append(f"--{key}")
                elif value.lower() not in _FALSE:
                    raise ValueError(f"{path}: boolean key {key} has value {value!r}")
            else:
                # one token, so argparse takes a value such as -scan.bin as the value
                flags.append(f"--{key}={value}")
    return [argv[0]] + flags + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (MalformedFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
