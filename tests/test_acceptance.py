"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Criterion 6 checks that the densest schedule fog (alpha = 0.06) overshadows
solid targets at its own visibility distance, MOR = 50 m, with the program's
soft/hard peak ratio pinned to the oracle in `oracles.py`.  An earlier form
put the overshadow at 30 m; the model puts 30 m parity at alpha ~ 0.0741
(MOR ~ 40.5 m), outside the schedule, and that clause also contradicted the
overshadow goldens (R* = 35.6 m at alpha = 0.06 keeps a 30 m point solid).
The README section "Overshadow range: derivation and numbers" has the
formula and the oracle numbers.
"""

import math
import time

import numpy as np
import pytest

from lidarfog import (
    DEFAULT_ALPHA_SCHEDULE,
    FogParams,
    PointCloud,
    Provenance,
    PulseEnergy,
    SensorModel,
    build_table,
    clear_response,
    crossover,
    foggify_cloud,
    hard_peak_intensity,
    intersect_returns,
    naive_soft_max,
    query_soft_max,
    read_cloud,
    soft_response_integral,
    transmission,
    transmit_pulse,
    write_cloud,
)
from lidarfog import fog_from_alpha
from lidarfog.optics import RANGE_STEP, SPEED_OF_LIGHT

from oracles import (
    brute_force_match_mask,
    naive_running_max,
    overshadow_range,
    soft_hard_ratio,
    soft_integral_quad,
)

NONZERO_SCHEDULE = tuple(a for a in DEFAULT_ALPHA_SCHEDULE if a > 0)

# thresholds where the fog return starts to win on a constant-reflectivity
# ray (10 cm grid); None = never within the 200 m table.  The program must
# reproduce them, and so must the quadrature oracle (`overshadow_range`), in
# test_criterion_6_threshold_monotone_with_goldens
RSTAR_GOLDEN = {
    0.005: None,
    0.01: 150.70000000000002,
    0.02: 86.60000000000001,
    0.03: 62.400000000000006,
    0.06: 35.6,
}

# visibility distance of the densest schedule fog: MOR = 3 / 0.06 = 50 m
MOR_DENSEST = 3.0 / max(NONZERO_SCHEDULE)
# alphas whose 30 m soft/hard ratios straddle parity (oracle 0.925, 1.065)
PARITY_BRACKET_30M = (0.073, 0.075)


def _report(num, desc, ok):
    print(f"[ACCEPTANCE] criterion {num:>2} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def tables(sensor):
    return {a: build_table(fog_from_alpha(a), sensor) for a in NONZERO_SCHEDULE}


@pytest.fixture(scope="module")
def cloud_1m():
    rng = np.random.default_rng(1)
    xyz = rng.uniform(-115.0, 115.0, (1_000_000, 3))
    inten = rng.uniform(0.0, 255.0, 1_000_000)
    return PointCloud(xyz, inten)


def test_criterion_1_analytic_limits(sensor):
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    n = 10_000
    worst = 0.0

    def check(got, ref):
        nonlocal worst
        ref = np.asarray(ref)
        denom = np.where(ref != 0, np.abs(ref), 1.0)
        worst = max(worst, float(np.max(np.abs(got - ref) / denom)))

    tau = sensor.tau_h
    t = rng.uniform(-1e-8, 5e-8, n)
    p0 = rng.uniform(0.0, 10.0, n)
    check(transmit_pulse(t, p0, sensor),
          [pp * math.sin(math.pi * tt / (2 * tau)) ** 2 if 0 <= tt <= 2 * tau else 0.0
           for tt, pp in zip(t, p0)])

    r = rng.uniform(0.0, 3.0, n)
    check(crossover(r, sensor),
          [0.0 if rr <= sensor.r1 else 1.0 if rr >= sensor.r2
           else (rr - sensor.r1) / (sensor.r2 - sensor.r1) for rr in r])

    r = rng.uniform(0.0, 250.0, n)
    a = rng.uniform(0.0, 0.3, n)
    check(transmission(r, a), [math.exp(-aa * rr) for rr, aa in zip(r, a)])

    span = sensor.pulse_span
    fog = FogParams(alpha=0.0, beta=0.0)
    r0 = rng.uniform(sensor.r2 + 0.01, 150.0, n)
    rr = r0 + rng.uniform(-1.0, span + 1.0, n)
    ca = rng.uniform(0.0, 1e4, n)
    got = np.array([clear_response(x, x0, PulseEnergy(c), fog, sensor)
                    for x, x0, c in zip(rr, r0, ca)])
    ref = []
    for x, x0, c in zip(rr, r0, ca):
        u = x - x0
        ref.append(c * fog.beta_0 / (x0 * x0) * math.sin(math.pi * u / span) ** 2
                   if 0 <= u <= span else 0.0)
    check(got, ref)

    i = rng.uniform(0.0, 255.0, n)
    r0 = rng.uniform(0.1, 200.0, n)
    a = rng.uniform(0.0, 0.3, n)
    check(hard_peak_intensity(i, r0, a),
          [ii * math.exp(-2.0 * aa * x0) for ii, x0, aa in zip(i, r0, a)])

    elapsed = time.perf_counter() - t0
    _report(1, f"closed forms at 5x{n} draws, max rel err {worst:.2e} "
               f"(tol 1e-12), {elapsed:.1f}s (cap 5s)",
            worst <= 1e-12 and elapsed < 5.0)


def test_criterion_2_quadrature_oracle(sensor):
    t0 = time.perf_counter()
    r_values = [k * 0.1 for k in range(10, 80)] + [float(r) for r in range(8, 201, 2)]
    worst = 0.0
    for alpha in NONZERO_SCHEDULE:
        fog = FogParams(alpha=alpha, beta=0.0)
        for r in r_values:
            got = soft_response_integral(r, fog, sensor)
            ref = soft_integral_quad(r, alpha)
            worst = max(worst, abs(got - ref) / ref)
    elapsed = time.perf_counter() - t0
    _report(2, f"quadrature vs adaptive oracle over {len(r_values)} ranges x "
               f"{len(NONZERO_SCHEDULE)} alphas, max rel err {worst:.2e} "
               f"(tol 1e-6), {elapsed:.1f}s (cap 60s)",
            worst <= 1e-6 and elapsed < 60.0)


def test_criterion_3_convolution_equivalence(sensor):
    rng = np.random.default_rng(30)
    span = sensor.pulse_span
    worst = 0.0
    for _ in range(100):
        r0 = rng.uniform(2.0, 180.0)
        alpha = rng.uniform(0.0, 0.25)
        ca = rng.uniform(1.0, 1e4)
        fog = FogParams(alpha=alpha, beta=0.0)
        att = math.exp(-2.0 * alpha * r0)
        for r in np.linspace(r0 - 0.5, r0 + span + 0.5, 25):
            # convolve the pulse with the attenuated Dirac impulse response
            # by analytic sifting at lag t* = 2(r - r0)/c
            t_star = 2.0 * (r - r0) / SPEED_OF_LIGHT
            if 0.0 <= t_star <= 2.0 * sensor.tau_h:
                pulse = ca * math.sin(math.pi * t_star / (2.0 * sensor.tau_h)) ** 2
            else:
                pulse = 0.0
            ref = pulse * fog.beta_0 / (r0 * r0) * att
            got = att * clear_response(r, r0, PulseEnergy(ca), fog, sensor)
            if ref != 0.0:
                worst = max(worst, abs(got - ref) / abs(ref))
            else:
                worst = max(worst, abs(got))
    _report(3, f"attenuated clear response vs sifted convolution, 100 random "
               f"(r0, alpha), max rel err {worst:.2e} (tol 1e-6)",
            worst <= 1e-6)


def test_criterion_4_table_naive_bitexact(tables, sensor):
    rng = np.random.default_rng(40)
    mismatches = 0
    for alpha, table in tables.items():
        fog = FogParams(alpha=alpha, beta=0.0)
        # the whole grid: a table ends where the running maximum stops moving
        direct = [soft_response_integral(k * RANGE_STEP, fog, sensor) for k in range(1, 2001)]
        for r0 in rng.uniform(0.01, 200.0, 1000):
            got = query_soft_max(table, float(r0))
            ref = naive_running_max(direct, int(r0 / RANGE_STEP))
            if got != ref:
                mismatches += 1
    _report(4, f"prefix-table queries vs naive grid scan, 1000 random ranges x "
               f"{len(tables)} alphas, {mismatches} bit mismatches",
            mismatches == 0)


def test_criterion_5_identity_configuration(sensor):
    rng = np.random.default_rng(50)
    cloud = PointCloud(rng.uniform(-110, 110, (100_000, 3)),
                       rng.uniform(0, 255, 100_000))
    fog = FogParams(alpha=0.0, beta=0.0)
    out = foggify_cloud(cloud, fog, sensor, seed=123, rescale=False)
    ok = (np.array_equal(out.cloud.xyz, cloud.xyz)
          and np.array_equal(out.cloud.intensity, cloud.intensity)
          and np.all(out.provenance == Provenance.HARD_KEPT))
    _report(5, "alpha=0, beta=0, no rescale is bit-identical on 100k points", ok)


def _soft_hard_ratio_at(r0, alpha, table):
    """Program's soft/hard peak ratio for a reference intensity 100 at r0."""
    fog = fog_from_alpha(alpha)
    ca_p0 = 100.0 * r0 * r0 / fog.beta_0
    i_tmp, _ = query_soft_max(table, r0)
    soft_max = ca_p0 * fog.beta * i_tmp
    hard_max = hard_peak_intensity(100.0, r0, alpha)
    return soft_max / hard_max


def test_criterion_6_overshadow_within_default_schedule(tables, sensor):
    # Some schedule alpha must overshadow a solid target at the visibility
    # distance of the densest schedule fog (50 m); the program's ratio must
    # match the oracle, and the transform must relocate exactly the targets
    # whose ratio exceeds 1.  The 30 m form of this clause asked for
    # something the model does not do: 30 m parity needs alpha ~ 0.0741,
    # outside the schedule, and R* = 35.6 m at alpha = 0.06 (RSTAR_GOLDEN)
    # keeps a 30 m target solid.  So the 30 m fact is pinned instead:
    # no schedule alpha wins there, and the bracket alphas straddle parity.
    checked = dict(tables)
    checked.update({a: build_table(fog_from_alpha(a), sensor) for a in PARITY_BRACKET_30M})
    ranges = (30.0, MOR_DENSEST)
    probe = PointCloud(np.array([[r, 0.0, 0.0] for r in ranges]), np.full(len(ranges), 100.0))
    rho = {}
    worst = 0.0
    relocated_ok = True
    for alpha, table in checked.items():
        for r0 in ranges:
            rho[alpha, r0] = _soft_hard_ratio_at(r0, alpha, table)
            ref = soft_hard_ratio(r0, alpha)
            worst = max(worst, abs(rho[alpha, r0] - ref) / ref)
        out = foggify_cloud(probe, fog_from_alpha(alpha), sensor, rescale=False, table=table)
        relocated = (out.provenance == Provenance.SOFT_REPLACED).tolist()
        relocated_ok &= relocated == [rho[alpha, r0] > 1.0 for r0 in ranges]

    wins_at_mor = any(rho[a, MOR_DENSEST] > 1.0 for a in NONZERO_SCHEDULE)
    none_at_30 = not any(rho[a, 30.0] > 1.0 for a in NONZERO_SCHEDULE)
    lo, hi = PARITY_BRACKET_30M
    bracket_ok = rho[lo, 30.0] < 1.0 < rho[hi, 30.0]
    lines = [f"alpha={a}: {rho[a, 30.0]:.4f} @30m, {rho[a, MOR_DENSEST]:.4f} @{MOR_DENSEST:g}m"
             for a in checked]
    _report(6, f"some schedule alpha overshadows a {MOR_DENSEST:g} m target, none a "
               f"30 m one, parity at 30 m inside alpha ({lo}, {hi}); soft/hard vs "
               f"oracle max rel err {worst:.2e} (tol 1e-6), transform agrees: "
               f"{relocated_ok} (" + "; ".join(lines) + ")",
            wins_at_mor and none_at_30 and bracket_ok and worst <= 1e-6 and relocated_ok)


def test_criterion_6_threshold_monotone_with_goldens(tables, sensor):
    ranges = np.arange(1, 2001) * 0.1
    thresholds = {}
    for alpha in NONZERO_SCHEDULE:
        fog = fog_from_alpha(alpha)
        ca_ref = 100.0 * 900.0 / fog.beta_0
        xyz = np.column_stack((ranges, np.zeros_like(ranges), np.zeros_like(ranges)))
        inten = ca_ref * fog.beta_0 / ranges**2
        out = foggify_cloud(PointCloud(xyz, inten), fog, sensor,
                            rescale=False, table=tables[alpha])
        replaced = np.nonzero(out.provenance == Provenance.SOFT_REPLACED)[0]
        if len(replaced) == 0:
            thresholds[alpha] = None
        else:
            assert np.all(out.provenance[replaced[0]:] == Provenance.SOFT_REPLACED)
            thresholds[alpha] = float(ranges[replaced[0]])
    oracle = {a: overshadow_range(a, len(ranges)) for a in NONZERO_SCHEDULE}
    ok = thresholds == RSTAR_GOLDEN and oracle == RSTAR_GOLDEN
    seq = [math.inf if thresholds[a] is None else thresholds[a] for a in NONZERO_SCHEDULE]
    ok = ok and all(a >= b for a, b in zip(seq, seq[1:]))
    _report(6, f"overshadow threshold nonincreasing in alpha, program and oracle match "
               f"the goldens: {thresholds}, oracle {oracle}", ok)


def test_criterion_7_halfcircle_scene(tables, sensor):
    # near side: wall at 15 m; open side: far targets at 120 m
    table = tables[0.06]
    fog = fog_from_alpha(0.06)
    n = 4000
    angles = np.linspace(-np.pi / 2 + 0.01, np.pi / 2 - 0.01, n)
    near = np.column_stack((15.0 * np.cos(angles), 15.0 * np.sin(angles), np.zeros(n)))
    far = np.column_stack((-120.0 * np.cos(angles), -120.0 * np.sin(angles), np.zeros(n)))
    cloud = PointCloud(np.vstack((near, far)), np.full(2 * n, 100.0))
    out = foggify_cloud(cloud, fog, sensor, seed=77, table=table)
    near_frac = float(np.mean(out.provenance[:n]))
    far_frac = float(np.mean(out.provenance[n:]))

    _, r_tmp = query_soft_max(table, 120.0)
    rep = out.provenance == Provenance.SOFT_REPLACED
    rep_ranges = np.linalg.norm(out.cloud.xyz[rep], axis=1)
    in_band = np.all((rep_ranges > r_tmp / 2) & (rep_ranges < 2 * r_tmp))
    median_ok = abs(float(np.median(rep_ranges)) - r_tmp) < 0.05 * r_tmp

    ok = (far_frac > near_frac and near_frac == 0.0 and far_frac == 1.0
          and in_band and median_ok)
    _report(7, f"noise only on the open side (near {near_frac:.3f} vs far {far_frac:.3f}), "
               f"relocated ranges inside ({r_tmp / 2:.2f}, {2 * r_tmp:.2f}) m around "
               f"the {r_tmp:.1f} m response peak",
            ok)


def test_criterion_8_parallel_determinism(tables, sensor, cloud_1m):
    fog = fog_from_alpha(0.06)
    outs = [foggify_cloud(cloud_1m, fog, sensor, seed=9, table=tables[0.06], workers=w)
            for w in (1, 4, 16)]
    ok = all(np.array_equal(outs[0].cloud.xyz, o.cloud.xyz)
             and np.array_equal(outs[0].cloud.intensity, o.cloud.intensity)
             and np.array_equal(outs[0].provenance, o.provenance)
             for o in outs[1:])
    _report(8, "1M-point outputs bit-identical across 1, 4, 16 workers", ok)


def test_criterion_9_throughput(tables, sensor, cloud_1m):
    fog = fog_from_alpha(0.06)
    table = tables[0.06]
    foggify_cloud(cloud_1m, fog, sensor, seed=2, table=table)  # warm up
    t0 = time.perf_counter()
    foggify_cloud(cloud_1m, fog, sensor, seed=2, table=table)
    fast = time.perf_counter() - t0

    rng = np.random.default_rng(90)
    sample = rng.uniform(5.0, 120.0, 20)
    t0 = time.perf_counter()
    for r0 in sample:
        naive_soft_max(float(r0), fog, sensor)
    naive_per_point = (time.perf_counter() - t0) / len(sample)
    ratio = naive_per_point * 1e6 / fast
    _report(9, f"1M points in {fast:.2f}s with prebuilt table (cap 2s); naive "
               f"per-point recompute extrapolates to {ratio:.0f}x slower (>= 100x)",
            fast < 2.0 and ratio >= 100.0)


def test_criterion_10_io_properties(tmp_path):
    rng = np.random.default_rng(100)
    xyz = rng.uniform(-80, 80, (10_000, 3)).astype(np.float32).astype(np.float64)
    inten = rng.uniform(0, 255, 10_000).astype(np.float32).astype(np.float64)
    cloud = PointCloud(xyz, inten)
    path = tmp_path / "rt.bin"
    write_cloud(cloud, path)
    back = read_cloud(path)
    roundtrip_ok = (np.array_equal(back.xyz, cloud.xyz)
                    and np.array_equal(back.intensity, cloud.intensity))

    strongest = PointCloud(rng.uniform(0, 20, (400, 3)), rng.uniform(0, 1, 400))
    last = PointCloud(rng.uniform(0, 20, (400, 3)), rng.uniform(0, 1, 400))
    subset_ok = idempotent_ok = cardinality_ok = True
    for tol in (0.2, 0.6, 1.5):
        kept = intersect_returns(strongest, last, tol=tol)
        mask = brute_force_match_mask(strongest.xyz, last.xyz, tol)
        subset_ok &= np.array_equal(kept.xyz, strongest.xyz[mask])
        again = intersect_returns(kept, last, tol=tol)
        idempotent_ok &= (np.array_equal(again.xyz, kept.xyz)
                          and np.array_equal(again.intensity, kept.intensity))
    # below the minimum intra-cloud spacing each kept point has its own match
    from scipy.spatial import cKDTree
    d_min = np.min(cKDTree(last.xyz).query(last.xyz, k=2)[0][:, 1])
    kept = intersect_returns(strongest, last, tol=0.4 * d_min)
    cardinality_ok = len(kept) <= min(len(strongest), len(last))

    _report(10, "binary round-trip bit-exact; intersection is an ordered subset, "
                "idempotent, and bounded by both cloud sizes",
            roundtrip_ok and subset_ok and idempotent_ok and cardinality_ok)
