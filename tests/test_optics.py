import math

import numpy as np
import pytest

from lidarfog import (
    FogParams,
    PulseEnergy,
    SensorModel,
    clear_response,
    crossover,
    hard_peak_intensity,
    soft_integrand,
    soft_response_integral,
    transmission,
    transmit_pulse,
)
from lidarfog import build_tables, optics
from lidarfog.optics import RANGE_STEP, SPEED_OF_LIGHT, soft_response_integrals

from oracles import soft_integral_quad, soft_integrand_scalar


class TestTransmitPulse:
    def test_peak_at_tau_h(self, sensor):
        assert transmit_pulse(sensor.tau_h, 1.0, sensor) == 1.0

    def test_support_boundaries(self, sensor):
        assert transmit_pulse(0.0, 1.0, sensor) == 0.0
        assert transmit_pulse(2 * sensor.tau_h, 1.0, sensor) == pytest.approx(0.0, abs=1e-30)
        assert transmit_pulse(3 * sensor.tau_h, 1.0, sensor) == 0.0
        assert transmit_pulse(-sensor.tau_h, 1.0, sensor) == 0.0

    def test_half_power_point(self, sensor):
        assert transmit_pulse(sensor.tau_h / 2, 1.0, sensor) == pytest.approx(0.5, rel=1e-15)

    def test_bounded_by_peak_power(self, sensor):
        t = np.random.default_rng(1).uniform(-1e-8, 5e-8, 5000)
        vals = transmit_pulse(t, 3.7, sensor)
        assert np.all(vals >= 0.0) and np.all(vals <= 3.7)

    def test_vectorized_matches_scalar(self, sensor):
        t = np.linspace(0, 4 * sensor.tau_h, 37)
        vec = transmit_pulse(t, 2.0, sensor)
        assert np.array_equal(vec, [transmit_pulse(tt, 2.0, sensor) for tt in t])


class TestCrossover:
    def test_below_ramp(self, sensor):
        assert crossover(sensor.r1 / 2, sensor) == 0.0
        assert crossover(0.0, sensor) == 0.0
        assert crossover(sensor.r1, sensor) == 0.0

    def test_ramp_midpoint(self, sensor):
        mid = (sensor.r1 + sensor.r2) / 2
        assert crossover(mid, sensor) == pytest.approx(0.5, rel=1e-12)

    def test_saturated(self, sensor):
        assert crossover(10 * sensor.r2, sensor) == 1.0
        assert crossover(sensor.r2, sensor) == 1.0

    def test_monotone_and_continuous(self, sensor):
        r = np.linspace(0.0, 3.0, 3001)
        v = crossover(r, sensor)
        assert np.all(np.diff(v) >= 0.0)
        # steepest slope is 1/(r2-r1); no jumps beyond it at 1 mm resolution
        assert np.max(np.diff(v)) <= 0.0011 / (sensor.r2 - sensor.r1)


class TestTransmission:
    def test_clear_air(self):
        assert transmission(123.4, 0.0) == 1.0
        assert transmission(0.0, 0.7) == 1.0

    def test_direct_value(self):
        assert transmission(50.0, 0.06) == pytest.approx(math.exp(-0.06 * 50.0), rel=1e-15)
        assert transmission(50.0, 0.06) == pytest.approx(0.049787068367863944, rel=1e-12)

    def test_square_is_double_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = rng.uniform(0, 200)
            a = rng.uniform(0, 0.2)
            assert transmission(r, a) ** 2 == pytest.approx(transmission(2 * r, a), rel=5e-16)


class TestClearResponse:
    def setup_method(self):
        self.fog = FogParams(alpha=0.0, beta=0.0)

    def test_zero_at_target_range(self, sensor):
        e = PulseEnergy(900.0)
        assert clear_response(30.0, 30.0, e, self.fog, sensor) == 0.0

    def test_peak_value_by_hand(self, sensor):
        e = PulseEnergy(900.0)
        peak_r = 30.0 + sensor.pulse_span / 2
        expect = 1e-6 / np.pi  # 900 * beta_0 / 30^2
        assert clear_response(peak_r, 30.0, e, self.fog, sensor) == pytest.approx(expect, rel=1e-12)

    def test_zero_outside_support(self, sensor):
        e = PulseEnergy(900.0)
        assert clear_response(30.0 + 2 * sensor.pulse_span, 30.0, e, self.fog, sensor) == 0.0
        assert clear_response(29.9, 30.0, e, self.fog, sensor) == 0.0

    def test_target_inside_crossover_rejected(self, sensor):
        e = PulseEnergy(900.0)
        for bad in (sensor.r2, np.nan):
            with pytest.raises(ValueError):
                clear_response(5.0, bad, e, self.fog, sensor)

    def test_integral_over_support(self, sensor):
        # integral of sin^2 over its full period is half the support width
        from scipy.integrate import quad

        e = PulseEnergy(531.0)
        r0 = 42.0
        val, _ = quad(lambda r: clear_response(r, r0, e, self.fog, sensor),
                      r0, r0 + sensor.pulse_span, limit=200)
        expect = e.ca_p0 * self.fog.beta_0 * sensor.pulse_span / (2 * r0 * r0)
        assert val == pytest.approx(expect, rel=1e-9)

    def test_peak_correction_shifts_maximum(self, sensor):
        e = PulseEnergy(900.0)
        assert clear_response(30.0, 30.0, e, self.fog, sensor, peak_correction=True) == \
            pytest.approx(1e-6 / np.pi, rel=1e-12)
        assert clear_response(30.0 + sensor.pulse_span / 2, 30.0, e, self.fog, sensor,
                              peak_correction=True) == pytest.approx(0.0, abs=1e-30)


class TestHardPeakIntensity:
    def test_clear_air_identity(self):
        assert hard_peak_intensity(137.25, 88.0, 0.0) == 137.25

    def test_direct_value(self):
        got = hard_peak_intensity(100.0, 25.0, 0.06)
        assert got == pytest.approx(100.0 * math.exp(-2 * 0.06 * 25.0), rel=1e-15)
        assert got == pytest.approx(4.9787068367863944, rel=1e-12)

    def test_zero_intensity(self):
        assert hard_peak_intensity(0.0, 10.0, 0.3) == 0.0

    def test_zero_range_rejected(self):
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError):
                hard_peak_intensity(1.0, bad, 0.06)

    def test_strictly_decreasing(self):
        alphas = np.linspace(0.001, 0.3, 50)
        vals = [hard_peak_intensity(10.0, 40.0, a) for a in alphas]
        assert np.all(np.diff(vals) < 0)
        ranges = np.linspace(1.0, 150.0, 50)
        vals = [hard_peak_intensity(10.0, r, 0.05) for r in ranges]
        assert np.all(np.diff(vals) < 0)


class TestSoftIntegrand:
    def test_zero_at_pulse_start(self, fog06, sensor):
        assert soft_integrand(0.0, 20.0, fog06, sensor) == 0.0

    def test_zero_below_crossover_start(self, fog06, sensor):
        # lags that put the scattering range at 0.7 m and 0.3 m, below r1
        for x_target in (0.7, 0.3):
            t = 2.0 * (5.0 - x_target) / SPEED_OF_LIGHT
            assert soft_integrand(t, 5.0, fog06, sensor) == 0.0

    def test_hand_composed_value(self, fog06, sensor):
        got = soft_integrand(sensor.tau_h, 10.0, fog06, sensor)
        x = 10.0 - SPEED_OF_LIGHT * sensor.tau_h / 2.0
        assert got == pytest.approx(math.exp(-2 * 0.06 * x) / (x * x), rel=1e-12)
        assert got == pytest.approx(0.008803004126301455, rel=1e-12)

    def test_nonincreasing_in_alpha(self, sensor):
        t = np.linspace(0, 2 * sensor.tau_h, 81)
        for r in (2.0, 5.0, 30.0, 120.0):
            prev = None
            for a in (0.0, 0.005, 0.02, 0.06, 0.2):
                cur = soft_integrand(t, r, FogParams(alpha=a, beta=0.0), sensor)
                if prev is not None:
                    assert np.all(cur <= prev + 1e-300)
                prev = cur

    def test_vectorized_matches_scalar(self, fog06, sensor):
        t = np.linspace(0, 2 * sensor.tau_h, 41)
        vec = soft_integrand(t, 7.3, fog06, sensor)
        assert np.array_equal(vec, [soft_integrand(tt, 7.3, fog06, sensor) for tt in t])


class TestSoftResponseIntegral:
    def test_zero_at_or_below_crossover_start(self, fog06, sensor):
        for r in (0.9, 0.5, 0.05):
            assert soft_response_integral(r, fog06, sensor) == 0.0

    def test_frozen_values(self, fog06, sensor):
        assert soft_response_integral(5.0, fog06, sensor) == \
            pytest.approx(3.7075761586446757e-09, rel=1e-12)
        fog03 = FogParams(alpha=0.03, beta=0.0)
        assert soft_response_integral(10.0, fog03, sensor) == \
            pytest.approx(2.9613130219513126e-10, rel=1e-12)

    def test_against_adaptive_quadrature(self, fog06, sensor):
        for r in (1.0, 1.7, 3.0, 5.0, 7.0, 14.0, 50.0, 200.0):
            got = soft_response_integral(r, fog06, sensor)
            ref = soft_integral_quad(r, fog06.alpha)
            assert got == pytest.approx(ref, rel=1e-6)

    def test_doubling_convergence(self, sensor, monkeypatch):
        for alpha in (0.005, 0.06):
            fog = FogParams(alpha=alpha, beta=0.0)
            for r in (1.0, 1.3, 2.5, 5.0, 7.0, 14.0, 22.0, 60.0, 130.0, 200.0):
                monkeypatch.setattr(optics, "_SUBINTERVALS", 40)
                a40 = soft_response_integral(r, fog, sensor)
                monkeypatch.setattr(optics, "_SUBINTERVALS", 80)
                a80 = soft_response_integral(r, fog, sensor)
                if a80 != 0.0:
                    assert abs(a40 - a80) / a80 < 1e-6

    def test_finite_nonnegative_and_smooth(self, fog06, sensor):
        r = (np.arange(1, 2001)) * 0.1
        vals = np.array([soft_response_integral(float(x), fog06, sensor) for x in r])
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        beyond = r >= 2.0  # past the steep onset the grid resolves the curve
        ratio = vals[1:][beyond[1:]] / vals[:-1][beyond[1:]]
        assert np.all(ratio < 1.5) and np.all(ratio > 0.5)

    def test_nonincreasing_in_alpha(self, sensor):
        for r in (2.0, 5.0, 30.0, 150.0):
            vals = [soft_response_integral(r, FogParams(alpha=a, beta=0.0), sensor)
                    for a in (0.0, 0.005, 0.01, 0.02, 0.03, 0.06, 0.2)]
            assert np.all(np.diff(vals) <= 0.0)

    def test_hard_range_truncation(self, fog06, sensor):
        # no effect at or below the target, strict cut beyond it
        assert soft_response_integral(20.0, fog06, sensor, hard_range=30.0) == \
            soft_response_integral(20.0, fog06, sensor)
        assert soft_response_integral(30.0, fog06, sensor, hard_range=30.0) == \
            soft_response_integral(30.0, fog06, sensor)
        past = soft_response_integral(32.0, fog06, sensor, hard_range=30.0)
        free = soft_response_integral(32.0, fog06, sensor)
        assert 0.0 < past < free
        ref = soft_integral_quad(32.0, fog06.alpha, hard_range=30.0)
        assert past == pytest.approx(ref, rel=1e-6)
        # everything scattered back from beyond the target: no contribution
        assert soft_response_integral(36.1, fog06, sensor, hard_range=30.0) == 0.0


def loop_reference(r, fog, sensor, subintervals=40, hard_range=None):
    """One range, one Simpson panel at a time: the per-range loop that
    `soft_response_integrals` batches, with the same arithmetic."""
    x_hi = r if hard_range is None else min(r, hard_range)
    x_lo = max(sensor.r1, r - sensor.pulse_span)
    if x_hi <= x_lo:
        return 0.0
    cuts = []
    x = sensor.r2
    while x < x_hi:
        if x > x_lo:
            cuts.append(x)
        x *= float(np.sqrt(2.0))
    edges = [x_hi] + cuts[::-1] + [x_lo]
    w = np.ones(subintervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    total = 0.0
    for xa, xb in zip(edges[:-1], edges[1:]):
        a = 2.0 * (r - xa) / SPEED_OF_LIGHT
        b = 2.0 * (r - xb) / SPEED_OF_LIGHT
        h = (b - a) / subintervals
        t = a + h * np.arange(subintervals + 1)
        total += (h / 3.0) * float(np.dot(w, soft_integrand(t, r, fog, sensor)))
    return total


def ladder_cut(sensor, k):
    x = sensor.r2
    for _ in range(k):
        x *= float(np.sqrt(2.0))
    return x


def onto(x, span):
    """A float r with r - span == x exactly (exists only for some x)."""
    r = x + span
    for cand in (r, *(r + d * np.spacing(r) for d in (-1, 1, -2, 2, -3, 3))):
        if cand - span == x:
            return float(cand)
    raise AssertionError(f"no float r with r - {span} == {x}")


class TestSoftResponseIntegrals:
    """The batched evaluator equals per-range evaluation bit for bit."""

    @pytest.mark.parametrize("block", [1, 64, optics._BLOCK_SIZE])
    def test_batches_match_loop_reference(self, fog06, sensor, monkeypatch, block):
        monkeypatch.setattr(optics, "_BLOCK_SIZE", block)
        grid = np.arange(1, 2001) * RANGE_STEP  # crosses block boundaries
        ref = [loop_reference(float(r), fog06, sensor) for r in grid]
        assert soft_response_integrals(grid, fog06, sensor).tolist() == ref
        assert soft_response_integrals(grid[40:47], fog06, sensor).tolist() == ref[40:47]
        assert soft_response_integrals(grid[1234:1235], fog06, sensor).tolist() == ref[1234:1235]
        assert [soft_response_integral(r, fog06, sensor) for r in grid[::97]] == ref[::97]

    def test_panel_boundary_ranges(self, fog06, sensor, monkeypatch):
        span = sensor.pulse_span
        cuts = [ladder_cut(sensor, k) for k in range(12)]
        r = [0.05, 0.5, sensor.r1, 0.95, sensor.r2, 1.03,       # <= r1, ramp, r2
             *cuts[1:],                                       # exactly on a cut
             onto(sensor.r2, span),                           # window starts on r2
             *(onto(cuts[k], span) for k in (5, 6, 9, 10, 11))]  # ... on a cut
        for subintervals in (40, 80):
            monkeypatch.setattr(optics, "_SUBINTERVALS", subintervals)
            got = soft_response_integrals(r, fog06, sensor)
            ref = [loop_reference(x, fog06, sensor, subintervals) for x in r]
            assert got.tolist() == ref
        assert got[0] == got[1] == got[2] == 0.0 and got[3] > 0.0

    def test_hard_range_below_at_and_above(self, fog06, sensor):
        span = sensor.pulse_span
        cut = ladder_cut(sensor, 9)
        for hard in (30.0, cut, 3.0):
            r = [hard - 2.0, hard, np.nextafter(hard, 99.0), hard + 1.0, hard + 2.5,
                 onto(hard, span), hard + span + 0.1]
            got = soft_response_integrals(r, fog06, sensor, hard_range=hard)
            ref = [loop_reference(x, fog06, sensor, hard_range=hard) for x in r]
            assert got.tolist() == ref
            assert got[-2] == got[-1] == 0.0  # every slab beyond the target
            assert [soft_response_integral(x, fog06, sensor, hard_range=hard)
                    for x in r] == ref

    @pytest.mark.parametrize("tau_h", [20e-9, 50e-9])
    @pytest.mark.parametrize("hard", [None, 30.0])
    def test_nonfinite_ranges_read_zero_and_leave_their_block_alone(self, fog06, tau_h, hard):
        # a NaN or inf range in a block must not move the panel ladder the
        # block's finite ranges are integrated on
        sensor = SensorModel(tau_h=tau_h)
        grid = np.arange(1, 2001) * RANGE_STEP
        clean = soft_response_integrals(grid, fog06, sensor, hard_range=hard)
        bad = np.arange(0, len(grid), optics._BLOCK_SIZE)[:, None] + [3, 100, 200]
        dirty = grid.copy()
        dirty[bad] = [np.nan, np.inf, -np.inf]
        got = soft_response_integrals(dirty, fog06, sensor, hard_range=hard)
        assert got[bad].ravel().tolist() == [0.0] * bad.size
        rest = np.ones(len(grid), dtype=bool)
        rest[bad] = False
        assert got[rest].tobytes() == clean[rest].tobytes()


# the sweep schedule 0, 0.005, ..., 0.06, clear air included, and two denser fogs
MANY_ALPHAS = (*(round(0.005 * k, 3) for k in range(13)), 0.2, 1.0)


class TestManyAlphas:
    """One batched pass over many alphas equals the per-range, per-panel
    evaluation on `soft_integrand` at each alpha bit for bit."""

    def test_build_tables_match_loop_reference(self, sensor):
        grid = np.arange(1, 2001) * RANGE_STEP
        # a shuffled order: each table must get its own alpha's row
        alphas = MANY_ALPHAS[::2] + MANY_ALPHAS[1::2]
        built = build_tables([FogParams(alpha=a, beta=0.0) for a in alphas], sensor)
        assert [t.alpha for t in built] == list(alphas)
        for a, table in zip(alphas, built):
            fog = FogParams(alpha=a, beta=0.0)
            assert table.values.tolist() == [loop_reference(float(r), fog, sensor)
                                             for r in grid], a

    @pytest.mark.parametrize("tau_h", [20e-9, 50e-9])
    @pytest.mark.parametrize("hard", [None, 30.0])
    def test_nonfinite_ranges_in_a_block(self, tau_h, hard):
        sensor = SensorModel(tau_h=tau_h)
        grid = np.arange(1, 2001) * RANGE_STEP
        bad = np.arange(0, len(grid), optics._BLOCK_SIZE)[:, None] + [3, 100, 200]
        dirty = grid.copy()
        dirty[bad] = [np.nan, np.inf, -np.inf]
        rows = optics._soft_integrals(dirty, MANY_ALPHAS, sensor, hard)
        assert rows.shape == (len(MANY_ALPHAS), len(grid))
        rest = np.ones(len(grid), dtype=bool)
        rest[bad] = False
        for a, row in zip(MANY_ALPHAS, rows):
            one = soft_response_integrals(grid, FogParams(alpha=a, beta=0.0), sensor,
                                          hard_range=hard)
            assert row[bad].ravel().tolist() == [0.0] * bad.size
            assert row[rest].tobytes() == one[rest].tobytes(), a


class TestConvolutionEquivalence:
    def test_attenuated_clear_response_equals_sifted_convolution(self, sensor):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r0 = rng.uniform(2.0, 150.0)
            alpha = rng.uniform(0.0, 0.2)
            ca_p0 = rng.uniform(1.0, 1e4)
            fog = FogParams(alpha=alpha, beta=0.0)
            e = PulseEnergy(ca_p0)
            for r in np.linspace(r0, r0 + sensor.pulse_span, 23):
                # sift the Dirac impulse response through the convolution by hand
                t_star = 2.0 * (r - r0) / SPEED_OF_LIGHT
                ref = (transmit_pulse(t_star, ca_p0, sensor) * fog.beta_0 / (r0 * r0)
                       * math.exp(-2.0 * alpha * r0))
                got = math.exp(-2.0 * alpha * r0) * clear_response(r, r0, e, fog, sensor)
                assert got == pytest.approx(ref, rel=1e-6, abs=1e-300)


class TestParamValidation:
    def test_sensor_invariants(self):
        for bad in (0.0, np.inf, 1e300):  # c * 1e300 overflows to inf
            with pytest.raises(ValueError):
                SensorModel(tau_h=bad)
        with pytest.raises(ValueError):
            SensorModel(r1=1.0, r2=0.9)
        with pytest.raises(ValueError):
            SensorModel(r1=0.0)
        with pytest.raises(ValueError):
            SensorModel(r2=2.5)

    def test_fog_invariants(self):
        with pytest.raises(ValueError):
            FogParams(alpha=-0.01, beta=0.0)
        with pytest.raises(ValueError):
            FogParams(alpha=0.06, beta=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                FogParams(alpha=bad, beta=0.001)
            with pytest.raises(ValueError):
                FogParams(alpha=0.06, beta=bad)
        with pytest.raises(ValueError):
            FogParams(alpha=0.06, beta=0.0, beta_0=0.0)
        with pytest.raises(ValueError):
            FogParams(alpha=0.06, beta=0.0, beta_0=0.5)  # above 1/pi

    def test_pulse_energy(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                PulseEnergy(bad)
        for bad_r0 in (0.0, -2.0, np.nan):
            with pytest.raises(ValueError):
                PulseEnergy.from_reference(100.0, bad_r0)
        e = PulseEnergy.from_reference(100.0, 30.0)
        assert e.ca_p0 == pytest.approx(100.0 * 900.0 / (1e-6 / np.pi), rel=1e-12)
