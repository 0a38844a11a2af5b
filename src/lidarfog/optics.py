"""Optical channel model of a pulsed LiDAR in homogeneous fog.

The received signal power is the time-wise convolution of the transmitted
pulse with the impulse response of the scene.  In clear air the only target
is the solid object in the line of sight (a "hard" target, a Dirac impulse
at its range), which gives a closed-form sin^2-shaped return.  Fog adds a
distributed "soft" target (a step response filling the line of sight up to
the object) whose return has no closed form and is evaluated here with
composite Simpson quadrature, for a whole array of ranges in one batched
pass (`soft_response_integrals`) that evaluates `soft_integrand` at each
block's quadrature nodes; the one-range `soft_response_integral` is a call
of that pass, so both give the same bits.

All arithmetic is 64-bit.  The pointwise functions take scalars or numpy
arrays and return arrays (a 0-d array or numpy scalar for scalar input);
`soft_response_integrals` takes a 1-D array and `soft_response_integral` a
float.
Functions in this module are pure; `SensorModel` and `FogParams` are frozen
and safe to share across threads.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # [m/s]

# Range grid of the soft-return tables and response curves: 10 cm steps out
# to 200 m.  Points beyond MAX_RANGE are passed through.
RANGE_STEP = 0.1  # [m]
MAX_RANGE = 200.0  # [m]

DEFAULT_BETA_0 = 1e-6 / np.pi  # [1/sr] hard-target differential reflectivity

# Simpson subintervals per smooth panel (even).  Read at call time.
_SUBINTERVALS = 40

# Panels of the soft-return quadrature grow geometrically away from the
# crossover end where the 1/x^2 factor is steep.  sqrt(2) keeps the
# composite rule inside 1e-6 relative error at 40 subintervals per panel.
_PANEL_GROWTH = float(np.sqrt(2.0))

# Ranges per block of the batched soft-return evaluator: at the default
# sensor and _SUBINTERVALS 128 ranges make at most ~400 panels of 41 nodes,
# so each temporary array stays near 130 kB.  With 256 ranges a pass over
# all 2000 grid ranges peaked at 2.02 against 1.33 MB traced and took about
# as long (4.1 ms either way, median of 30 runs, 2 vCPUs)
_BLOCK_SIZE = 128


@dataclass(frozen=True)
class SensorModel:
    """Static optics of the sensor.

    tau_h   half-power width of the sin^2 transmit pulse [s]
    r1, r2  start/end of the transmitter/receiver crossover ramp [m]
    """

    tau_h: float = 20e-9
    r1: float = 0.9
    r2: float = 1.0

    def __post_init__(self):
        if not 0 < SPEED_OF_LIGHT * self.tau_h < np.inf:
            raise ValueError(f"tau_h must be positive with a finite pulse span, got {self.tau_h}")
        if not 0 < self.r1 < self.r2:
            raise ValueError(f"need 0 < r1 < r2, got r1={self.r1} r2={self.r2}")
        if not self.r2 < 2.0:
            raise ValueError(f"r2 must be below 2 m, got {self.r2}")

    @property
    def pulse_span(self) -> float:
        """Range extent c*tau_h swept by the pulse support [m]."""
        return SPEED_OF_LIGHT * self.tau_h


@dataclass(frozen=True)
class FogParams:
    """Atmosphere state for one simulation run.

    alpha   attenuation coefficient [1/m]
    beta    backscattering coefficient of the fog volume [1/m]
    beta_0  differential reflectivity of hard targets [1/sr], Gamma/pi
    """

    alpha: float
    beta: float
    beta_0: float = DEFAULT_BETA_0

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0 < self.beta_0 <= 1.0 / np.pi:
            raise ValueError(f"beta_0 must lie in (0, 1/pi], got {self.beta_0}")


@dataclass(frozen=True)
class PulseEnergy:
    """Composite amplitude of one measurement: system constant times peak power.

    Recovered per point from the measured clear-weather intensity i at range
    r0 as ca_p0 = i * r0^2 / beta_0.
    """

    ca_p0: float

    def __post_init__(self):
        if not 0 <= self.ca_p0 < np.inf:
            raise ValueError(f"ca_p0 must be finite and >= 0, got {self.ca_p0}")

    @classmethod
    def from_reference(cls, intensity: float, r0: float, beta_0: float = DEFAULT_BETA_0):
        """Energy implied by a point of given intensity at range r0."""
        if not r0 > 0:
            raise ValueError(f"reference range must be positive, got {r0}")
        return cls(intensity * r0 * r0 / beta_0)


def transmit_pulse(t, p0, sensor: SensorModel):
    """Transmitted power p0 * sin^2(pi*t / (2*tau_h)) on 0 <= t <= 2*tau_h, else 0."""
    t = np.asarray(t, dtype=np.float64)
    inside = (t >= 0.0) & (t <= 2.0 * sensor.tau_h)
    val = p0 * np.sin(np.pi * t / (2.0 * sensor.tau_h)) ** 2
    return np.where(inside, val, 0.0)


def crossover(r, sensor: SensorModel):
    """Fraction of the illuminated area seen by the receiver at range r.

    Piecewise-linear: 0 up to r1, ramp on (r1, r2), 1 beyond r2.  Models the
    bistatic transmitter/receiver overlap without knowing the exact optics.
    """
    r = np.asarray(r, dtype=np.float64)
    ramp = (r - sensor.r1) / (sensor.r2 - sensor.r1)
    return np.clip(ramp, 0.0, 1.0)


def transmission(r, alpha):
    """One-way transmission loss T(r) = exp(-alpha * r) of a homogeneous medium."""
    r = np.asarray(r, dtype=np.float64)
    return np.exp(-alpha * r)


def clear_response(r, r0, energy: PulseEnergy, fog: FogParams, sensor: SensorModel,
                   peak_correction: bool = False):
    """Clear-weather received power of a hard target at range r0.

    (ca_p0 * beta_0 / r0^2) * sin^2(pi*(r - r0) / (c*tau_h)) on
    [r0, r0 + c*tau_h], zero elsewhere; the maximum sits at r0 + c*tau_h/2.
    With `peak_correction` the whole response is shifted by -c*tau_h/2 so
    the maximum is reported at r0.  Requires r0 well beyond the crossover
    ramp (r0 > r2), where the overlap fraction is 1.
    """
    if not r0 > sensor.r2:
        raise ValueError(f"hard-target range {r0} must exceed the crossover end r2={sensor.r2}")
    r = np.asarray(r, dtype=np.float64)
    span = sensor.pulse_span
    u = r - r0
    if peak_correction:
        u = u + span / 2.0
    inside = (u >= 0.0) & (u <= span)
    amp = energy.ca_p0 * fog.beta_0 / (r0 * r0)
    val = amp * np.sin(np.pi * u / span) ** 2
    return np.where(inside, val, 0.0)


def soft_integrand(t, r, fog: FogParams, sensor: SensorModel):
    """Integrand of the distributed fog return at evaluation range r.

    sin^2(pi*t/(2*tau_h)) * exp(-2*alpha*x) / x^2 * crossover(x)
    with x = r - c*t/2 the range of the scattering slab reached at lag t.
    Defined as exactly 0 wherever x <= r1: the crossover vanishes there,
    which also removes the 1/x^2 singularity (r1 > 0).  The step function
    that cuts off scattering beyond the hard target is identically 1 on the
    per-point evaluation grid (x <= r always holds for t >= 0) and is
    applied by the caller when evaluating past the target.
    """
    t = np.asarray(t, dtype=np.float64)
    x = r - SPEED_OF_LIGHT * t / 2.0
    inside = x > sensor.r1
    xs = np.where(inside, x, 1.0)
    pulse = np.sin(np.pi * t / (2.0 * sensor.tau_h)) ** 2
    val = pulse * np.exp(-2.0 * fog.alpha * xs) / (xs * xs) * crossover(x, sensor)
    return np.where(inside, val, 0.0)


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _panel_ladder(x_max: float, r2: float) -> np.ndarray:
    """Panel cuts r2, r2*sqrt(2), ... below x_max, in ascending order.

    Panels are delimited by the crossover end r2 and a sqrt(2)-geometric
    ladder above it, so each panel sees a bounded variation of the 1/x^2
    factor and the composite rule keeps full order through the ramp kink.
    The cuts come from repeated products, so every range sees the same
    floating-point cut values.
    """
    cuts = []
    x = r2
    while x < x_max:
        cuts.append(x)
        x *= _PANEL_GROWTH
    return np.array(cuts)


def soft_response_integrals(
    r,
    fog: FogParams,
    sensor: SensorModel,
    hard_range: Optional[float] = None,
) -> np.ndarray:
    """Composite-Simpson values of the soft-return time integral at ranges r.

    Integrates `soft_integrand` over the pulse support [0, 2*tau_h] with
    `_SUBINTERVALS` Simpson subintervals per smooth panel (see
    `_panel_ladder`).  Zero exactly for r <= r1, where the integrand has no
    support.  `hard_range` truncates contributions from scattering beyond
    the hard target; it only matters when evaluating at r > hard_range
    (response-curve plotting), never on the per-point grid r <= hard_range.

    `r` is a 1-D array.  Every range goes through the same elementwise
    arithmetic and the same per-panel dot product whatever the batch, so
    each value is bitwise independent of the other ranges in the call.
    Ranges are evaluated in blocks of `_BLOCK_SIZE` to bound temporaries.

    Doubling `_SUBINTERVALS` changes results by less than 1e-6 relative
    over the working range.
    """
    r = np.asarray(r, dtype=np.float64)
    cut = np.inf if hard_range is None else float(hard_range)
    n = _SUBINTERVALS
    w = _simpson_weights(n)
    out = np.zeros(len(r))
    for lo in range(0, len(r), _BLOCK_SIZE):
        rb = r[lo:lo + _BLOCK_SIZE]
        x_hi = np.minimum(rb, cut)
        x_lo = np.maximum(sensor.r1, rb - sensor.pulse_span)

        # each range's panel edges, descending, one row per range: x_hi, the ladder
        # clipped to [x_lo, x_hi], x_lo.  A clipped cut makes a zero-width panel,
        # which is never evaluated and adds +0.0 to a sum of terms >= 0, so a
        # range's total depends on its own panels alone.  The ladder stops at the
        # largest x_hi of the live ranges (x_hi > x_lo): a NaN range would empty
        # it, an inf range run it to overflow.
        x_top = x_hi.max(where=x_hi > x_lo, initial=-np.inf)
        ladder = _panel_ladder(float(x_top), sensor.r2)[::-1]
        edges = np.column_stack((x_hi, np.clip(ladder, x_lo[:, None], x_hi[:, None]), x_lo))
        real = edges[:, :-1] > edges[:, 1:]
        xa, xb = edges[:, :-1][real], edges[:, 1:][real]
        rp = np.broadcast_to(rb[:, None], real.shape)[real]

        # one Simpson rule per panel, on the lag interval [a, b] it maps to
        a = 2.0 * (rp - xa) / SPEED_OF_LIGHT
        b = 2.0 * (rp - xb) / SPEED_OF_LIGHT
        h = (b - a) / n
        t = a[:, None] + h[:, None] * np.arange(n + 1)

        # one dot product per panel row: vecdot runs the kernel of w.dot on each
        # row, where a matrix product (y @ w) may sum in another order
        terms = np.zeros(real.shape)
        terms[real] = (h / 3.0) * np.vecdot(w, soft_integrand(t, rp[:, None], fog, sensor))
        total = out[lo:lo + _BLOCK_SIZE]
        for column in terms.T:  # panel order, descending in range
            total += column
    return out


def soft_response_integral(r, fog: FogParams, sensor: SensorModel) -> float:
    """`soft_response_integrals` at the single range r, as a float."""
    return float(soft_response_integrals([float(r)], fog, sensor)[0])
