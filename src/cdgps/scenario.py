"""End-to-end rendezvous scenarios: truth orbits, error stack, run loop.

This module glues the library together.  It builds a two-spacecraft truth
trajectory, synthesizes every GPS and external-sensor observable through the
full error stack (link budget, tracking-loop thermal noise, multipath,
ionosphere, receiver clock random walks, broadcast-ephemeris corruption,
phase wind-up), and drives the navigation filter with integer-ambiguity
resolution in a configurable coupling mode:

``none``
    GPS-only float solution; external sensors and the integer search are
    both off (the classical baseline).
``loose``
    External range/bearing measurements enter the filter as ordinary EKF
    rows; the integer search runs unconstrained and accepted subsets are
    fed back as exact constraints.
``full``
    As ``loose``, plus the integer search is steered by the external
    observations themselves (sensor-constrained candidate costs).

Everything stochastic draws from named substreams of a single seed, so a
run is bit-reproducible: same config in, same report bytes out.

Synthesis evaluates the draw-free geometry of a block of GPS epochs
(satellite states, visibility, C/N0 and lock, ionospheric delay, broadcast
ephemeris) as one array pass over every (epoch, satellite, receiver)
triple, and then walks the epochs one by one, where each substream draws
in a fixed order, whatever the block size:

``clock-chief``, ``clock-deputy``
    One increment per truth-grid step after the first, drawn up front
    unless ``clock_sigma`` is 0 (then none).
``ephemeris``
    Five signs per satellite, in satellite order, always drawn up front
    (an ``ephemeris_rms`` of 0 scales them to zero offsets).
``thermal``
    Per GPS epoch, code then carrier noise for every locked signal
    (visible and at or above the tracking threshold), satellite-major and
    chief before deputy.
``multipath``
    Per GPS epoch, in the same signal order, code then carrier noise for
    each of the two whose multipath sigma is positive.
``ambiguity``
    Per GPS epoch, one integer per newly acquired track, chief's before
    deputy's and each in ascending satellite order.
``external``
    Per external epoch, range then azimuth then elevation noise.
``init``
    At the start of a run: chief position, chief velocity, deputy
    position, deputy velocity, chief clock, deputy clock.
"""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import ARCSEC, L1_WAVELENGTH, R_EARTH
from .errors import (
    LinkBudget,
    MultipathParams,
    TRACKING_THRESHOLD,
    calibrate_roe,
    carrier_to_noise,
    clock_random_walk,
    inject_roe_error,
    klobuchar_delay,
    multipath_sigma,
    substream,
    thermal_noise_sigmas,
)
from .iar import (
    AmbiguityDistribution,
    SingularGeometryError,
    classical_ils_search,
    constrained_search,
    constraint_context,
    decorrelate,
    partial_resolve,
)
from .measurements import (
    MeasurementEpoch,
    bearing_model,
    graphic,
    range_model,
    sd_to_dd_matrix,
    undifferenced_phase,
)
from . import navfilter
from .navfilter import (
    AMB_SD,
    BIASES,
    CHIEF_CLOCK,
    CHIEF_POS,
    DEPUTY_CLOCK,
    DEPUTY_POS,
    DEPUTY_VEL,
    CHIEF_VEL,
    FilterTuning,
    allocate_channels,
    apply_fixes,
    constrain_linear,
    initialize_filter,
    measurement_update,
    time_update,
)
from .orbits import (
    OrbitState,
    cross,
    default_constellation,
    kepler_elements_to_state,
    propagate,
    row_norm,
    rtn_frame,
    visibility,
)

__all__ = [
    "SensorConfig",
    "NoiseConfig",
    "ScenarioConfig",
    "Truth",
    "SynthesisAux",
    "RunReport",
    "generate_truth",
    "synthesize_measurements",
    "run_scenario",
    "leo_preset",
    "geo_preset",
    "load_preset",
    "PRESET_NAMES",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    """A real number, and not a ``bool`` (which Python counts as one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# The run's time grid [s]: truth, the GPS epochs and the external-sensor
# epochs; each period is a multiple of the truth step.
TRUTH_STEP = 10.0
GPS_UPDATE_PERIOD = 30.0
EXTERNAL_UPDATE_PERIOD = 10.0

# Settings, by ``validate`` label, that must not be negative: times,
# standard deviations, amplitudes, and initial and process sigmas.
_NON_NEGATIVE = frozenset((
    "external_enable_time", "iar_warmup",
    "init_pos_error", "init_vel_error", "init_clock_error",
    "noise.multipath_amp_code", "noise.multipath_amp_phase",
    "noise.clock_sigma", "noise.ephemeris_rms", "noise.windup_amplitude",
    "sensors.range_noise", "sensors.angle_noise",
    "tuning.init_pos", "tuning.init_vel", "tuning.init_accel",
    "tuning.init_clock", "tuning.init_range_bias", "tuning.init_angle_bias",
    "tuning.proc_pos", "tuning.proc_vel", "tuning.proc_accel",
    "tuning.proc_clock", "tuning.proc_amb",
))
# Settings that scale or divide, and so must be positive.
_POSITIVE = frozenset((
    "duration", "separation", "noise.multipath_size",
    "tuning.meas_code", "tuning.meas_carrier", "tuning.meas_range",
    "tuning.meas_angle", "tuning.tau_accel", "tuning.gate_sigma",
    "tuning.init_amb",
))


@dataclass
class SensorConfig:
    """True error budget of the external range/bearing sensor suite.

    Biases are constant over a run (the filter estimates them); noises are
    white per measurement.
    """

    range_bias: float = 0.05              # m
    azimuth_bias: float = 500.0 * ARCSEC  # rad
    elevation_bias: float = -500.0 * ARCSEC  # rad
    range_noise: float = 0.005            # m, 1-sigma
    angle_noise: float = 100.0 * ARCSEC   # rad, 1-sigma


@dataclass
class NoiseConfig:
    """Which error sources corrupt the synthesized signals, and how hard.

    Multipath amplitudes are the worst-case standard deviations of the
    near-field footprint [m]; each epoch draws an independent zero-mean
    Gaussian sample with the direction-dependent sigma.

    An amplitude of 0 turns its source off: both multipath amplitudes for
    multipath, ``clock_sigma`` for the clock walks, ``ephemeris_rms`` for
    the broadcast-ephemeris error and ``windup_amplitude`` for wind-up.
    Thermal noise and the ionosphere have no amplitude (their size follows
    from C/N0 and the Klobuchar model), so each keeps an on/off switch.
    """

    thermal: bool = True
    ionosphere: bool = True
    multipath_amp_code: float = 5.0       # m
    multipath_amp_phase: float = 0.05     # m
    multipath_size: float = 5.0           # footprint size factor
    clock_sigma: float = 1.0              # m / sqrt(s) receiver clock walk
    ephemeris_rms: float = 1.5            # m broadcast position RMS error
    windup_amplitude: float = 0.01        # cycles, slow common-mode term


@dataclass
class ScenarioConfig:
    """Complete description of one simulated rendezvous run.

    ``chief_elements`` holds Keplerian elements in SI units and radians
    (keys ``a, e, inc, raan, argp, mean_anomaly``).  The deputy starts
    co-orbital, leading the chief along-track by ``separation`` meters.
    Impulses are (time [s], RTN delta-v [m/s]) pairs executed by the deputy
    and known to the filter (open-loop commanded maneuvers).
    """

    chief_elements: dict
    name: str = "custom"
    separation: float = 1000.0            # m
    duration: float = 11100.0             # s
    external_enable_time: float = 1800.0  # s
    iar_warmup: float = 1800.0            # s before the first fix attempt
    coupling_mode: str = "full"           # none | loose | full
    visibility_mode: str = "mainlobe"     # mainlobe | sidelobe
    impulses: list = field(default_factory=list)
    seed: int = 1
    init_pos_error: float = 10.0          # m, 1-sigma per axis
    init_vel_error: float = 0.01          # m/s
    init_clock_error: float = 10.0        # m
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    sensors: SensorConfig = field(default_factory=SensorConfig)
    tuning: FilterTuning = field(default_factory=FilterTuning)

    def _numeric_settings(self):
        """(label, value) of every numeric setting, nested ones included:
        the chief's elements, the impulses, and each field whose default is
        a number or a tuple, whatever type its value has now."""
        for key, value in self.chief_elements.items():
            yield f"chief_elements.{key}", value
        for prefix, part in (("", self), ("noise.", self.noise),
                             ("sensors.", self.sensors),
                             ("tuning.", self.tuning)):
            for f in dataclasses.fields(part):
                if not (_is_number(f.default) or isinstance(f.default, tuple)):
                    continue
                value = getattr(part, f.name)
                for v in value if isinstance(value, tuple) else (value,):
                    yield prefix + f.name, v
        for t, dv in self.impulses:
            yield "impulse time", t
            for c in dv:
                yield "impulse delta-v", c

    def validate(self):
        el = self.chief_elements
        for key in ("a", "e", "inc", "raan", "argp", "mean_anomaly"):
            if key not in el:
                raise ValueError(f"chief_elements missing {key!r}")
        for label, value in self._numeric_settings():
            if not _is_number(value):
                raise ValueError(f"{label} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value!r}")
            if label in _POSITIVE and value <= 0.0:
                raise ValueError(f"{label} must be positive, got {value!r}")
            if label in _NON_NEGATIVE and value < 0.0:
                raise ValueError(
                    f"{label} must be non-negative, got {value!r}")
        # Any other value would switch on by its truthiness.
        for f in dataclasses.fields(self.noise):
            value = getattr(self.noise, f.name)
            if isinstance(f.default, bool) and not isinstance(
                    value, (bool, np.bool_)):
                raise ValueError(
                    f"noise.{f.name} must be a bool, got {value!r}")
        # A fractional seed would run as its integer part.
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if el["a"] <= R_EARTH:
            raise ValueError("semimajor axis below the Earth surface")
        if not 0.0 <= el["e"] < 1.0:
            raise ValueError("eccentricity must be in [0, 1)")
        n = round(self.duration / TRUTH_STEP)
        if n < 1 or abs(n * TRUTH_STEP - self.duration) > 1e-6:
            raise ValueError(
                f"duration must be a multiple of truth_step ({TRUTH_STEP:g} s)")
        if self.coupling_mode not in ("none", "loose", "full"):
            raise ValueError(f"unknown coupling mode {self.coupling_mode!r}")
        if self.visibility_mode not in ("mainlobe", "sidelobe"):
            raise ValueError(f"unknown visibility mode {self.visibility_mode!r}")
        for t, dv in self.impulses:
            if not 0.0 < t <= self.duration:
                raise ValueError("impulse times must lie inside the run")
            k = round(t / TRUTH_STEP)
            if abs(k * TRUTH_STEP - t) > 1e-9:
                raise ValueError("impulse times must be on the truth grid")
            if len(dv) != 3:
                raise ValueError("impulse delta-v must be an RTN 3-vector")

    def to_dict(self) -> dict:
        """Plain-data form of every setting, impulses as lists."""
        d = dataclasses.asdict(self)
        d["impulses"] = [[float(t), [float(c) for c in dv]]
                         for t, dv in self.impulses]
        return d

    @classmethod
    def from_dict(cls, d) -> "ScenarioConfig":
        d = dict(d)
        if "noise" in d and not isinstance(d["noise"], NoiseConfig):
            d["noise"] = NoiseConfig(**d["noise"])
        if "sensors" in d and not isinstance(d["sensors"], SensorConfig):
            d["sensors"] = SensorConfig(**d["sensors"])
        if "tuning" in d and not isinstance(d["tuning"], FilterTuning):
            d["tuning"] = _tuning_from_dict(d["tuning"])
        if "impulses" in d:
            d["impulses"] = [(float(t), tuple(float(c) for c in dv))
                             for t, dv in d["impulses"]]
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(_jsonable(self.to_dict()), indent=2,
                          sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _tuning_from_dict(d) -> FilterTuning:
    d = dict(d)
    for key in ("init_accel", "proc_accel"):
        if key in d and d[key] is not None:
            d[key] = tuple(d[key])
    return FilterTuning(**d)


def leo_preset() -> ScenarioConfig:
    """ISS-class low orbit: mainlobe GPS, heavy multipath, two revolutions."""
    return ScenarioConfig(
        name="leo-iss",
        chief_elements={"a": R_EARTH + 370e3, "e": 1e-4,
                        "inc": math.radians(51.6), "raan": 0.6,
                        "argp": 0.0, "mean_anomaly": 0.0},
        separation=1000.0,
        duration=11100.0,
        impulses=[(600.0, (0.0, 0.02, 0.0))],
        coupling_mode="full",
        visibility_mode="mainlobe",
    )


def geo_preset() -> ScenarioConfig:
    """Geostationary approach on sidelobe-only signals across the limb."""
    return ScenarioConfig(
        name="geo-sidelobe",
        chief_elements={"a": 42_164_000.0, "e": 1e-4,
                        "inc": math.radians(0.1), "raan": 0.3,
                        "argp": 0.0, "mean_anomaly": 0.0},
        separation=1000.0,
        duration=43200.0,
        impulses=[(600.0, (0.0, 0.004, 0.0))],
        coupling_mode="full",
        visibility_mode="sidelobe",
        # Weak sidelobe signals: milder multipath, no ionosphere, and
        # noisier code and carrier rows.
        noise=NoiseConfig(ionosphere=False, multipath_amp_code=1.0,
                          multipath_amp_phase=0.01, multipath_size=1.0),
        tuning=FilterTuning(meas_code=2.65, meas_carrier=20.0e-3),
    )


PRESET_NAMES = ("leo", "geo")


def load_preset(name) -> ScenarioConfig:
    """Preset by short name (one of ``PRESET_NAMES``)."""
    if name == "leo":
        return leo_preset()
    if name == "geo":
        return geo_preset()
    raise ValueError(f"unknown preset {name!r} (choose from {PRESET_NAMES})")


# ---------------------------------------------------------------------------
# Truth trajectories
# ---------------------------------------------------------------------------

@dataclass
class Truth:
    """Reference trajectories of both spacecraft on a uniform time grid."""

    times: np.ndarray        # (N,) s
    chief_pos: np.ndarray    # (N, 3) m ECI
    chief_vel: np.ndarray    # (N, 3) m/s
    deputy_pos: np.ndarray
    deputy_vel: np.ndarray
    events: list = field(default_factory=list)

    def index_of(self, t) -> int:
        i = int(round(float(t) / TRUTH_STEP))
        if not 0 <= i < len(self.times) or abs(self.times[i] - t) > 1e-6:
            raise ValueError(f"time {t} is not on the truth grid")
        return i


def _rotation_about(axis, angle) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def generate_truth(config: ScenarioConfig) -> Truth:
    """Propagate both spacecraft through the run, executing deputy impulses.

    The deputy starts exactly co-orbital, leading the chief by rotating the
    chief state about the orbit normal through ``separation / a`` radians;
    without maneuvers the pair therefore holds its along-track spacing to
    well under a percent per revolution.  Impulses are applied at their grid
    times as instantaneous RTN velocity increments on the deputy.
    """
    config.validate()
    el = config.chief_elements
    chief = kepler_elements_to_state(el["a"], el["e"], el["inc"], el["raan"],
                                     el["argp"], el["mean_anomaly"])
    rot = _rotation_about(rtn_frame(chief)[2], config.separation / el["a"])
    deputy = OrbitState(rot @ chief.position, rot @ chief.velocity, 0.0)

    n = round(config.duration / TRUTH_STEP)
    times = np.arange(n + 1) * TRUTH_STEP
    impulse_at = {}
    for t, dv in config.impulses:
        i_imp = int(round(t / TRUTH_STEP))
        impulse_at.setdefault(i_imp, []).append(np.asarray(dv, dtype=float))

    cp = np.empty((n + 1, 3)); cv = np.empty((n + 1, 3))
    dp = np.empty((n + 1, 3)); dv_ = np.empty((n + 1, 3))
    events = []
    warned_close = False
    pair = OrbitState(np.stack([chief.position, deputy.position]),
                      np.stack([chief.velocity, deputy.velocity]), 0.0)
    for i, t in enumerate(times):
        if i > 0:
            pair = propagate(pair, TRUTH_STEP)
        for burn in impulse_at.get(i, []):
            deputy = OrbitState(pair.position[1], pair.velocity[1])
            pair.velocity[1] += rtn_frame(deputy).T @ burn
            events.append({"time": float(t), "kind": "impulse",
                           "dv_rtn": [float(c) for c in burn]})
        cp[i], dp[i] = pair.position
        cv[i], dv_[i] = pair.velocity
        sep = float(np.linalg.norm(dp[i] - cp[i]))
        if sep < 1.0 and not warned_close:
            events.append({"time": float(t), "kind": "collision-warning",
                           "separation": sep})
            warned_close = True
    return Truth(times, cp, cv, dp, dv_, events)


# ---------------------------------------------------------------------------
# Sensor-frame pointing
# ---------------------------------------------------------------------------

def _pointing_frame(origin, target, normal_hint) -> np.ndarray:
    """DCMs (rows) taking ECI into sensor frames whose +z boresight points
    from ``origin`` at ``target``; +x is built from the orbit normal hint.
    Stacked (n, 3) inputs give (n, 3, 3) frames."""
    z = target - origin
    z = z / row_norm(z)
    x = cross(normal_hint, z)
    # Boresight along the hint: fall back to any transverse axis.
    fallback = cross(np.where(np.abs(z[..., :1]) < 0.9, [1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0]), z)
    x = np.where(row_norm(x) < 1e-9, fallback, x)
    x = x / row_norm(x)
    return np.stack([x, cross(z, x), z], axis=-2)


# ---------------------------------------------------------------------------
# Measurement synthesis
# ---------------------------------------------------------------------------

@dataclass
class SynthesisAux:
    """Synthesis products that are not observables: truth, for scoring
    only.  (The receivers' lock reports are observables and travel in each
    epoch's ``tracks``.)"""

    true_sd: dict            # epoch time -> {gps_id: true SD integer [cy]}
    clock_chief: np.ndarray  # truth-grid receiver clock error [m]
    clock_deputy: np.ndarray


# GPS epochs whose geometry synthesis evaluates in one array pass.  A block
# is computed when the epoch loop reaches it and dropped after it, so memory
# does not grow with the run length.
SYNTHESIS_BLOCK = 64


def _gps_geometry(const, times, pos, vel, att, config, budget0, roes):
    """Draw-free GPS geometry of the GPS epochs, one tuple per epoch.

    ``times`` (m,) are the epochs, ``pos``/``vel`` (m, 2, 3) both receivers
    and ``att`` (m, 2, 3, 3) their attitudes.  Each epoch's tuple holds,
    with one row per satellite and columns chief and deputy: the ranges,
    the arrival azimuth and elevation, C/N0 and the locked mask; then the
    common ids (satellites locked by both receivers, ascending), their
    ionospheric delays (zero with the ionosphere off) and their broadcast
    positions.  A generator: each block of ``SYNTHESIS_BLOCK`` epochs is
    computed in one array pass when the first of its epochs is asked for.
    """
    sats = np.arange(len(const))
    for lo in range(0, len(times), SYNTHESIS_BLOCK):
        blk = slice(lo, lo + SYNTHESIS_BLOCK)
        t, p = times[blk], pos[blk]
        gps = const.state_at(sats, t[:, None])
        to_gps = gps.position[:, :, None, :] - p[:, None]
        ranges = np.linalg.norm(to_gps, axis=-1)
        visible, (az, el) = visibility(
            OrbitState(p[:, None], vel[blk, None]),
            OrbitState(gps.position[:, :, None], gps.velocity[:, :, None]),
            config.visibility_mode, att[blk, None])
        c_n0 = carrier_to_noise(
            dataclasses.replace(budget0, slant_range=ranges / 1e3))
        locked = visible & (c_n0 >= TRACKING_THRESHOLD)

        # Rows locked by both receivers: epoch-major, ascending satellite.
        rows_e, rows_s = np.nonzero(locked.all(axis=-1))
        iono = np.zeros((rows_e.size, 2))
        if config.noise.ionosphere and rows_e.size:
            iono = klobuchar_delay(p[rows_e], to_gps[rows_e, rows_s],
                                   (t % 86400.0)[rows_e, None])
        broadcast = inject_roe_error(
            gps.position[rows_e, rows_s], gps.velocity[rows_e, rows_s],
            dataclasses.replace(roes, offsets=roes.offsets[rows_s]))
        cuts = np.cumsum(np.bincount(rows_e, minlength=len(t)))[:-1]
        yield from zip(ranges, az, el, c_n0, locked,
                       np.split(rows_s, cuts), np.split(iono, cuts),
                       np.split(broadcast, cuts))


def synthesize_measurements(config: ScenarioConfig, truth: Truth):
    """Every observable of the run, through the full error stack.

    GPS epochs carry, aligned to the ascending ids of the satellites
    tracked by *both* receivers, GRAPHIC [m] per receiver, single-differenced
    carrier phase [cycles], the receivers' track ids, broadcast
    (ephemeris-corrupted) GPS positions and the multipath map's extra row
    variances; a satellite one receiver loses (occultation, transmit cone,
    or signal power below the tracking threshold) contributes nothing that
    epoch, and a re-acquired channel draws a fresh ambiguity on a new track.
    External epochs carry biased, noisy range and bearing of the chief as
    seen from the deputy docking sensor.  The
    transmitters are the ``default_constellation()``, and every carrier is
    simulated at ``L1_WAVELENGTH``, the carrier the filter models.

    Returns
    -------
    (list of MeasurementEpoch, SynthesisAux)
    """
    config.validate()
    const = default_constellation()
    noise = config.noise
    # The true ranges replace the budget's slant range, so all a run takes
    # from the budget is its lobe's transmit antenna gain.
    budget0 = (LinkBudget.leo_mainlobe()
               if config.visibility_mode == "mainlobe"
               else LinkBudget.geo_sidelobe())
    sensors = config.sensors
    biases = (sensors.range_bias, sensors.azimuth_bias, sensors.elevation_bias)

    rng_thermal = substream(config.seed, "thermal")
    rng_mp = substream(config.seed, "multipath")
    rng_amb = substream(config.seed, "ambiguity")
    rng_ext = substream(config.seed, "external")
    rng_eph = substream(config.seed, "ephemeris")
    rng_clk_c = substream(config.seed, "clock-chief")
    rng_clk_d = substream(config.seed, "clock-deputy")

    # Receiver clocks walk on the truth grid.
    n_t = len(truth.times)
    clk_c = np.zeros(n_t)
    clk_d = np.zeros(n_t)
    steps = np.full(n_t - 1, TRUTH_STEP)
    clk_c[1:] = clock_random_walk(0.0, steps, rng_clk_c, noise.clock_sigma)
    clk_d[1:] = clock_random_walk(0.0, steps, rng_clk_d, noise.clock_sigma)

    # Broadcast-ephemeris corruption: drift-free ROE offsets per satellite
    # with randomized signs, calibrated to the configured RMS.
    sats = np.arange(len(const))
    a_gps = np.linalg.norm(const.state_at(sats, 0.0).position, axis=1)
    roes = calibrate_roe(noise.ephemeris_rms, a_gps)
    for off in roes.offsets:
        off[1:] *= rng_eph.choice([-1.0, 1.0], size=5)

    windup_phase = 2.0 * math.pi * sats / len(const)

    def times_of(period, start=0.0):
        k0 = int(math.ceil((start - 1e-9) / period))
        k1 = int(math.floor((config.duration + 1e-9) / period))
        return [k * period for k in range(k0, k1 + 1)]

    gps_times = set(times_of(GPS_UPDATE_PERIOD))
    ext_times = set(times_of(EXTERNAL_UPDATE_PERIOD,
                             config.external_enable_time))
    all_times = sorted(gps_times | ext_times)

    # Channel bookkeeping per (satellite, receiver): track id (0 while not
    # tracked) and carrier ambiguity of the current track.
    track = np.zeros((len(const), 2), dtype=np.int64)
    amb = np.zeros((len(const), 2), dtype=np.int64)
    track_counter = 0
    epochs = []
    true_sd = {}

    # Both craft at every epoch, rows (chief, deputy), with their
    # docking-sensor attitudes: boresight at the partner, +x from the orbit
    # normal.
    grid = [truth.index_of(t) for t in all_times]
    rx_pos = np.stack([truth.chief_pos[grid], truth.deputy_pos[grid]], axis=1)
    rx_vel = np.stack([truth.chief_vel[grid], truth.deputy_vel[grid]], axis=1)
    normals = rtn_frame(OrbitState(rx_pos, rx_vel))[..., 2, :]
    attitudes = _pointing_frame(rx_pos, rx_pos[:, ::-1], normals)
    gps_at = [k for k, t in enumerate(all_times) if t in gps_times]
    geometry = _gps_geometry(const, np.array(all_times)[gps_at],
                             rx_pos[gps_at], rx_vel[gps_at],
                             attitudes[gps_at], config, budget0, roes)

    for t, i, pos, att in zip(all_times, grid, rx_pos, attitudes):
        cpos, dpos = pos
        epoch = MeasurementEpoch(time=float(t), attitude=att[1])

        if t in gps_times:
            (ranges, az, el, c_n0, locked, common, iono,
             broadcast) = next(geometry)
            baseline = float(np.linalg.norm(dpos - cpos))
            mp_params = MultipathParams(
                amplitude_code=noise.multipath_amp_code,
                amplitude_phase=noise.multipath_amp_phase,
                size_factor=noise.multipath_size,
                target_range=baseline)

            # Signals in draw order: satellite-major, chief before deputy.
            sig = np.nonzero(locked)
            noise_code = np.zeros(locked.shape)
            noise_phase = np.zeros(locked.shape)
            mp = np.zeros(locked.shape + (2,))   # code, phase sigma
            if noise.thermal:
                draw = rng_thermal.normal(scale=np.column_stack(
                    thermal_noise_sigmas(c_n0[sig])))
                noise_code[sig] = draw[:, 0]
                noise_phase[sig] = draw[:, 1]
            mp[sig] = np.column_stack([
                multipath_sigma(mp_params, az[sig], el[sig], kind)
                for kind in ("code", "phase")])
            drawn = mp[sig] > 0.0
            draw = np.zeros(drawn.shape)
            draw[drawn] = rng_mp.normal(scale=mp[sig][drawn])
            noise_code[sig] += draw[:, 0]
            noise_phase[sig] += draw[:, 1]

            # Track bookkeeping: gaps end a track, re-acquisition redraws N
            # (receiver-major, then ascending satellite).
            track[~locked] = 0
            new_rx, new_sat = np.nonzero((locked & (track == 0)).T)
            if new_sat.size:
                track[new_sat, new_rx] = track_counter + np.arange(
                    1, new_sat.size + 1)
                track_counter += new_sat.size
                amb[new_sat, new_rx] = rng_amb.integers(
                    -100_000, 100_001, size=new_sat.size)

            gids = common.tolist()
            rho = ranges[common]
            windup_m = (L1_WAVELENGTH * noise.windup_amplitude
                        * np.sin(2.0 * math.pi * float(t) / 3600.0
                                 + windup_phase[common]))[:, None]
            clock = np.array([clk_c[i], clk_d[i]])
            code = rho + iono + clock + noise_code[common]
            phase = undifferenced_phase(
                rho, amb[common], iono=-iono, rx_clock=clock,
                windup=windup_m, noise=noise_phase[common])
            sd_phase = phase[:, 0] - phase[:, 1]
            gra = graphic(code, phase)
            epoch.gps_ids = gids
            epoch.graphic = {"chief": gra[:, 0].tolist(),
                             "deputy": gra[:, 1].tolist()}
            epoch.sdcp = sd_phase.tolist()
            epoch.tracks = list(map(tuple, track[common].tolist()))
            epoch.gps_positions = broadcast
            # Calibrated multipath map: weight each row by the
            # direction-dependent error on top of the thermal floor.
            mp_m = mp[common]
            epoch.extra_variance = np.column_stack([
                0.25 * (mp_m[..., 0] ** 2 + mp_m[..., 1] ** 2),
                mp_m[:, 0, 1] ** 2 + mp_m[:, 1, 1] ** 2])
            true_sd[float(t)] = dict(zip(
                gids, (amb[common, 0] - amb[common, 1]).tolist()))

        if t in ext_times:
            rel_sensor = att[1] @ (cpos - dpos)
            epoch.range_obs = (range_model(rel_sensor, biases)
                               + rng_ext.normal(scale=sensors.range_noise))
            az, el = bearing_model(rel_sensor, biases)
            epoch.bearing_obs = (
                az + rng_ext.normal(scale=sensors.angle_noise),
                el + rng_ext.normal(scale=sensors.angle_noise))

        epochs.append(epoch)

    aux = SynthesisAux(true_sd=true_sd, clock_chief=clk_c, clock_deputy=clk_d)
    return epochs, aux


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

RECORD_FIELDS = (
    "time", "err_r", "err_t", "err_n", "verr_r", "verr_t", "verr_n",
    "sigma_r", "sigma_t", "sigma_n", "n_fixed", "fixed_fraction",
    "success_prob", "n_rows", "n_rejected", "skipped")
_INT_FIELDS = {"n_fixed", "n_rows", "n_rejected", "skipped"}

# Searching more channels than this per attempt buys little and costs much;
# leftovers stay float and are picked up on later epochs once the reference
# is fixed.
IAR_MAX_SEARCH = 10

# The consistency veto's limits: entry k - 1 is the 0.999 quantile of the
# chi-square distribution with k degrees of freedom, for k = 1 ...
# IAR_MAX_SEARCH, written out from SciPy 1.17.1 ``chi2.ppf(0.999, k)`` so
# that the runtime does not import SciPy.
CHI2_999 = (
    10.827566170662733, 13.815510557964274, 16.26623619623813,
    18.46682695290317, 20.515005652432873, 22.457744484825323,
    24.321886347856854, 26.12448155837614, 27.877164871256568,
    29.58829844507442)

# A channel must have been on one track this many consecutive GPS epochs
# before it may enter the integer search; fresh floats carry initialization
# transients that the formal covariance understates.
IAR_MIN_TRACK = 5


@dataclass
class RunReport:
    """Everything a finished run produced."""

    config: ScenarioConfig
    records: list                 # one dict per measurement epoch
    fix_events: list
    events: list
    summary: dict
    degraded: bool = False

    def to_csv(self) -> str:
        lines = [",".join(RECORD_FIELDS)]
        for rec in self.records:
            cells = []
            for name in RECORD_FIELDS:
                v = rec[name]
                cells.append(str(int(v)) if name in _INT_FIELDS
                             else repr(float(v)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "summary": self.summary,
            "degraded": self.degraded,
            "fix_events": self.fix_events,
            "events": self.events,
            "config": self.config.to_dict(),
        }
        return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"

    def write(self, output_dir) -> dict:
        """Emit history.csv, report.json, and the echoed config.json."""
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {"history": out / "history.csv",
                 "report": out / "report.json",
                 "config": out / "config.json"}
        paths["history"].write_text(self.to_csv())
        paths["report"].write_text(self.to_json())
        paths["config"].write_text(self.config.to_json())
        return paths


def _jsonable(obj):
    """Recursively make a payload strict-JSON safe (NaN/inf -> None)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _sensor_context(state, epoch, tuning, tmat, order, idx, n_free):
    """Range/bearing evidence for a search over ``order[:n_free]``.

    ``tmat`` is the attempt's operator over ``order`` (state indices
    ``idx``), which ends with the reference; the ids between it and the
    searched ones have fixed integers, taken out of their DD phases.  The
    ids' rows of the epoch are found in its ascending ``gps_ids``.  The
    geometry is negated to resolve chief minus deputy.
    """
    x = state.x
    rows = np.searchsorted(epoch.gps_ids, order)
    los = epoch.gps_positions[rows] - x[CHIEF_POS]
    los = los / row_norm(los)
    phases = tmat @ np.asarray(epoch.sdcp)[rows]
    phases[n_free:] -= tmat[n_free:] @ x[idx]
    sd_var = tuning.meas_carrier ** 2 + epoch.extra_variance[rows, 2]
    observed = np.array([epoch.range_obs, *epoch.bearing_obs]) - x[BIASES]
    pre_blur = np.diag(state.covariance)[BIASES] + [
        tuning.meas_range ** 2, tuning.meas_angle ** 2, tuning.meas_angle ** 2]
    return constraint_context(
        -(tmat @ los), phases, sd_var[:-1] + sd_var[-1],
        x[CHIEF_POS] - x[DEPUTY_POS], observed, pre_blur, epoch.attitude,
        L1_WAVELENGTH, n_free)


def _attempt_fix(state, epoch, config, true_sd_map, slots):
    """One integer-resolution attempt at a GPS epoch.

    Selects a reference channel (a fixed one when available, otherwise the
    tightest float), double-differences against it with one operator (the
    floats, the sensor context, the truth and the feedback rows alike),
    decorrelates, searches (sensor-constrained when the coupling mode and
    epoch allow), and conditions the filter on the accepted decorrelated
    combinations with one ``constrain_linear`` call.  A full acceptance
    then flags the searched channels, and a float reference, as fixed;
    their double differences are exact, while no single difference is
    rounded.

    ``slots`` maps the epoch's GPS ids to ambiguity slots (as returned by
    ``allocate_channels``).  A float channel enters the search only after
    ``IAR_MIN_TRACK`` epochs on its track; fixed channels are exempt.

    Returns ``(state, success_prob or nan, fix_event or None)``.
    """
    p = state.covariance

    gids = sorted(slots)
    sd = {g: AMB_SD.start + slots[g] for g in gids}
    fixed = [g for g in gids if state.fixed_mask[slots[g]]]
    unfixed = [g for g in gids if not state.fixed_mask[slots[g]]
               and state.age[slots[g]] >= IAR_MIN_TRACK]
    if not unfixed:
        return state, float("nan"), None

    if fixed:
        ref = min(fixed, key=lambda g: slots[g])
    else:
        ref = min(unfixed, key=lambda g: (p[sd[g], sd[g]], g))
    free = [g for g in unfixed if g != ref]
    if not free:
        return state, float("nan"), None
    if len(free) > IAR_MAX_SEARCH:
        # The tightest floats, kept in variance order.
        free = sorted(free, key=lambda g: (p[sd[g], sd[g]], g))
        free = free[:IAR_MAX_SEARCH]

    # The reference goes last and the other fixed ids before it, so the
    # operator's first ``n_dd`` rows are the searched DDs.
    order = free + [g for g in fixed if g != ref] + [ref]
    idx = [sd[g] for g in order]
    n_dd = len(free)
    tmat = sd_to_dd_matrix(len(order))
    t_dd = tmat[:n_dd]
    dd_cov = t_dd @ p[np.ix_(idx, idx)] @ t_dd.T
    dd = AmbiguityDistribution(floats=t_dd @ state.x[idx],
                               covariance=0.5 * (dd_cov + dd_cov.T))
    dist_z = decorrelate(dd)

    ctx = None
    if (config.coupling_mode == "full" and epoch.range_obs is not None
            and epoch.bearing_obs is not None):
        ctx = _sensor_context(state, epoch, config.tuning, tmat, order, idx,
                              n_dd)
        try:
            result = constrained_search(dist_z, ctx)
        except SingularGeometryError:
            ctx = None
    if ctx is None:
        result = classical_ils_search(dist_z)

    partial = partial_resolve(dist_z, result, use_shrink=ctx is not None)
    if partial.subset_size == 0:
        return state, float(result.success_prob), None

    sel = partial.indices
    values = partial.values

    # Consistency veto: the accepted integers must agree with the float
    # solution within its own statistics.  A candidate that the search
    # liked but that sits many sigma from the float estimate signals an
    # inconsistent filter or a constraint-steered excursion; discard it.
    resid = values - dist_z.floats[sel]
    cov_sel = dist_z.covariance[np.ix_(sel, sel)]
    m2 = float(resid @ np.linalg.solve(cov_sel, resid))
    if m2 > CHI2_999[len(sel) - 1]:
        return state, float(result.success_prob), None

    # Score against truth in the decorrelated double-difference space,
    # which is invariant to the floating single-difference datum.
    tsd = true_sd_map[epoch.time]
    true_dd = t_dd @ np.array([tsd[g] for g in order])
    z_true = dist_z.z_matrix.T @ true_dd
    wrong = int(np.sum(values != z_true[sel]))

    rows = np.zeros((len(sel), navfilter.N_STATES))
    rows[:, idx] = np.asarray(dist_z.z_matrix, dtype=float).T[sel] @ t_dd
    state = constrain_linear(state, rows, values)
    # A full fix makes every searched DD exact: flag its channels, and the
    # reference if it was float, so their ambiguities stop diffusing.
    full_fix = partial.subset_size == n_dd
    if full_fix:
        state = apply_fixes(state, [slots[g] for g in free + [ref]
                                    if not state.fixed_mask[slots[g]]])

    event = {
        "time": float(epoch.time),
        "kind": "fix",
        "full": bool(full_fix),
        "subset": int(partial.subset_size),
        "n_searched": int(n_dd),
        "wrong": wrong,
        "success_prob": float(partial.success_prob),
        "shrink": float(partial.shrink_factor),
        "constrained": ctx is not None,
        "budget_exhausted": bool(result.budget_exhausted),
        "reference": int(ref),
        "channels": [int(g) for g in free],
        # Honest-error introspection: worst float error against truth and
        # worst formal sigma, both in double-difference cycles.
        "float_err_max": float(np.max(np.abs(dd.floats - true_dd))),
        "sigma_dd_max": float(np.sqrt(np.max(np.diag(dd.covariance)))),
    }
    return state, float(result.success_prob), event


def _summarize(config, records, fix_events, first_fix_index,
               n_attempt_epochs, n_skipped) -> dict:
    """The run summary: RMS errors over all records, before record
    ``first_fix_index`` and from it on (all before when it is None), and
    the fix events' ``subset`` and ``wrong`` integers added up."""
    def rms(block):
        if block.shape[0] == 0:
            return float("nan")
        return float(np.sqrt(np.mean(np.sum(block * block, axis=1))))

    err = np.array([[r[k] for k in ("err_r", "err_t", "err_n",
                                    "verr_r", "verr_t", "verr_n")]
                    for r in records]).reshape(-1, 6)
    pos, vel = err[:, :3], err[:, 3:]
    split = len(records) if first_fix_index is None else first_fix_index
    total_fixed = sum(e["subset"] for e in fix_events)
    total_wrong = sum(e["wrong"] for e in fix_events)
    post = [r for r in records if r["time"] >= config.iar_warmup]
    return {
        "rms_pos_pre_fix": rms(pos[:split]),
        "rms_pos_post_fix": rms(pos[split:]),
        "rms_vel_pre_fix": rms(vel[:split]),
        "rms_vel_post_fix": rms(vel[split:]),
        "rms_pos_total": rms(pos),
        "rms_vel_total": rms(vel),
        "n_fix_events": len(fix_events),
        "n_fixed_integers": int(total_fixed),
        "wrong_fix_rate": (total_wrong / total_fixed) if total_fixed else 0.0,
        "first_fix_index": first_fix_index,
        "coupling_mode": config.coupling_mode,
        "scenario": config.name,
        "seed": int(config.seed),
        "duration": float(config.duration),
        "n_epochs": len(records),
        "n_skipped": int(n_skipped),
        "first_fix_time": (float(fix_events[0]["time"]) if fix_events
                           else None),
        "n_full_fix_events": int(sum(1 for e in fix_events if e["full"])),
        "n_wrong_fix_events": int(sum(1 for e in fix_events
                                      if e["wrong"] > 0)),
        "pct_epochs_with_fix": (
            100.0 * len({e["time"] for e in fix_events}) / n_attempt_epochs
            if n_attempt_epochs else 0.0),
        "mean_fixed_fraction": (float(np.mean([r["fixed_fraction"]
                                               for r in post]))
                                if post else 0.0),
        "final_fixed_channels": records[-1]["n_fixed"] if records else 0,
    }


def run_scenario(config: ScenarioConfig, output_dir=None) -> RunReport:
    """Simulate one full rendezvous and run the navigation pipeline on it.

    Per measurement epoch the pipeline is: time update to the epoch,
    commanded-impulse feed-through, channel allocation and warm starting,
    the joint gated EKF measurement update, and (at GPS epochs past the
    warm-up, coupling permitting) one integer-resolution attempt.  An epoch
    whose update raises is logged and skipped, and a time update that raises
    ends the run; a run that ended so, or with at least 10% of its epochs
    skipped, is flagged ``degraded``.  The run summary is built
    here, by ``_summarize``, from the per-epoch records and the fix events.

    Returns a :class:`RunReport`; when ``output_dir`` is given the report
    is also written there (history.csv, report.json, config.json).
    """
    config.validate()
    truth = generate_truth(config)
    epochs, aux = synthesize_measurements(config, truth)
    by_time = {e.time: e for e in epochs}
    tuning = config.tuning

    rng_init = substream(config.seed, "init")
    pos_sigma, vel_sigma = config.init_pos_error, config.init_vel_error
    chief_init = OrbitState(
        truth.chief_pos[0] + rng_init.normal(scale=pos_sigma, size=3),
        truth.chief_vel[0] + rng_init.normal(scale=vel_sigma, size=3))
    deputy_init = OrbitState(
        truth.deputy_pos[0] + rng_init.normal(scale=pos_sigma, size=3),
        truth.deputy_vel[0] + rng_init.normal(scale=vel_sigma, size=3))
    state = initialize_filter(chief_init, deputy_init, tuning)
    state.x[CHIEF_CLOCK] = rng_init.normal(scale=config.init_clock_error)
    state.x[DEPUTY_CLOCK] = rng_init.normal(scale=config.init_clock_error)

    impulse_by_time = {}
    for t, dv in config.impulses:
        impulse_by_time.setdefault(float(t), []).append(
            np.asarray(dv, dtype=float))
    times = sorted(set(by_time) | set(impulse_by_time))

    events = list(truth.events)
    fix_events = []
    records = []
    n_skipped = 0
    aborted = False
    n_attempt_epochs = 0
    first_fix_index = None
    coupled = config.coupling_mode in ("loose", "full")
    chief_rtn = rtn_frame(OrbitState(truth.chief_pos, truth.chief_vel))

    for t in times:
        dt = t - state.epoch
        if dt > 0.0:
            try:
                state = time_update(state, tuning, dt)
            except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
                events.append({"time": float(t), "kind": "run-aborted",
                               "detail": str(exc)})
                aborted = True
                break

        for burn in impulse_by_time.get(t, []):
            deputy = OrbitState(state.x[DEPUTY_POS], state.x[DEPUTY_VEL])
            dv_eci = rtn_frame(deputy).T @ burn
            state.x[DEPUTY_VEL] += dv_eci
            sigma = max(1e-4, 0.01 * float(np.linalg.norm(burn)))
            state.covariance[DEPUTY_VEL, DEPUTY_VEL] += sigma ** 2 * np.eye(3)

        epoch = by_time.get(t)
        if epoch is None:
            continue

        is_gps = bool(epoch.sdcp)
        skipped = False
        report = None
        success_prob = float("nan")
        fixed_this_epoch = False
        try:
            if is_gps:
                slots = allocate_channels(state, epoch, tuning)

            state, report = measurement_update(state, epoch, tuning,
                                               use_external=coupled)

            if is_gps and coupled and t >= config.iar_warmup:
                n_attempt_epochs += 1
                state, success_prob, fix = _attempt_fix(
                    state, epoch, config, aux.true_sd, slots)
                if fix is not None:
                    fix_events.append(fix)
                    fixed_this_epoch = True
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            events.append({"time": float(t), "kind": "epoch-error",
                           "detail": str(exc)})
            n_skipped += 1
            skipped = True

        if fixed_this_epoch and first_fix_index is None:
            first_fix_index = len(records)

        i = truth.index_of(t)
        rtn = chief_rtn[i]
        rel_est = state.x[DEPUTY_POS] - state.x[CHIEF_POS]
        rel_true = truth.deputy_pos[i] - truth.chief_pos[i]
        vel_est = state.x[DEPUTY_VEL] - state.x[CHIEF_VEL]
        vel_true = truth.deputy_vel[i] - truth.chief_vel[i]
        err = rtn @ (rel_est - rel_true)
        verr = rtn @ (vel_est - vel_true)
        pcc = state.covariance[CHIEF_POS, CHIEF_POS]
        pdd = state.covariance[DEPUTY_POS, DEPUTY_POS]
        pcd = state.covariance[CHIEF_POS, DEPUTY_POS]
        rel_cov = rtn @ (pcc + pdd - pcd - pcd.T) @ rtn.T
        sigmas = np.sqrt(np.maximum(np.diag(rel_cov), 0.0))
        # A slot keeps its satellite (and fixed flag) after the satellite
        # sets; count only the channels tracked now.
        in_track = state.age > 0
        n_tracked = int(np.sum(in_track))
        n_fixed = int(np.sum(state.fixed_mask & in_track))
        records.append({
            "time": float(t),
            "err_r": float(err[0]), "err_t": float(err[1]),
            "err_n": float(err[2]),
            "verr_r": float(verr[0]), "verr_t": float(verr[1]),
            "verr_n": float(verr[2]),
            "sigma_r": float(sigmas[0]), "sigma_t": float(sigmas[1]),
            "sigma_n": float(sigmas[2]),
            "n_fixed": n_fixed,
            "fixed_fraction": (n_fixed / n_tracked) if n_tracked else 0.0,
            "success_prob": success_prob,
            "n_rows": report.n_rows if report else 0,
            "n_rejected": report.n_rejected if report else 0,
            "skipped": int(skipped),
        })

    run = RunReport(
        config=config, records=records, fix_events=fix_events, events=events,
        summary=_summarize(config, records, fix_events, first_fix_index,
                           n_attempt_epochs, n_skipped),
        degraded=aborted or (bool(records)
                             and n_skipped >= 0.1 * len(records)))
    if output_dir is not None:
        run.write(output_dir)
    return run
