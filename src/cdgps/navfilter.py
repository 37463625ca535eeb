"""Extended Kalman filter for two-spacecraft relative navigation.

The filter alone: its updates, its ambiguity channels and the feedback of
accepted integer fixes.  Run statistics belong to the run loop (``scenario``).

State vector (71 elements):

====================  ========  ==============================================
block                 indices   contents
====================  ========  ==============================================
chief position        0:3       ECI [m]
chief velocity        3:6       ECI [m/s]
chief empirical acc   6:9       RTN [m/s^2], first-order Gauss-Markov
chief clock           9         receiver clock error [m], random walk
deputy (same layout)  10:20
zero-diff ambiguities 20:44     24 channels, chief undifferenced floats [cy]
single-diff ambs      44:68     24 channels, chief-minus-deputy floats [cy]
sensor biases         68:71     range [m], azimuth [rad], elevation [rad]
====================  ========  ==============================================

Ambiguity channels are slots keyed to GPS satellites; ``allocate_channels``
alone restarts them (hand-over, or re-acquisition on a new track),
warm-starts them and counts their age.  GRAPHIC observations see
the zero-difference float of the observing receiver (the deputy's is the
chief's minus the single difference), single-differenced carrier phase sees
the single-difference float, and the external range/bearing sensors see the
relative position plus the bias triple ``x[BIASES]``, which goes as it is to
``range_model`` and ``bearing_model``.  An epoch's GPS observations are
aligned to its ascending ``gps_ids``; ``measurement_update`` builds every
GPS row in one ``_gps_rows`` call (the GRAPHIC rows of each receiver, then
the SDCP rows) as arrays over the rows of the ids that hold a slot, from one
id -> slot map of ``channel_ids``.  Every carrier is L1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ARCSEC, L1_WAVELENGTH
from .iar import success_rate
from .measurements import (
    MeasurementEpoch,
    bearing_model,
    range_model,
    sensor_jacobian,
    transform_jacobian,
)
from .orbits import OrbitState, propagate, row_norm

__all__ = [
    "N_STATES",
    "N_CHANNELS",
    "CHIEF_POS", "CHIEF_VEL", "CHIEF_ACC", "CHIEF_CLOCK",
    "DEPUTY_POS", "DEPUTY_VEL", "DEPUTY_ACC", "DEPUTY_CLOCK",
    "AMB_ZD", "AMB_SD", "BIASES",
    "FilterState",
    "FilterTuning",
    "UpdateReport",
    "DareResult",
    "initialize_filter",
    "allocate_channels",
    "time_update",
    "measurement_update",
    "apply_fixes",
    "constrain_linear",
    "dare_steady_state",
]

N_STATES = 71
N_CHANNELS = 24

CHIEF_POS = slice(0, 3)
CHIEF_VEL = slice(3, 6)
CHIEF_ACC = slice(6, 9)
CHIEF_CLOCK = 9
DEPUTY_POS = slice(10, 13)
DEPUTY_VEL = slice(13, 16)
DEPUTY_ACC = slice(16, 19)
DEPUTY_CLOCK = 19
AMB_ZD = slice(20, 44)
AMB_SD = slice(44, 68)
BIASES = slice(68, 71)

# Process-noise sigmas are quoted per this step [s].
REFERENCE_STEP = 30.0


@dataclass
class FilterTuning:
    """Every knob of the filter, with LEO-scenario defaults.

    Process-noise sigmas are quoted per ``REFERENCE_STEP``; the applied
    variance scales linearly with the actual step length.  The clocks are
    random walks, as the world makes them; the empirical accelerations are
    first-order Gauss-Markov with a 900 s constant.
    """

    # Initial standard deviations
    init_pos: float = 1000.0            # m
    init_vel: float = 1.0               # m/s
    init_accel: tuple = (1.0e-6, 2.0e-6, 0.75e-6)  # m/s^2 (RTN)
    init_clock: float = 100.0           # m
    init_amb: float = 1000.0            # cycles
    init_range_bias: float = 0.1        # m
    init_angle_bias: float = 1000.0 * ARCSEC  # rad

    # Process noise (1-sigma per reference step)
    proc_pos: float = 1.0e-6            # m
    proc_vel: float = 1.0e-9            # m/s
    proc_accel: tuple = (1.0e-6, 1.0e-6, 0.5e-6)   # m/s^2
    proc_clock: float = 5.0             # m
    proc_amb: float = 0.0316            # cycles

    # Measurement noise (1-sigma)
    meas_code: float = 1.5              # m   (GRAPHIC rows)
    meas_carrier: float = 15.0e-3       # m   (SDCP rows)
    meas_range: float = 5.0e-3          # m
    meas_angle: float = 100.0 * ARCSEC  # rad

    # Autocorrelation time constant
    tau_accel: float = 900.0            # s

    gate_sigma: float = 5.0


@dataclass
class FilterState:
    """Mean, covariance, and channel bookkeeping at one epoch."""

    x: np.ndarray
    covariance: np.ndarray
    epoch: float = 0.0
    channel_ids: np.ndarray = field(
        default_factory=lambda: np.full(N_CHANNELS, -1, dtype=np.int64))
    fixed_mask: np.ndarray = field(
        default_factory=lambda: np.zeros(N_CHANNELS, dtype=bool))
    last_seen: np.ndarray = field(
        default_factory=lambda: np.full(N_CHANNELS, -np.inf))
    # Per slot: (chief, deputy) track ids, 0 for none, and consecutive GPS
    # epochs on that track, 0 for a slot not tracked now.
    track: np.ndarray = field(
        default_factory=lambda: np.zeros((N_CHANNELS, 2), dtype=np.int64))
    age: np.ndarray = field(
        default_factory=lambda: np.zeros(N_CHANNELS, dtype=np.int64))

    def copy(self) -> "FilterState":
        return FilterState(self.x.copy(), self.covariance.copy(), self.epoch,
                           self.channel_ids.copy(), self.fixed_mask.copy(),
                           self.last_seen.copy(), self.track.copy(),
                           self.age.copy())


@dataclass
class UpdateReport:
    """Diagnostics from one joint measurement update."""

    n_rows: int = 0
    n_rejected: int = 0
    innovations: np.ndarray = None
    gate_flags: np.ndarray = None


@dataclass
class DareResult:
    """Steady-state Riccati outcome for the ambiguity variance analysis."""

    diag: np.ndarray
    converged: bool

    def success_probability(self) -> float:
        if not self.converged:
            return 0.0
        return success_rate(np.sqrt(self.diag))


# ---------------------------------------------------------------------------
# Initialization and channel allocation
# ---------------------------------------------------------------------------

def initialize_filter(chief: OrbitState, deputy: OrbitState,
                      tuning: FilterTuning) -> FilterState:
    """Filter state centered on the provided orbit states with the
    configured initial covariance (block diagonal)."""
    x = np.zeros(N_STATES)
    x[CHIEF_POS] = chief.position
    x[CHIEF_VEL] = chief.velocity
    x[DEPUTY_POS] = deputy.position
    x[DEPUTY_VEL] = deputy.velocity

    d = np.zeros(N_STATES)
    for pos, vel, acc, clk in ((CHIEF_POS, CHIEF_VEL, CHIEF_ACC, CHIEF_CLOCK),
                               (DEPUTY_POS, DEPUTY_VEL, DEPUTY_ACC, DEPUTY_CLOCK)):
        d[pos] = tuning.init_pos ** 2
        d[vel] = tuning.init_vel ** 2
        d[acc] = np.square(tuning.init_accel)
        d[clk] = tuning.init_clock ** 2
    d[AMB_ZD] = tuning.init_amb ** 2
    d[AMB_SD] = tuning.init_amb ** 2
    d[BIASES] = [tuning.init_range_bias ** 2,
                 tuning.init_angle_bias ** 2,
                 tuning.init_angle_bias ** 2]
    return FilterState(x=x, covariance=np.diag(d), epoch=chief.epoch)


def _reset_channel(state: FilterState, slot: int, tuning: FilterTuning):
    for idx in (AMB_ZD.start + slot, AMB_SD.start + slot):
        state.x[idx] = 0.0
        state.covariance[idx, :] = 0.0
        state.covariance[:, idx] = 0.0
        state.covariance[idx, idx] = tuning.init_amb ** 2
    state.fixed_mask[slot] = False


def _slot_map(channel_ids) -> dict:
    """GPS id -> ambiguity slot of every allocated channel."""
    return {gid: slot for slot, gid in enumerate(channel_ids.tolist())
            if gid >= 0}


def allocate_channels(state: FilterState, epoch: MeasurementEpoch,
                      tuning: FilterTuning) -> dict:
    """Give every satellite of ``epoch`` an ambiguity slot; returns id -> slot.

    Channels restart, warm-start and age here and nowhere else, reading the
    epoch's rows: ``tracks`` are the receivers' (chief, deputy) lock
    reports.  New satellites take free slots first, then evict the slot
    unseen for the longest time.  A slot restarts at the initialization
    variance, unfixed, when it changes hands or its track changes (a
    re-acquired signal carries a new ambiguity), and its floats are
    warm-started from the epoch's chief GRAPHIC and SDCP.  ``state.age``
    counts consecutive GPS epochs on one track: 1 at a restart, 0 for a
    slot not tracked this epoch.
    """
    gids = epoch.gps_ids
    age = np.zeros_like(state.age)
    # Slots only change hands to ids outside the epoch, so one map taken
    # before the loop holds for every id in it.
    slot_by_id = _slot_map(state.channel_ids)
    mapping = {}
    for i, gid in enumerate(gids):
        track = tuple(epoch.tracks[i])
        slot = slot_by_id.get(gid, -1)
        restart = slot < 0 or tuple(state.track[slot]) != track
        if slot < 0:
            free = np.nonzero(state.channel_ids < 0)[0]
            if free.size:
                slot = int(free[0])
            else:
                candidates = np.nonzero(~np.isin(state.channel_ids, gids))[0]
                if candidates.size == 0:
                    continue  # more satellites than channels; drop extras
                slot = int(candidates[np.argmin(state.last_seen[candidates])])
            state.channel_ids[slot] = gid
        if restart:
            _reset_channel(state, slot, tuning)
            state.track[slot] = track
            # Floats that fit the epoch at the predicted ranges and clocks.
            gp = epoch.gps_positions[i]
            rc = float(np.linalg.norm(gp - state.x[CHIEF_POS]))
            rd = float(np.linalg.norm(gp - state.x[DEPUTY_POS]))
            state.x[AMB_ZD.start + slot] = 2.0 * (
                epoch.graphic["chief"][i] - rc
                - state.x[CHIEF_CLOCK]) / L1_WAVELENGTH
            state.x[AMB_SD.start + slot] = epoch.sdcp[i] - (
                (rc - rd) + (state.x[CHIEF_CLOCK]
                             - state.x[DEPUTY_CLOCK])) / L1_WAVELENGTH
        age[slot] = 1 if restart else state.age[slot] + 1
        state.last_seen[slot] = epoch.time
        mapping[gid] = slot
    state.age = age
    return mapping


# ---------------------------------------------------------------------------
# Time update
# ---------------------------------------------------------------------------

# Central-difference steps of the numerical state transition, per craft:
# position [m], velocity [m/s], RTN empirical acceleration [m/s^2].
_FD_STEPS = np.array([1.0] * 3 + [1.0e-3] * 3 + [1.0e-8] * 3)
# Per craft, the nominal start and then each of its 9 inputs stepped up and
# down; the central differences divide by twice the step.
_FD_OFFSETS = np.zeros((19, 9))
_FD_OFFSETS[1::2] = np.diag(_FD_STEPS)
_FD_OFFSETS[2::2] = -np.diag(_FD_STEPS)
_FD_DENOM = 2.0 * _FD_STEPS[:, None]
# The transition differs from the identity only on the two crafts' states.
_N_DYN = DEPUTY_CLOCK + 1
_CRAFTS = ((CHIEF_POS, CHIEF_VEL, CHIEF_ACC, CHIEF_CLOCK),
           (DEPUTY_POS, DEPUTY_VEL, DEPUTY_ACC, DEPUTY_CLOCK))


def time_update(state: FilterState, tuning: FilterTuning, dt) -> FilterState:
    """Propagate mean and covariance by ``dt`` seconds.

    Both orbits integrate through ``orbits.propagate``, the integrator that
    makes truth, with the empirical acceleration states applied in the craft
    RTN frame and held constant over the step; the acceleration states then
    decay as first-order Gauss-Markov processes, and the random-walk clocks
    keep their means.  The covariance maps through a central-difference
    transition matrix, propagated in the same call as the mean, and gains
    the configured process noise scaled by ``dt / REFERENCE_STEP``; single
    differences flagged fixed receive none, so the double differences a
    full fix made exact stay exact.  The transition is the identity outside
    its leading block ``a`` over the crafts' states, so ``phi P phi^T`` is
    formed as ``a`` applied to the leading rows and then to the leading
    columns.

    Raises
    ------
    ValueError
        If ``dt`` is not positive.
    PropagationError
        If either craft (or a perturbed copy) descends below the surface.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    out = state.copy()
    decay_acc = math.exp(-dt / tuning.tau_accel)

    # One propagation of 38 rows: per craft the nominal start, then each of
    # its 9 inputs (position, velocity and empirical acceleration, which are
    # contiguous in the state) stepped up and down.
    start = np.stack([state.x[pos.start:acc.stop]
                      for pos, _, acc, _ in _CRAFTS])
    rows = (start[:, None, :] + _FD_OFFSETS).reshape(-1, 9)
    end = propagate(OrbitState(rows[:, :3], rows[:, 3:6]), dt, rows[:, 6:])
    ends = np.concatenate([end.position, end.velocity], axis=1).reshape(2, 19, 6)

    a = np.eye(_N_DYN)
    q = np.zeros(N_STATES)
    scale = dt / REFERENCE_STEP
    for (pos, vel, acc, clk), y in zip(_CRAFTS, ends):
        out.x[pos] = y[0, :3]
        out.x[vel] = y[0, 3:]
        out.x[acc] = decay_acc * state.x[acc]
        # Columns: sensitivity of the end position/velocity to the start
        # position, velocity and (held-constant) empirical acceleration.
        a[pos.start:vel.stop, pos.start:acc.stop] = (
            (y[1::2] - y[2::2]) / _FD_DENOM).T
        a[acc, acc] = decay_acc * np.eye(3)
        q[pos] = tuning.proc_pos ** 2 * scale
        q[vel] = tuning.proc_vel ** 2 * scale
        q[acc] = np.square(tuning.proc_accel) * scale
        q[clk] = tuning.proc_clock ** 2 * scale
    amb_q = tuning.proc_amb ** 2 * scale
    q[AMB_ZD] = amb_q
    q[AMB_SD] = amb_q
    q[AMB_SD][state.fixed_mask] = 0.0
    # Biases are constant instrument properties: no process noise.

    cov = out.covariance
    cov[:_N_DYN] = a @ cov[:_N_DYN]
    cov[:, :_N_DYN] = cov[:, :_N_DYN] @ a.T
    cov.flat[::N_STATES + 1] += q
    out.covariance = 0.5 * (cov + cov.T)
    out.epoch = state.epoch + dt
    return out


# ---------------------------------------------------------------------------
# Measurement update
# ---------------------------------------------------------------------------

def _gps_rows(x, gps_pos, slots):
    """Predictions [m] and Jacobian rows of an epoch's GPS observations.

    Three blocks of k rows each, in this order: chief GRAPHIC, deputy
    GRAPHIC, single-differenced carrier phase.  Row i of each block
    observes the satellite at ``gps_pos[i]`` (ECI, (k, 3)) whose
    ambiguities sit in channel ``slots[i]``.
    """
    k = len(slots)
    rows = np.arange(k)
    zd = AMB_ZD.start + slots
    sd = AMB_SD.start + slots
    los_c, rng_c = _unit_los(gps_pos, x[CHIEF_POS])
    los_d, rng_d = _unit_los(gps_pos, x[DEPUTY_POS])
    half = 0.5 * L1_WAVELENGTH
    h = np.zeros((3, k, N_STATES))
    chief, deputy, sdcp = h
    chief[:, CHIEF_POS] = -los_c
    chief[:, CHIEF_CLOCK] = 1.0
    chief[rows, zd] = half
    # Deputy zero-difference float = chief ZD minus the single difference.
    deputy[:, DEPUTY_POS] = -los_d
    deputy[:, DEPUTY_CLOCK] = 1.0
    deputy[rows, zd] = half
    deputy[rows, sd] = -half
    sdcp[:, CHIEF_POS] = -los_c
    sdcp[:, DEPUTY_POS] = los_d
    sdcp[:, CHIEF_CLOCK] = 1.0
    sdcp[:, DEPUTY_CLOCK] = -1.0
    sdcp[rows, sd] = L1_WAVELENGTH
    pred = np.concatenate([
        rng_c + x[CHIEF_CLOCK] + half * x[zd],
        rng_d + x[DEPUTY_CLOCK] + half * (x[zd] - x[sd]),
        (rng_c - rng_d) + (x[CHIEF_CLOCK] - x[DEPUTY_CLOCK])
        + L1_WAVELENGTH * x[sd]])
    return pred, h.reshape(3 * k, N_STATES)


def _unit_los(gps_pos, rx):
    """Unit lines of sight from ``rx`` to each of ``gps_pos``, and ranges."""
    los = gps_pos - rx
    rng = row_norm(los)
    return los / rng, rng[:, 0]


def _external_rows(state, attitude):
    """Predictions and Jacobian rows for (range, azimuth, elevation).

    The sensors ride on the deputy (chaser) and observe the chief (target),
    so the modeled vector is chief-minus-deputy in the sensor frame.
    """
    rho = np.asarray(attitude) @ (state.x[CHIEF_POS] - state.x[DEPUTY_POS])
    rng = range_model(rho, state.x[BIASES])
    az, el = bearing_model(rho, state.x[BIASES])
    h_sensor = sensor_jacobian(rho)
    h_eci = transform_jacobian(h_sensor, attitude)
    rows = np.zeros((3, N_STATES))
    rows[:, CHIEF_POS] = h_eci
    rows[:, DEPUTY_POS] = -h_eci
    for i in range(3):
        rows[i, BIASES.start + i] = 1.0
    return np.array([rng, az, el]), rows


def measurement_update(state: FilterState, epoch: MeasurementEpoch,
                       tuning: FilterTuning, use_external=True):
    """Joint EKF update over every observation in the epoch.

    A GPS id enters only with an ambiguity slot; its rows read the epoch's
    aligned fields at the id's row.  Rows come in blocks, in this order:
    the chief GRAPHIC block, the deputy GRAPHIC block, the SDCP block, then
    range and bearing, which enter only with ``use_external``.  The GPS
    blocks are built as arrays in one ``_gps_rows`` call from the slot
    indices of their satellites, in ``gps_ids`` order, and their variances
    are the floor plus the epoch's ``extra_variance`` column.  Innovations
    failing the scalar gate are excluded from the joint solve and flagged in
    the report.  Returns ``(new_state, UpdateReport)``.
    """
    slot_by_id = _slot_map(state.channel_ids)
    blocks = []   # (predictions, Jacobian rows, observations, variances)
    held = [i for i, gid in enumerate(epoch.gps_ids) if gid in slot_by_id]
    if held:
        slots = np.array([slot_by_id[epoch.gps_ids[i]] for i in held])
        floor = np.array([tuning.meas_code ** 2, tuning.meas_code ** 2,
                          tuning.meas_carrier ** 2])
        blocks.append((*_gps_rows(state.x, epoch.gps_positions[held], slots),
                       np.concatenate([
                           np.asarray(epoch.graphic["chief"])[held],
                           np.asarray(epoch.graphic["deputy"])[held],
                           L1_WAVELENGTH * np.asarray(epoch.sdcp)[held]]),
                       (floor + epoch.extra_variance[held]).T.ravel()))

    want_range = use_external and epoch.range_obs is not None
    want_bearing = use_external and epoch.bearing_obs is not None
    if want_range or want_bearing:
        ext_pred, ext_rows = _external_rows(state, epoch.attitude)
        if want_range:
            blocks.append((ext_pred[:1], ext_rows[:1], [epoch.range_obs],
                           [tuning.meas_range ** 2]))
        if want_bearing:
            blocks.append((ext_pred[1:], ext_rows[1:], epoch.bearing_obs,
                           [tuning.meas_angle ** 2] * 2))

    if not blocks:
        return state.copy(), UpdateReport()

    pred_all, h_all, obs_all, r_all = (np.concatenate(b) for b in zip(*blocks))
    innov_all = obs_all - pred_all

    # Scalar innovation gate per row.
    p = state.covariance
    s_diag = np.sum((h_all @ p) * h_all, axis=1) + r_all
    gate = np.abs(innov_all) <= tuning.gate_sigma * np.sqrt(s_diag)

    report = UpdateReport(
        n_rows=len(r_all), n_rejected=int(np.sum(~gate)),
        innovations=innov_all, gate_flags=gate)
    if not np.any(gate):
        return state.copy(), report

    out = state.copy()
    out.x, out.covariance = _joint_update(state.x, p, h_all[gate],
                                          innov_all[gate], r_all[gate])
    return out, report


def _joint_update(x, p, h, innov, r_diag):
    """Joseph-form Kalman update with diagonal measurement noise."""
    s = h @ p @ h.T
    s.flat[::len(r_diag) + 1] += r_diag
    k = np.linalg.solve(s.T, (p @ h.T).T).T
    ikh = np.eye(len(x)) - k @ h
    cov = ikh @ p @ ikh.T + (k * r_diag) @ k.T
    return x + k @ innov, 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# Integer fix application
# ---------------------------------------------------------------------------

def apply_fixes(state: FilterState, slots) -> FilterState:
    """Flag single-difference channels as fixed.

    The caller has already made the channels' double differences exact with
    ``constrain_linear``; no single difference has to be an integer.  A flagged
    channel gets no ambiguity process noise and serves as a known reference in
    later fix attempts, until ``allocate_channels`` restarts it.

    Raises
    ------
    ValueError
        If any slot is already fixed.
    """
    slots = np.asarray(slots, dtype=np.int64)
    if np.any(state.fixed_mask[slots]):
        raise ValueError("channel already fixed")
    out = state.copy()
    out.fixed_mask[slots] = True
    return out


def constrain_linear(state: FilterState, rows, values) -> FilterState:
    """Condition the state on exact linear constraints ``rows @ x = values``.

    This is the zero-noise Joseph-form update (``_joint_update``) with a
    guard measurement variance of 1e-15 max(trace(rows P rows^T), 1) per row,
    so that an already exact constraint stays invertible.  Every accepted
    integer fix, full or partial, enters the filter here: its rows are the
    accepted decorrelated double-difference combinations over the
    single-difference slots.
    """
    h = np.atleast_2d(np.asarray(rows, dtype=float))
    v = np.atleast_1d(np.asarray(values, dtype=float))
    p = state.covariance
    guard = 1e-15 * max(np.trace(h @ p @ h.T), 1.0)
    out = state.copy()
    out.x, out.covariance = _joint_update(state.x, p, h, v - h @ state.x,
                                          np.full(len(v), guard))
    return out


# ---------------------------------------------------------------------------
# Steady-state Riccati analysis
# ---------------------------------------------------------------------------

def dare_steady_state(process_noise_q, meas_noise_r, n=10) -> DareResult:
    """Steady-state ambiguity variances of the discrete Riccati recursion.

    The float-ambiguity channel model is static (A = I) with per-step
    process noise ``q`` [cycles^2], and each of the ``n`` channels is
    observed on its own through the L1 wavelength (C = lambda * I) with
    measurement variance ``r`` [m^2].  The channels decouple, and each
    predicted variance settles at the positive root of
    ``v^2 - q v - q r / lambda^2 = 0``:
    ``v = q/2 + sqrt(q^2/4 + q r / lambda^2)``.

    Returns
    -------
    DareResult
        ``diag`` holds the ``n`` steady-state variances [cycles^2].
    """
    q = float(process_noise_q)
    r = float(meas_noise_r)
    if q < 0.0 or r <= 0.0:
        raise ValueError("need q >= 0 and r > 0")
    lam = L1_WAVELENGTH
    v = 0.5 * q + math.sqrt(0.25 * q * q + q * r / (lam * lam))
    return DareResult(diag=np.full(n, v), converged=True)

