"""Extended Kalman filter for two-spacecraft relative navigation.

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
relative position plus their biases.  ``measurement_update`` builds the
GPS rows a block at a time (the GRAPHIC rows of each receiver, then the SDCP
rows) as arrays, from one id -> slot map of ``channel_ids``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ARCSEC, L1_WAVELENGTH
from .iar import success_rate
from .measurements import (
    MeasurementEpoch,
    SensorBiases,
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
    "navigation_metrics",
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


@dataclass
class FilterTuning:
    """Every knob of the filter, with LEO-scenario defaults.

    Process-noise sigmas are quoted per reference step (30 s); the applied
    variance scales linearly with the actual step length.  The clock time
    constant defaults to infinity (pure random walk); the empirical
    accelerations are first-order Gauss-Markov with a 900 s constant.
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

    # Autocorrelation time constants
    tau_accel: float = 900.0            # s
    tau_clock: float = math.inf         # s (infinite: random walk)

    gate_sigma: float = 5.0
    reference_step: float = 30.0        # s
    wavelength: float = L1_WAVELENGTH

    @classmethod
    def leo(cls) -> "FilterTuning":
        return cls()

    @classmethod
    def geo(cls) -> "FilterTuning":
        return cls(meas_code=2.65, meas_carrier=20.0e-3)


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

    @property
    def chief(self) -> OrbitState:
        return OrbitState(self.x[CHIEF_POS], self.x[CHIEF_VEL], self.epoch)

    @property
    def deputy(self) -> OrbitState:
        return OrbitState(self.x[DEPUTY_POS], self.x[DEPUTY_VEL], self.epoch)

    @property
    def biases(self) -> SensorBiases:
        b = self.x[BIASES]
        return SensorBiases(b[0], b[1], b[2])


@dataclass
class UpdateReport:
    """Diagnostics from one joint measurement update."""

    n_rows: int = 0
    n_rejected: int = 0
    innovations: np.ndarray = None
    gate_flags: np.ndarray = None
    labels: list = None


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


def allocate_channels(state: FilterState, epoch: MeasurementEpoch, tracks,
                      tuning: FilterTuning) -> dict:
    """Give every satellite in ``tracks`` an ambiguity slot; returns id -> slot.

    Channels restart, warm-start and age here and nowhere else.  ``tracks``
    maps the GPS ids of ``epoch`` to their (chief, deputy) track ids.  New
    satellites take free slots first, then evict the slot unseen for the
    longest time.  A slot restarts at the initialization variance, unfixed,
    when it changes hands or its track changes (a re-acquired signal carries
    a new ambiguity), and its floats are warm-started from the epoch's chief
    GRAPHIC and SDCP.  ``state.age`` counts consecutive GPS epochs on one
    track: 1 at a restart, 0 for a slot not tracked this epoch.
    """
    graphic_c = dict(epoch.graphic.get("chief", []))
    sdcp = dict(epoch.sdcp)
    wavelength = tuning.wavelength
    gids = sorted(tracks)
    age = np.zeros_like(state.age)
    # Slots only change hands to ids outside ``tracks``, so one map taken
    # before the loop holds for every id in it.
    slot_by_id = _slot_map(state.channel_ids)
    mapping = {}
    for gid in gids:
        slot = slot_by_id.get(gid, -1)
        restart = slot < 0 or tuple(state.track[slot]) != tuple(tracks[gid])
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
            state.track[slot] = tracks[gid]
        if restart and gid in graphic_c:
            # Floats that fit the epoch at the predicted ranges and clocks.
            gp = epoch.gps_positions[gid]
            rc = float(np.linalg.norm(gp - state.x[CHIEF_POS]))
            rd = float(np.linalg.norm(gp - state.x[DEPUTY_POS]))
            state.x[AMB_ZD.start + slot] = 2.0 * (
                graphic_c[gid] - rc - state.x[CHIEF_CLOCK]) / wavelength
            state.x[AMB_SD.start + slot] = sdcp[gid] - (
                (rc - rd) + (state.x[CHIEF_CLOCK]
                             - state.x[DEPUTY_CLOCK])) / wavelength
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
    RTN frame and held constant over the step; the acceleration and
    (finite-tau) clock states then decay as first-order Gauss-Markov
    processes.  The covariance maps through a central-difference transition
    matrix, propagated in the same call as the mean, and gains the
    configured process noise; fixed ambiguity channels receive none.  The
    transition is the identity outside its leading block ``a`` over the
    crafts' states, so ``phi P phi^T`` is formed as ``a`` applied to the
    leading rows and then to the leading columns.

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
    decay_clk = math.exp(-dt / tuning.tau_clock) if math.isfinite(tuning.tau_clock) else 1.0

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
    scale = dt / tuning.reference_step
    for (pos, vel, acc, clk), y in zip(_CRAFTS, ends):
        out.x[pos] = y[0, :3]
        out.x[vel] = y[0, 3:]
        out.x[acc] = decay_acc * state.x[acc]
        out.x[clk] = decay_clk * state.x[clk]
        # Columns: sensitivity of the end position/velocity to the start
        # position, velocity and (held-constant) empirical acceleration.
        a[pos.start:vel.stop, pos.start:acc.stop] = (
            (y[1::2] - y[2::2]) / _FD_DENOM).T
        a[acc, acc] = decay_acc * np.eye(3)
        a[clk, clk] = decay_clk
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

def _gps_rows(x, kind, gps_pos, slots, wavelength):
    """Predictions [m] and Jacobian rows of one block of GPS observations.

    ``kind`` is a receiver, "chief" or "deputy", for GRAPHIC rows, or
    "sdcp" for single-differenced carrier phase rows.  Row i observes the
    satellite at ``gps_pos[i]`` (ECI, (k, 3)) whose ambiguities sit in
    channel ``slots[i]``.
    """
    rows = np.arange(len(slots))
    zd = AMB_ZD.start + slots
    sd = AMB_SD.start + slots
    h = np.zeros((len(slots), N_STATES))
    if kind == "sdcp":
        los_c, rng_c = _unit_los(gps_pos, x[CHIEF_POS])
        los_d, rng_d = _unit_los(gps_pos, x[DEPUTY_POS])
        pred = (rng_c - rng_d) + (x[CHIEF_CLOCK] - x[DEPUTY_CLOCK]) \
            + wavelength * x[sd]
        h[:, CHIEF_POS] = -los_c
        h[:, DEPUTY_POS] = los_d
        h[:, CHIEF_CLOCK] = 1.0
        h[:, DEPUTY_CLOCK] = -1.0
        h[rows, sd] = wavelength
        return pred, h
    if kind == "chief":
        pos_sl, clk = CHIEF_POS, CHIEF_CLOCK
    else:
        pos_sl, clk = DEPUTY_POS, DEPUTY_CLOCK
    los, rng = _unit_los(gps_pos, x[pos_sl])
    half = 0.5 * wavelength
    h[:, pos_sl] = -los
    h[:, clk] = 1.0
    h[rows, zd] = half
    if kind == "chief":
        pred = rng + x[clk] + half * x[zd]
    else:
        # Deputy zero-difference float = chief ZD minus the single difference.
        pred = rng + x[clk] + half * (x[zd] - x[sd])
        h[rows, sd] = -half
    return pred, h


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
    b = state.biases
    rng = range_model(rho, b)
    az, el = bearing_model(rho, b)
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

    GRAPHIC and SDCP rows require the epoch to carry broadcast GPS positions
    (``epoch.gps_positions``: gps_id -> ECI position) and an ambiguity slot
    for the satellite.  Rows come in blocks, in this order: the GRAPHIC
    block of each receiver, the SDCP block, then range and bearing, which
    enter only with ``use_external``.  Each GPS block is built as arrays in
    one ``_gps_rows`` call from the slot indices of its satellites, in
    observation order.  Innovations failing the scalar gate are excluded
    from the joint solve and flagged in the report.  Returns
    ``(new_state, UpdateReport)``.
    """
    gps_positions = epoch.gps_positions or {}
    inflation = epoch.noise_inflation or {}
    wavelength = tuning.wavelength
    slot_by_id = _slot_map(state.channel_ids)
    preds, rows, values, variances, labels = [], [], [], [], []

    def add(pred, h, value, variance, names):
        preds.append(pred)
        rows.append(h)
        values.append(np.asarray(value, dtype=float))
        variances.append(variance + np.array(
            [inflation.get(name, 0.0) for name in names]))
        labels.extend(names)

    blocks = list((epoch.graphic or {}).items())
    for receiver, _ in blocks:
        if receiver not in ("chief", "deputy"):
            raise ValueError(f"unknown receiver id {receiver!r}")
    blocks.append(("sdcp", epoch.sdcp or []))
    for kind, obs_list in blocks:
        obs = [(gid, value) for gid, value in obs_list
               if gid in slot_by_id and gid in gps_positions]
        if not obs:
            continue
        gids = [gid for gid, _ in obs]
        slots = np.array([slot_by_id[g] for g in gids])
        pred, h = _gps_rows(state.x, kind,
                            np.array([gps_positions[g] for g in gids]),
                            slots, wavelength)
        value = np.array([v for _, v in obs], dtype=float)
        if kind == "sdcp":
            add(pred, h, wavelength * value, tuning.meas_carrier ** 2,
                [f"sdcp:{g}" for g in gids])
        else:
            add(pred, h, value, tuning.meas_code ** 2,
                [f"graphic:{kind}:{g}" for g in gids])

    want_range = use_external and epoch.range_obs is not None
    want_bearing = use_external and epoch.bearing_obs is not None
    if want_range or want_bearing:
        ext_pred, ext_rows = _external_rows(state, epoch.attitude)
        if want_range:
            add(ext_pred[:1], ext_rows[:1], [epoch.range_obs],
                tuning.meas_range ** 2, ["range"])
        if want_bearing:
            add(ext_pred[1:], ext_rows[1:], epoch.bearing_obs,
                tuning.meas_angle ** 2, ["azimuth", "elevation"])

    if not rows:
        return state.copy(), UpdateReport(labels=[])

    h_all = np.concatenate(rows)
    innov_all = np.concatenate(values) - np.concatenate(preds)
    r_all = np.concatenate(variances)

    # Scalar innovation gate per row.
    p = state.covariance
    s_diag = np.sum((h_all @ p) * h_all, axis=1) + r_all
    gate = np.abs(innov_all) <= tuning.gate_sigma * np.sqrt(s_diag)

    report = UpdateReport(
        n_rows=len(labels), n_rejected=int(np.sum(~gate)),
        innovations=innov_all, gate_flags=gate, labels=labels)
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

def apply_fixes(state: FilterState, indices, values) -> FilterState:
    """Overwrite single-difference channels with resolved integers.

    The fixed entries become exact: their covariance rows and columns are
    zeroed (conditioning with zero residual uncertainty) and the channels
    are flagged so later process noise and re-fix attempts skip them.

    Raises
    ------
    ValueError
        If any index is already fixed.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values)
    if indices.size == 0:
        return state.copy()
    if np.any(state.fixed_mask[indices]):
        raise ValueError("channel already fixed")
    out = state.copy()
    for slot, val in zip(indices, values):
        idx = AMB_SD.start + int(slot)
        out.x[idx] = float(val)
        out.covariance[idx, :] = 0.0
        out.covariance[:, idx] = 0.0
        out.fixed_mask[int(slot)] = True
    return out


def constrain_linear(state: FilterState, rows, values) -> FilterState:
    """Condition the state on exact linear constraints ``rows @ x = values``.

    This is the zero-noise Joseph-form update (``_joint_update``) with a
    guard measurement variance of 1e-15 max(trace(rows P rows^T), 1) per row,
    so that an already exact constraint stays invertible; used to feed
    resolved integer combinations (rows in the decorrelated space) back into
    the full filter without forcing individual channels to integers.
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


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def navigation_metrics(rel_pos_err_rtn, rel_vel_err_rtn, first_fix_index=None,
                       fix_records=None) -> dict:
    """Summary statistics of a run.

    Parameters
    ----------
    rel_pos_err_rtn, rel_vel_err_rtn : (N, 3) arrays
        Estimated-minus-true relative position/velocity in chief RTN.
    first_fix_index : int or None
        Epoch index of the first accepted fix; splits pre/post statistics.
    fix_records : list of (n_fixed, n_wrong)
        One entry per fix event.

    Returns
    -------
    dict with RMS errors (pre/post fix), fix counts, and wrong-fix rate.
    """
    pos = np.atleast_2d(np.asarray(rel_pos_err_rtn, dtype=float))
    vel = np.atleast_2d(np.asarray(rel_vel_err_rtn, dtype=float))

    def rms(block):
        if block.shape[0] == 0:
            return float("nan")
        return float(np.sqrt(np.mean(np.sum(block * block, axis=1))))

    split = pos.shape[0] if first_fix_index is None else int(first_fix_index)
    fix_records = fix_records or []
    total_fixed = sum(nf for nf, _ in fix_records)
    total_wrong = sum(nw for _, nw in fix_records)
    return {
        "rms_pos_pre_fix": rms(pos[:split]),
        "rms_pos_post_fix": rms(pos[split:]),
        "rms_vel_pre_fix": rms(vel[:split]),
        "rms_vel_post_fix": rms(vel[split:]),
        "rms_pos_total": rms(pos),
        "rms_vel_total": rms(vel),
        "n_fix_events": len(fix_records),
        "n_fixed_integers": int(total_fixed),
        "wrong_fix_rate": (total_wrong / total_fixed) if total_fixed else 0.0,
        "first_fix_index": first_fix_index,
    }

