"""Orbit propagation, GPS constellation geometry, visibility, and frames.

One fixed-step RK4 integrator over two-body + J2 dynamics plus an
RTN-resolved empirical acceleration serves truth, the filter mean and the
filter's finite-difference transition.  ``propagate`` advances one state or
stacked (n, 3) rows in one call, and each row's arithmetic is the same as
if it were propagated alone.  The deliberate difference between truth and
filter is confined to the acceleration profiles handed in, which is what
the filter's empirical acceleration states are there to absorb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    GPS_INCLINATION,
    GPS_MAINLOBE_HALFCONE,
    GPS_NUM_PLANES,
    GPS_NUM_SATELLITES,
    GPS_SEMIMAJOR_AXIS,
    GPS_SIDELOBE_HALFCONE,
    ATMOSPHERE_MASK_HEIGHT,
    J2_EARTH,
    MU_EARTH,
    R_EARTH,
)

__all__ = [
    "OrbitState",
    "GpsConstellation",
    "PropagationError",
    "DegenerateFrameError",
    "acceleration",
    "cross",
    "propagate",
    "row_norm",
    "rtn_frame",
    "visibility",
    "kepler_elements_to_state",
    "default_constellation",
]


class PropagationError(RuntimeError):
    """Trajectory left the valid domain (e.g. struck the Earth)."""


class DegenerateFrameError(ValueError):
    """Position and velocity do not span a plane."""


@dataclass
class OrbitState:
    """Inertial translational state of one spacecraft, or of several as
    stacked (..., 3) rows."""

    position: np.ndarray   # ECI, m
    velocity: np.ndarray   # ECI, m/s
    epoch: float = 0.0     # s

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if not (np.all(np.isfinite(self.position)) and np.all(np.isfinite(self.velocity))):
            raise ValueError("state must be finite")


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

# Per-axis constants of the J2 term: x and y scale by (1 - 5 z^2/r^2),
# z by (3 - 5 z^2/r^2).
_J2_AXIS_FACTORS = np.array([1.0, 1.0, 3.0])


def acceleration(position, include_j2=True):
    """Earth's two-body plus (optionally) J2 gravitational acceleration
    [m/s^2] of one position or of stacked (n, 3) rows."""
    r = np.asarray(position, dtype=float)
    rn2 = (r[..., None, :] @ r[..., :, None])[..., 0]
    rn = np.sqrt(rn2)
    a = -MU_EARTH / (rn2 * rn) * r
    if include_j2:
        z2_r2 = r[..., 2:3] * r[..., 2:3] / rn2
        k = -1.5 * MU_EARTH * J2_EARTH * R_EARTH * R_EARTH / (rn2 * rn2 * rn)
        a = a + k * (r * (_J2_AXIS_FACTORS - 5.0 * z2_r2))
    return a


# Component order of each factor in ``cross``: c_i = a_j b_k - a_k b_j.
_CROSS_J = np.array([1, 2, 0])
_CROSS_K = np.array([2, 0, 1])


def cross(a, b):
    """Cross product of 3-vectors or of stacked (..., 3) rows, which
    broadcast.  The component arithmetic is ``np.cross``'s, so the result is
    equal to it bit for bit, without its per-call axis bookkeeping."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a.take(_CROSS_J, axis=-1) * b.take(_CROSS_K, axis=-1)
            - a.take(_CROSS_K, axis=-1) * b.take(_CROSS_J, axis=-1))


def row_norm(v):
    """Euclidean norms of a vector or of stacked (..., 3) rows, kept as
    (..., 1); each equals ``np.linalg.norm`` of that row alone bit for bit."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0])


def rtn_frame(state: OrbitState) -> np.ndarray:
    """DCM rotating ECI vectors into the radial/transverse/normal frame.

    Rows are R-hat (along position), T-hat (completing the triad, along
    velocity for circular orbits), N-hat (along orbital angular momentum).
    Stacked (n, 3) rows give (n, 3, 3) frames, each equal to the frame of
    that row alone.
    """
    r = state.position
    v = state.velocity
    h = cross(r, v)
    hn = row_norm(h)
    rn = row_norm(r)
    if np.any((rn == 0.0) | (hn < 1e-9 * np.maximum(rn * row_norm(v), 1.0))):
        raise DegenerateFrameError("position and velocity are parallel")
    radial = r / rn
    normal = h / hn
    transverse = cross(normal, radial)
    return np.stack([radial, transverse, normal], axis=-2)


def _linalg_norm(v):
    """Euclidean norms of (..., 3) rows, kept as (..., 1): the arithmetic of
    ``np.linalg.norm(v, axis=-1, keepdims=True)`` without its wrapper."""
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))


def _derivative(y, empirical_rtn, include_j2, out):
    """Time derivative of (..., 6) position/velocity rows, written into
    ``out``.  ``empirical_rtn`` is None or the (radial, transverse, normal)
    column slices of the empirical acceleration, each (..., 1), resolved in
    each row's own RTN frame."""
    r = y[..., :3]
    v = y[..., 3:]
    a = acceleration(r, include_j2=include_j2)
    out[..., :3] = v
    if empirical_rtn is None:
        out[..., 3:] = a
        return
    e_r, e_t, e_n = empirical_rtn
    radial = r / _linalg_norm(r)
    h = cross(r, v)
    hn = _linalg_norm(h)
    if not hn.all():
        raise DegenerateFrameError("position and velocity are parallel")
    normal = h / hn
    transverse = cross(normal, radial)
    np.add(a, radial * e_r + transverse * e_t + normal * e_n,
           out=out[..., 3:])


# RK4 substep ceiling [s]; each interval is split evenly into substeps.
MAX_STEP = 10.0


def propagate(state: OrbitState, dt, empirical_accel_rtn=None,
              include_j2=True) -> OrbitState:
    """Advance an orbit state by ``dt`` seconds with fixed-step RK4 in
    substeps of at most ``MAX_STEP``.

    Parameters
    ----------
    state : OrbitState
        One state or stacked (n, 3) position and velocity rows; each row
        gives the same result as propagated on its own.
    dt : float
        Propagation interval [s] (> 0).
    empirical_accel_rtn : array_like, shape (3,) or (n, 3), optional
        Constant empirical acceleration over the interval, per row, resolved
        in the instantaneous RTN frame of the propagated craft [m/s^2].
    include_j2 : bool
        Include the J2 zonal term.

    Raises
    ------
    PropagationError
        If any row descends below the Earth's surface at any substep.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    emp = None
    if empirical_accel_rtn is not None:
        e = np.asarray(empirical_accel_rtn, dtype=float)
        emp = (e[..., 0:1], e[..., 1:2], e[..., 2:3])
    n_steps = max(1, int(math.ceil(dt / MAX_STEP)))
    h = dt / n_steps
    half_h = 0.5 * h
    sixth_h = h / 6.0
    y = np.concatenate([state.position, state.velocity], axis=-1)
    k1, k2, k3, k4 = (np.empty(y.shape) for _ in range(4))
    for _ in range(n_steps):
        _derivative(y, emp, include_j2, k1)
        _derivative(y + half_h * k1, emp, include_j2, k2)
        _derivative(y + half_h * k2, emp, include_j2, k3)
        _derivative(y + h * k3, emp, include_j2, k4)
        y = y + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.any(_linalg_norm(y[..., :3]) < R_EARTH):
            raise PropagationError("trajectory descended below the surface")
    return OrbitState(y[..., :3], y[..., 3:], epoch=state.epoch + dt)


# ---------------------------------------------------------------------------
# GPS constellation
# ---------------------------------------------------------------------------

def _kepler_solve(mean_anomaly, ecc):
    """Newton iteration for the eccentric anomaly, elementwise over arrays;
    each element stops after the step at which its own residual is below
    1e-12 rad."""
    m = np.fmod(mean_anomaly, 2.0 * math.pi)
    e_anom = np.where(ecc < 0.8, m, math.pi)
    active = np.ones(np.shape(e_anom), dtype=bool)
    for _ in range(60):
        f = e_anom - ecc * np.sin(e_anom) - m
        e_anom = np.where(active, e_anom - f / (1.0 - ecc * np.cos(e_anom)),
                          e_anom)
        active &= ~(np.abs(f) < 1e-12)
        if not active.any():
            break
    return e_anom


def kepler_elements_to_state(a, e, inc, raan, argp, mean_anomaly,
                             at_time=0.0) -> OrbitState:
    """Two-body state from classical elements at ``at_time`` seconds past
    the element epoch.  Array elements of shape (n,) give stacked (n, 3)
    position and velocity rows."""
    a, e, inc, raan, argp, mean_anomaly = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (a, e, inc, raan, argp,
                                               mean_anomaly)))
    n = np.sqrt(MU_EARTH / a ** 3)
    m = mean_anomaly + n * at_time
    e_anom = _kepler_solve(m, e)
    cos_e, sin_e = np.cos(e_anom), np.sin(e_anom)
    # Perifocal position/velocity.
    x_p = a * (cos_e - e)
    y_p = a * np.sqrt(1.0 - e * e) * sin_e
    vx_p = -a * n * sin_e / (1.0 - e * cos_e)
    vy_p = a * n * np.sqrt(1.0 - e * e) * cos_e / (1.0 - e * cos_e)

    cr, sr = np.cos(raan), np.sin(raan)
    ci, si = np.cos(inc), np.sin(inc)
    cw, sw = np.cos(argp), np.sin(argp)
    # First two columns of the perifocal-to-inertial rotation.
    p_axis = np.stack([cr * cw - sr * sw * ci, sr * cw + cr * sw * ci,
                       sw * si], axis=-1)
    q_axis = np.stack([-cr * sw - sr * cw * ci, -sr * sw + cr * cw * ci,
                       cw * si], axis=-1)
    pos = p_axis * x_p[..., None] + q_axis * y_p[..., None]
    vel = p_axis * vx_p[..., None] + q_axis * vy_p[..., None]
    return OrbitState(pos, vel, epoch=at_time)


_ELEMENT_KEYS = ("a", "e", "inc", "raan", "argp", "mean_anomaly")


@dataclass
class GpsConstellation:
    """Transmitting constellation: one element set per satellite.

    Each satellite is a dict with keys a, e, inc, raan, argp, mean_anomaly
    (SI units, radians).  Boresights point at nadir.
    """

    satellites: list = field(default_factory=list)

    def state_at(self, sat_index, time) -> OrbitState:
        """State of satellite ``sat_index``; a sequence of indices gives
        stacked (n, 3) position and velocity rows in that order."""
        if np.ndim(sat_index) == 0:
            els = self.satellites[sat_index]
        else:
            els = {k: [self.satellites[s][k] for s in sat_index]
                   for k in _ELEMENT_KEYS}
        return kepler_elements_to_state(*(els[k] for k in _ELEMENT_KEYS),
                                        at_time=time)

    def __len__(self):
        return len(self.satellites)


def default_constellation() -> GpsConstellation:
    """Representative 31-satellite GPS constellation: six 55-degree planes
    with one plane carrying the extra satellite."""
    per_plane = [6, 5, 5, 5, 5, 5]
    assert sum(per_plane) == GPS_NUM_SATELLITES and len(per_plane) == GPS_NUM_PLANES
    sats = []
    for plane, count in enumerate(per_plane):
        raan = 2.0 * math.pi * plane / GPS_NUM_PLANES
        phase_offset = 2.0 * math.pi * plane / (GPS_NUM_PLANES * max(per_plane))
        for slot in range(count):
            sats.append({
                "a": GPS_SEMIMAJOR_AXIS,
                "e": 0.0,
                "inc": GPS_INCLINATION,
                "raan": raan,
                "argp": 0.0,
                "mean_anomaly": 2.0 * math.pi * slot / count + phase_offset,
            })
    return GpsConstellation(satellites=sats)


# ---------------------------------------------------------------------------
# Visibility
# ---------------------------------------------------------------------------

def _segment_occluded(p0, p1, mask_radius):
    """True where the p0-p1 segment (rows of stacked endpoints) pierces the
    masking sphere."""
    d = p1 - p0
    dd = np.sum(d * d, axis=-1)
    t = np.divide(-np.sum(p0 * d, axis=-1), dd, out=np.zeros_like(dd),
                  where=dd != 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = p0 + t[..., None] * d
    return np.linalg.norm(closest, axis=-1) < mask_radius


def _arrival_direction(los_sensor):
    """Azimuth/elevation of arrival directions (rows), tolerant at the
    y-axis."""
    x, y, z = np.moveaxis(los_sensor, -1, 0)
    az = np.arcsin(np.clip(y / np.linalg.norm(los_sensor, axis=-1), -1.0, 1.0))
    el = np.where((x != 0.0) | (z != 0.0), np.arctan2(x, z), 0.0)
    return az, el


def visibility(receiver: OrbitState, gps: OrbitState, mode="mainlobe",
               dcm_eci_to_sensor=None):
    """Line-of-sight and antenna-cone check for receiver/GPS pairs.

    Parameters
    ----------
    receiver, gps : OrbitState
        Both at the same epoch.  Either may hold stacked (n, 3) rows (for
        instance one receiver against every satellite of
        ``GpsConstellation.state_at(indices, t)``); rows broadcast.
    mode : "mainlobe" | "sidelobe"
        Transmit cone: off-boresight angles up to ``GPS_MAINLOBE_HALFCONE``,
        or up to ``GPS_SIDELOBE_HALFCONE`` (which contains the mainlobe).
    dcm_eci_to_sensor : ndarray, optional
        Receiver attitude for expressing the arrival direction, (3, 3) or
        stacked (..., 3, 3) like the receiver rows; identity if omitted.

    Returns
    -------
    (bool, (azimuth, elevation) or None)
        For one pair: the visibility flag and, when visible, the signal
        arrival direction in the receiver sensor frame [rad].  For stacked
        rows: a boolean mask and the (azimuth, elevation) arrays of every
        row, meaningful where the mask is set.
    """
    if mode == "mainlobe":
        halfcone = GPS_MAINLOBE_HALFCONE
    elif mode == "sidelobe":
        halfcone = GPS_SIDELOBE_HALFCONE
    else:
        raise ValueError(f"unknown visibility mode {mode!r}")

    rpos, gpos = receiver.position, gps.position
    mask_radius = R_EARTH + ATMOSPHERE_MASK_HEIGHT
    clear = ~_segment_occluded(rpos, gpos, mask_radius)

    # Off-boresight angle at the transmitter (boresight = nadir).
    to_receiver = rpos - gpos
    boresight = -gpos
    range_ = np.linalg.norm(to_receiver, axis=-1)
    cosang = np.sum(to_receiver * boresight, axis=-1) / (
        range_ * np.linalg.norm(boresight, axis=-1))
    off_boresight = np.arccos(np.clip(cosang, -1.0, 1.0))
    visible = clear & (off_boresight <= halfcone)

    los = -to_receiver / range_[..., None]
    if dcm_eci_to_sensor is not None:
        los = (np.asarray(dcm_eci_to_sensor) @ los[..., None])[..., 0]
    arrival = _arrival_direction(los)
    if np.ndim(visible) == 0:
        return bool(visible), (tuple(map(float, arrival)) if visible else None)
    return visible, arrival
