"""GPS observation models, differencing operators, and sensor-frame models.

Carrier phases are stored in cycles everywhere and converted to meters only
inside model evaluations.  The external rangefinder/camera pair shares one
boresight frame: +z is the boresight, azimuth is the asin of the y-component
fraction, elevation the quadrant-aware angle of x against z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import L1_WAVELENGTH

__all__ = [
    "MeasurementEpoch",
    "FrameError",
    "BoresightError",
    "undifferenced_phase",
    "graphic",
    "single_difference",
    "double_difference",
    "sd_to_dd_matrix",
    "range_model",
    "bearing_model",
    "sensor_jacobian",
    "transform_jacobian",
]


class FrameError(ValueError):
    """A rotation matrix failed its orthonormality check."""


class BoresightError(ValueError):
    """Geometry is singular for the requested angle model or Jacobian."""


@dataclass
class MeasurementEpoch:
    """Time-tagged bundle of everything the filter ingests at one epoch.

    The GPS fields are aligned to ``gps_ids``, the ascending ids of the k
    satellites both receivers track: entry i of each belongs to
    ``gps_ids[i]``.  ``graphic`` holds GRAPHIC [m] for the "chief" and the
    "deputy" receiver, ``sdcp`` the chief-minus-deputy carrier phase
    [cycles], ``tracks`` the receivers' (chief, deputy) lock reports (track
    ids), ``gps_positions`` the broadcast ECI positions [m] as (k, 3), and
    ``extra_variance`` (k, 3) the direction-dependent variance [m^2] of the
    chief GRAPHIC, deputy GRAPHIC and SDCP rows (e.g. from a calibrated
    multipath map), added to the filter's floor variances.  An epoch without
    GPS has k = 0.  ``attitude`` rotates ECI vectors into the sensor frame
    at ``time``.
    """

    time: float
    gps_ids: list = field(default_factory=list)
    graphic: dict = field(default_factory=dict)        # "chief"/"deputy" -> [m]
    sdcp: list = field(default_factory=list)           # [cycles]
    tracks: list = field(default_factory=list)         # [(chief, deputy)]
    gps_positions: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 3)))
    extra_variance: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 3)))
    range_obs: float = None                            # m, or None
    bearing_obs: tuple = None                          # (az, el) rad, or None
    attitude: np.ndarray = None                        # 3x3 DCM ECI -> sensor


# ---------------------------------------------------------------------------
# Observables and combinations
# ---------------------------------------------------------------------------

def undifferenced_phase(geom_range, ambiguity, iono=0.0, rx_clock=0.0,
                        gps_clock=0.0, windup=0.0, noise=0.0):
    """Undifferenced L1 carrier phase in cycles.

    ``lambda * phi = R + lambda*N + I + c dt_rx - c dt_gps + W + eps``; the
    clock terms are passed already scaled to meters.  The ionospheric term
    carries its own sign (negative for the carrier advance).

    Parameters
    ----------
    geom_range : float
        Geometric range transmitter-to-receiver [m].
    ambiguity : float
        Integer (or float) cycle ambiguity [cycles].
    iono, rx_clock, gps_clock, windup, noise : float
        Remaining model terms [m].

    Returns
    -------
    float [cycles]
    """
    meters = (geom_range + L1_WAVELENGTH * ambiguity + iono
              + rx_clock - gps_clock + windup + noise)
    return meters / L1_WAVELENGTH


def graphic(pseudorange, phase):
    """GRoup And PHase Ionospheric Correction: half code plus half carrier.

    The first-order ionospheric delay enters the code positively and the
    carrier negatively, so the average is ionosphere-free; it retains the
    geometric range, receiver/transmitter clocks, and half the L1
    wavelength times the ambiguity.

    Parameters
    ----------
    pseudorange : float
        Code pseudorange [m].
    phase : float
        L1 carrier phase [cycles].

    Returns
    -------
    float [m]
    """
    return 0.5 * pseudorange + 0.5 * L1_WAVELENGTH * phase


def single_difference(obs_a, obs_b):
    """Between-receiver difference of one GPS satellite's observable
    (cycles or meters, as given)."""
    return obs_a - obs_b


def double_difference(sd_p, sd_q):
    """Between-satellite difference of two single differences."""
    return sd_p - sd_q


def sd_to_dd_matrix(n_channels):
    """(n_channels - 1, n_channels) matrix ``T`` with ``dd = T @ sd``
    against the last channel, the reference: row i is ``e_i - e_last``.

    With one +1 and one -1 per row, each entry of ``T @ v`` and
    ``T @ P @ T.T`` is one rounded difference, whatever other channels ride
    along.  For iid single differences ``T T^T`` is 2 on the diagonal and 1
    off it.
    """
    eye = np.eye(n_channels)
    return eye[:-1] - eye[-1]


# ---------------------------------------------------------------------------
# External sensor models
# ---------------------------------------------------------------------------

def range_model(rel_pos_sensor_frame, biases=(0.0, 0.0, 0.0)):
    """Measured inter-satellite range: Euclidean norm plus range bias [m].
    ``biases`` is (range [m], azimuth [rad], elevation [rad]), in the order
    of the filter's ``BIASES`` block."""
    rho = np.asarray(rel_pos_sensor_frame, dtype=float)
    r = float(np.linalg.norm(rho))
    if r == 0.0:
        raise BoresightError("range undefined for coincident spacecraft")
    return r + biases[0]


def bearing_model(rel_pos_sensor_frame, biases=(0.0, 0.0, 0.0)):
    """Azimuth/elevation of the chief as seen from the deputy-mounted
    sensor [rad]; ``rel_pos_sensor_frame`` is chief minus deputy.
    ``biases`` is the triple of ``range_model``; its angles are added.

    Azimuth is ``asin(y / range)``; elevation is ``atan2(x, z)``, which is
    quadrant-aware and therefore well defined even behind the boresight
    plane.  Both singularities coincide: a target exactly on the y-axis.

    Returns
    -------
    (float, float)
        azimuth, elevation [rad], biases added.
    """
    rho = np.asarray(rel_pos_sensor_frame, dtype=float)
    x, y, z = rho
    r = float(np.linalg.norm(rho))
    if r == 0.0:
        raise BoresightError("bearing undefined for coincident spacecraft")
    if x == 0.0 and z == 0.0:
        raise BoresightError("elevation singular for a target on the y-axis")
    az = math.asin(max(-1.0, min(1.0, y / r)))
    el = math.atan2(x, z)
    return az + biases[1], el + biases[2]


def sensor_jacobian(rel_pos_sensor_frame):
    """Partials of (range, azimuth, elevation) w.r.t. the sensor-frame
    relative position.

    Rows, with ``R = |rho|`` and ``s = sqrt(x^2 + z^2)``::

        dR/drho  =  (x, y, z) / R
        dAz/drho =  (-x y, x^2 + z^2, -y z) / (R^2 s)
        dEl/drho =  (z, 0, -x) / s^2

    Raises
    ------
    BoresightError
        When the target sits on the y-axis (s = 0) or at the origin.
    """
    rho = np.asarray(rel_pos_sensor_frame, dtype=float)
    x, y, z = rho
    r2 = float(rho @ rho)
    s2 = x * x + z * z
    if r2 == 0.0 or s2 == 0.0:
        raise BoresightError("Jacobian singular at this geometry")
    r = math.sqrt(r2)
    s = math.sqrt(s2)
    return np.array([
        [x / r, y / r, z / r],
        [-x * y / (r2 * s), s2 / (r2 * s), -y * z / (r2 * s)],
        [z / s2, 0.0, -x / s2],
    ])


def transform_jacobian(h_sensor, dcm_eci_to_sensor):
    """Chain a sensor-frame Jacobian through the ECI-to-sensor rotation.

    ``d(obs)/d(r_eci) = H_sensor @ dcm`` for the chief position; negate for
    the deputy (the relative position is chief minus deputy).

    Raises
    ------
    FrameError
        Unless ``dcm`` is 3x3 with every entry of ``dcm @ dcm.T - I``
        within 1e-9.
    """
    dcm = np.asarray(dcm_eci_to_sensor, dtype=float)
    if dcm.shape != (3, 3) or not np.all(
            np.abs(dcm @ dcm.T - np.eye(3)) <= 1e-9):
        raise FrameError("attitude matrix is not orthonormal")
    return np.asarray(h_sensor, dtype=float) @ dcm
