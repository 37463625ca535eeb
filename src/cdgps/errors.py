"""Measurement error generation: link budget, thermal noise, multipath,
receiver clock random walk, broadcast ionosphere, and ephemeris corruption.

The thermal-noise model is a standard coherent DLL/PLL variance family with
noise floors calibrated once against a 45 dB-Hz anchor (0.20 m code, 2.0 mm
carrier); every other carrier-to-noise ratio then follows from the same
formulas.  Multipath is a simplified azimuth/elevation footprint model: a
near-field cos^2 elevation term plus a far-field Gaussian blob centered on
the sensor boresight, which points at the partner spacecraft.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .constants import CA_CHIP_LENGTH, L1_WAVELENGTH, SPEED_OF_LIGHT
from .orbits import OrbitState, cross, row_norm, rtn_frame

__all__ = [
    "LinkBudget",
    "MultipathParams",
    "RoeError",
    "LossOfLockError",
    "free_space_path_loss",
    "carrier_to_noise",
    "thermal_noise_sigmas",
    "pll_thermal_sigma",
    "dll_thermal_sigma",
    "multipath_sigma",
    "multipath_near",
    "multipath_far",
    "clock_random_walk",
    "klobuchar_delay",
    "DEFAULT_KLOBUCHAR_ALPHA",
    "DEFAULT_KLOBUCHAR_BETA",
    "roe_to_rtn",
    "inject_roe_error",
    "calibrate_roe",
    "substream",
]


# Tracking-loop configuration shared by both spacecraft receivers (narrow
# correlator, 25 ms coherent integration); every carrier loop tracks L1.
PLL_BANDWIDTH = 15.0          # Hz
DLL_BANDWIDTH = 0.02          # Hz
DLL_CORRELATOR_SPACING = 0.2  # chips
COHERENT_INTEGRATION = 0.025  # s
TRACKING_THRESHOLD = 15.0     # dB-Hz


class LossOfLockError(RuntimeError):
    """Signal power below the receiver tracking threshold."""


# ---------------------------------------------------------------------------
# Link budget
# ---------------------------------------------------------------------------

@dataclass
class LinkBudget:
    """One column of a space-to-space GPS L1 link budget (dB bookkeeping).

    Losses are stored as negative dB values and summed directly.
    """

    frequency: float = 1575.42              # MHz
    rx_antenna_gain: float = 33.0           # dB
    rx_circuit_loss: float = -1.0           # dB
    rx_polarization_loss: float = -1.0      # dB
    gps_antenna_gain: float = 13.5          # dB
    gps_transmit_power: float = 14.25       # dBW
    gps_transmit_loss: float = -1.25        # dB
    atmospheric_loss: float = -0.10         # dB
    slant_range: float = 20_000.0           # km
    noise_spectral_density: float = -169.919  # dBW/Hz

    @property
    def gps_eirp(self) -> float:
        """Effective isotropic radiated power [dBW]."""
        return self.gps_transmit_power + self.gps_transmit_loss + self.gps_antenna_gain

    @property
    def path_loss(self) -> float:
        return free_space_path_loss(self.slant_range, self.frequency)

    @property
    def carrier_power(self) -> float:
        """Received carrier power C [dBW]: EIRP plus every gain and loss."""
        return (self.gps_eirp + self.rx_antenna_gain + self.rx_circuit_loss
                + self.rx_polarization_loss + self.atmospheric_loss
                + self.path_loss)

    @classmethod
    def leo_mainlobe(cls) -> "LinkBudget":
        """Mainlobe reception across a ~20,000 km slant range."""
        return cls()

    @classmethod
    def geo_sidelobe(cls) -> "LinkBudget":
        """Sidelobe reception from the far side of the constellation."""
        return cls(gps_antenna_gain=-3.0, slant_range=80_000.0)


def free_space_path_loss(range_km, freq_mhz):
    """Free-space path loss, returned as a negative dB quantity.

    Parameters
    ----------
    range_km : float or (n,) array
        Slant range [km].
    freq_mhz : float
        Carrier frequency [MHz].
    """
    if np.any(np.asarray(range_km) <= 0.0) or freq_mhz <= 0.0:
        raise ValueError("range and frequency must be positive")
    wavelength = SPEED_OF_LIGHT / (freq_mhz * 1e6)
    return -20.0 * np.log10(4.0 * math.pi * range_km * 1e3 / wavelength)


def carrier_to_noise(budget: LinkBudget):
    """Carrier-to-noise density ratio C/N0 [dB-Hz]; an array
    ``budget.slant_range`` gives one ratio per range."""
    return budget.carrier_power - budget.noise_spectral_density


# ---------------------------------------------------------------------------
# Thermal noise
# ---------------------------------------------------------------------------

# Calibration anchor: at this C/N0 the total sigmas must equal these values.
_ANCHOR_CN0 = 45.0
_ANCHOR_CODE_SIGMA = 0.20     # m
_ANCHOR_PHASE_SIGMA = 2.0e-3  # m


def dll_thermal_sigma(c_n0_dbhz):
    """Coherent early-late DLL thermal noise (floor-free component) [m] of
    the C/A code loop configured above."""
    cn0 = 10.0 ** (np.asarray(c_n0_dbhz) / 10.0)
    spacing = DLL_CORRELATOR_SPACING
    var = (CA_CHIP_LENGTH ** 2) * (spacing * DLL_BANDWIDTH / (2.0 * cn0)) \
        * (1.0 + 2.0 / ((2.0 - spacing) * COHERENT_INTEGRATION * cn0))
    return np.sqrt(var)


def pll_thermal_sigma(c_n0_dbhz):
    """Costas-loop PLL thermal noise (floor-free component) [m] of the L1
    carrier loop configured above.

    Follows the inverse-square-root carrier-to-noise law: +6 dB on C/N0
    halves the value (asymptotically; the squaring-loss term adds a small
    correction at low C/N0).
    """
    cn0 = 10.0 ** (np.asarray(c_n0_dbhz) / 10.0)
    var = (L1_WAVELENGTH / (2.0 * math.pi)) ** 2 * (PLL_BANDWIDTH / cn0) \
        * (1.0 + 1.0 / (2.0 * COHERENT_INTEGRATION * cn0))
    return np.sqrt(var)


def _noise_floors():
    """Noise floors making the total sigmas hit the anchor exactly."""
    code_component = dll_thermal_sigma(_ANCHOR_CN0)
    phase_component = pll_thermal_sigma(_ANCHOR_CN0)
    floor_code_sq = _ANCHOR_CODE_SIGMA ** 2 - code_component ** 2
    floor_phase_sq = _ANCHOR_PHASE_SIGMA ** 2 - phase_component ** 2
    if floor_code_sq < 0.0 or floor_phase_sq < 0.0:
        raise ValueError("anchor sigmas below the floor-free thermal noise")
    return math.sqrt(floor_code_sq), math.sqrt(floor_phase_sq)


def thermal_noise_sigmas(c_n0_dbhz):
    """Code and L1 carrier thermal noise standard deviations [m].

    Root-sum-square of a fixed receiver noise floor (calibrated once at the
    45 dB-Hz anchor) with the C/N0-dependent tracking-loop thermal noise.
    The floors are calibrated at L1, so the carrier sigma is for the L1
    wavelength only.
    An (n,) array of ratios gives (n,) sigmas; select the locked signals
    first with ``c_n0 >= TRACKING_THRESHOLD``.

    Raises
    ------
    LossOfLockError
        If any ``c_n0_dbhz`` is below the tracking threshold.
    """
    if np.any(np.asarray(c_n0_dbhz) < TRACKING_THRESHOLD):
        worst = float(np.min(c_n0_dbhz))
        raise LossOfLockError(f"C/N0 {worst:.2f} dB-Hz below threshold "
                              f"{TRACKING_THRESHOLD:.2f}")
    floor_code, floor_phase = _noise_floors()
    sigma_code = np.hypot(floor_code, dll_thermal_sigma(c_n0_dbhz))
    sigma_phase = np.hypot(floor_phase, pll_thermal_sigma(c_n0_dbhz))
    return sigma_code, sigma_phase


# ---------------------------------------------------------------------------
# Multipath
# ---------------------------------------------------------------------------

@dataclass
class MultipathParams:
    """Near/far-field multipath footprint parameters.

    The far-field reflector (the partner spacecraft) sits on the sensor
    boresight, azimuth and elevation zero, at ``target_range``;
    ``size_factor`` scales the angular footprint it casts (larger
    reflector, wider footprint).
    """

    amplitude_code: float = 0.0    # m
    amplitude_phase: float = 0.0   # m
    size_factor: float = 1.0       # unitless
    target_range: float = 0.0      # m; 0 disables the far-field term

    def __post_init__(self):
        if self.amplitude_code < 0.0 or self.amplitude_phase < 0.0:
            raise ValueError("multipath amplitudes must be nonnegative")
        if self.size_factor <= 0.0:
            raise ValueError("size factor must be positive")

    def amplitude(self, kind):
        if kind == "code":
            return self.amplitude_code
        if kind == "phase":
            return self.amplitude_phase
        raise ValueError(f"unknown multipath kind {kind!r}")


def multipath_near(amplitude, elevation_q):
    """Near-field term: local-appendage shadowing, elevation-dependent [m]."""
    c = np.cos(elevation_q)
    return amplitude * c * c


def multipath_far(amplitude, size_factor, target_range, query_az, query_el):
    """Far-field term: Gaussian footprint around the boresight, where the
    reflector sits [m].

    Range enters twice: the peak shrinks as ``A/(A R + 1)^2`` with distance,
    and the footprint tightens as ``exp(-(R/S) * (az^2 + el^2))``.
    """
    if target_range <= 0.0:
        return 0.0
    peak = amplitude / (amplitude * target_range + 1.0) ** 2
    return peak * np.exp(-(target_range / size_factor)
                         * (query_az * query_az + query_el * query_el))


def multipath_sigma(params: MultipathParams, query_az, query_el, kind="phase"):
    """Total multipath standard deviation for a signal arriving from the
    queried direction [m]: near-field plus far-field terms.  Array
    directions give one sigma each."""
    a = params.amplitude(kind)
    near = multipath_near(a, query_el)
    far = multipath_far(a, params.size_factor, params.target_range,
                        query_az, query_el)
    return near + far


# ---------------------------------------------------------------------------
# Receiver clock
# ---------------------------------------------------------------------------

def clock_random_walk(state, dt, rng, sigma_per_sqrt_s=1.0):
    """Advance a receiver clock error state [m] by one random-walk step, or
    by one step per entry of an array ``dt`` (returning every new state).

    The increment standard deviation is ``sigma * sqrt(dt)`` so the variance
    grows linearly with elapsed time.  A step array draws its increments in
    one call and sums them in order, so it yields exactly the states of the
    same steps taken one call at a time.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    if sigma_per_sqrt_s == 0.0:
        return state if dt.ndim == 0 else np.full(dt.shape, float(state))
    steps = rng.normal(scale=sigma_per_sqrt_s * np.sqrt(dt))
    if dt.ndim == 0:
        return state + steps
    return np.add.accumulate(np.concatenate(([state], steps)))[1:]


# ---------------------------------------------------------------------------
# Ionosphere (broadcast Klobuchar model)
# ---------------------------------------------------------------------------

# Representative broadcast coefficient set (classic textbook example values).
DEFAULT_KLOBUCHAR_ALPHA = (3.82e-9, 1.49e-8, -1.79e-7, 0.0)
DEFAULT_KLOBUCHAR_BETA = (1.43e5, 0.0, -3.28e5, 1.13e5)

_SC = 1.0 / math.pi  # radians -> semicircles


def klobuchar_delay(receiver_pos, los, time_of_day):
    """Broadcast-model ionospheric group delay along a line of sight [m].

    Standard single-frequency broadcast algorithm with the coefficient sets
    ``DEFAULT_KLOBUCHAR_ALPHA`` and ``DEFAULT_KLOBUCHAR_BETA``: obliquity
    from elevation, pierce-point geomagnetic latitude from receiver
    latitude/azimuth, and a half-cosine diurnal bump over a 5 ns night-time
    floor.  The position is treated as Earth-fixed for the latitude/longitude
    extraction (adequate for an error model whose differential contribution
    cancels downstream).

    ``receiver_pos`` and ``los`` may hold stacked (n, 3) rows (they
    broadcast against each other); the result then has shape (n,).

    Returns a nonnegative delay; apply as +delay on code, -delay on carrier.
    """
    r = np.asarray(receiver_pos, dtype=float)
    u = np.asarray(los, dtype=float)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    rn = np.linalg.norm(r, axis=-1, keepdims=True)
    if np.any(rn == 0.0):
        raise ValueError("receiver position must be nonzero")
    up = r / rn
    # Elevation of the line of sight above the local horizon.
    elev = np.arcsin(np.clip(np.sum(up * u, axis=-1), -1.0, 1.0))
    elev_sc = elev * _SC
    # Local east/north axes for the azimuth of the ray; at a pole any
    # horizontal axis will do.
    east = cross([0.0, 0.0, 1.0], up)
    en = np.linalg.norm(east, axis=-1, keepdims=True)
    east = np.where(en < 1e-12, [1.0, 0.0, 0.0],
                    east / np.where(en < 1e-12, 1.0, en))
    north = cross(up, east)
    azim = np.arctan2(np.sum(u * east, axis=-1), np.sum(u * north, axis=-1))

    lat_sc = np.arcsin(np.clip(up[..., 2], -1.0, 1.0)) * _SC
    lon_sc = np.arctan2(r[..., 1], r[..., 0]) * _SC

    # Earth-centered angle to the pierce point, then its coordinates.
    psi = 0.0137 / (elev_sc + 0.11) - 0.022
    phi_i = np.clip(lat_sc + psi * np.cos(azim), -0.416, 0.416)
    lam_i = lon_sc + psi * np.sin(azim) / np.cos(phi_i * math.pi)
    phi_m = phi_i + 0.064 * np.cos((lam_i - 1.617) * math.pi)

    t = (4.32e4 * lam_i + time_of_day) % 86400.0

    amp = sum(a * phi_m ** n for n, a in enumerate(DEFAULT_KLOBUCHAR_ALPHA))
    per = sum(b * phi_m ** n for n, b in enumerate(DEFAULT_KLOBUCHAR_BETA))
    amp = np.maximum(amp, 0.0)
    per = np.maximum(per, 72_000.0)

    x = 2.0 * math.pi * (t - 50_400.0) / per
    obliquity = 1.0 + 16.0 * (0.53 - elev_sc) ** 3
    bump = np.where(np.abs(x) < 1.57,
                    amp * (1.0 - x * x / 2.0 + x ** 4 / 24.0), 0.0)
    return SPEED_OF_LIGHT * (obliquity * (5.0e-9 + bump))


# ---------------------------------------------------------------------------
# Broadcast ephemeris corruption via relative orbital elements
# ---------------------------------------------------------------------------

@dataclass
class RoeError:
    """Relative-orbital-element corruption of a broadcast ephemeris.

    ``offsets`` is (da, dlambda, dex, dey, dix, diy) — dimensionless
    semimajor-axis fraction, along-track shift, eccentricity vector, and
    inclination vector deltas.  ``da`` must be zero so the injected error is
    purely periodic (no along-track drift).  Stacked (n, 6) offsets give
    one set per satellite.
    """

    offsets: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        if self.offsets.ndim not in (1, 2) or self.offsets.shape[-1] != 6:
            raise ValueError("offsets must be 6-vectors")
        if np.any(self.offsets[..., 0] != 0.0):
            raise ValueError("semimajor-axis offset must be zero (no drift)")


def roe_to_rtn(offsets, semimajor_axis, arg_latitude):
    """First-order near-circular map from ROE offsets to an RTN error [m].

    Radial:      a (da - dex cos u - dey sin u)
    Transverse:  a (-1.5 da u + dl + 2 dex sin u - 2 dey cos u)
    Normal:      a (dix sin u - diy cos u)

    Stacked (n, 6) offsets with (n,) axes and latitudes give (n, 3) rows.
    """
    da, dl, dex, dey, dix, diy = np.moveaxis(
        np.asarray(offsets, dtype=float), -1, 0)
    u = np.asarray(arg_latitude, dtype=float)
    a = np.asarray(semimajor_axis, dtype=float)
    cos_u, sin_u = np.cos(u), np.sin(u)
    radial = da - dex * cos_u - dey * sin_u
    transverse = -1.5 * da * u + dl + 2.0 * dex * sin_u - 2.0 * dey * cos_u
    normal = dix * sin_u - diy * cos_u
    return a[..., None] * np.stack([radial, transverse, normal], axis=-1)


def calibrate_roe(target_rms, semimajor_axis) -> RoeError:
    """Choose drift-free ROE offsets whose orbit-averaged RMS position error
    equals ``target_rms``.

    With equal weight s on (dl, dex, dey, dix, diy), the mean-square error
    over one orbit is a^2 s^2 (1 + 2.5*2 + 0.5*2) = 7 a^2 s^2.  An (n,)
    array of semimajor axes gives stacked (n, 6) offsets.
    """
    s = target_rms / (np.asarray(semimajor_axis, dtype=float) * math.sqrt(7.0))
    return RoeError(offsets=np.stack([np.zeros_like(s)] + [s] * 5, axis=-1))


def inject_roe_error(position, velocity, roe: RoeError):
    """Corrupt an ECI ephemeris position by the mapped ROE error [m].

    The argument of latitude and ``rtn_frame`` axes are derived from the
    true position/velocity; the mapped RTN error is rotated into ECI and
    added.  Stacked (n, 3) positions and velocities take stacked (n, 6)
    offsets (or one set shared by every row) and give (n, 3) rows.
    """
    r = np.asarray(position, dtype=float)
    radial, transverse, normal = np.moveaxis(
        rtn_frame(OrbitState(r, velocity)), -2, 0)
    # Argument of latitude from the ascending node direction; an equatorial
    # orbit measures it from the x axis.
    node = cross([0.0, 0.0, 1.0], normal)
    nn = row_norm(node)
    node = np.where(nn < 1e-12, [1.0, 0.0, 0.0],
                    node / np.where(nn < 1e-12, 1.0, nn))
    cos_u = np.sum(node * radial, axis=-1)
    sin_u = np.sum(cross(node, radial) * normal, axis=-1)
    u = np.arctan2(sin_u, cos_u)

    # Semimajor axis from the vis-viva relation (mu from h and r would need
    # more state; near-circular GPS orbits make |r| an adequate proxy).
    a = row_norm(r)[..., 0]
    err = roe_to_rtn(roe.offsets, a, u)
    return r + (radial * err[..., 0:1] + transverse * err[..., 1:2]
                + normal * err[..., 2:3])


# ---------------------------------------------------------------------------
# Reproducible substreams
# ---------------------------------------------------------------------------

def substream(seed, name):
    """Independent, named, deterministic random generator.

    All stochastic error models in a scenario draw from substreams of one
    seed so that runs are bit-reproducible and models are decoupled (adding
    draws to one model never shifts another's sequence).
    """
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
