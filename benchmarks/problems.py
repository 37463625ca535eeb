"""Seeded double-difference ambiguity problems for the ``iar-resolve`` workload.

Each problem mimics one integer-fix attempt of the paper's pipeline: two
spacecraft about 1 km apart, ``n`` double-difference (DD) carrier-phase
ambiguities formed against the highest-elevation satellite, a float
ambiguity solution with its covariance, the DD carrier phases, and a
range/bearing observation of the chief from the deputy's docking sensor.
The true integers are known, so every accepted integer can be scored.

Model (all draws from one ``numpy.random.Generator`` per problem):

* Geometry: ``ROWS + 1`` lines of sight with azimuth uniform and elevation
  between 10 and 90 degrees above the local horizon.  This sky pattern
  comes from ``SKY_SEED`` and the problem's slot in the set, not from the
  workload seed, so every seed sees the same mix of geometries (which set
  the achievable accuracy and much of the search effort); the seed turns
  the pattern to a random zenith and azimuth.
  DD rows are ``los_ref - los_g`` (the convention of ``cdgps.scenario``).
  The first ``n`` rows are searched; the other ``ROWS - n`` rows stand for
  channels fixed earlier in the run, with their integers already removed
  from the phases (the shape of every fix after the first in a scenario).
* Baseline ``b = chief - deputy``: uniform direction, length 950-1050 m.
* DD phases [cycles]: ``G b / lambda + N + e`` with single-difference
  phase noise ``PHASE_SIGMA_M`` per channel, so ``e`` has covariance
  ``s^2 (I + 1 1^T)``.
* Float ambiguities: covariance ``(sb / lambda)^2 G G^T + a^2 (I + 1 1^T)``
  with ``a = AMB_SIGMA`` cycles and ``sb`` scaled so the RMS DD float sigma
  equals a target in 0.1-0.6 cycles (the scenario's first fix shows
  0.26-0.61).  The float error is drawn at ``FLOAT_ERROR_SCALE`` times that
  sigma: the scenario filter is conservative (post-fix z^2 of 0.3-0.9 per
  axis), and at 0.7 today's ``partial_resolve`` accepts a wrong integer on
  some seeds, which would make the truth check depend on the seed.
* Sensor: range noise 5 mm and angle noise 100 arcsec (the defaults of
  ``cdgps.scenario.SensorConfig``).  The constraint sigmas add the baseline
  blur of the DD phase noise, as ``cdgps.scenario`` does.
"""

import math
from dataclasses import dataclass

import numpy as np

from cdgps.constants import ARCSEC, L1_WAVELENGTH
from cdgps.iar import AmbiguityDistribution, ConstraintContext

# One group: every size 2..9 once, plus eight first-fix-sized problems.
GROUP_SIZES = (2, 3, 4, 5, 6, 7, 8, 9) + (10,) * 8
GROUPS = 3
ROWS = 10
PHASE_SIGMA_M = 0.010
AMB_SIGMA = 0.07
FLOAT_SIGMA_RANGE = (0.1, 0.6)
FLOAT_ERROR_SCALE = 0.4
RANGE_NOISE_M = 0.005
ANGLE_NOISE_RAD = 100.0 * ARCSEC
MIN_ELEVATION = math.radians(10.0)
SKY_SEED = 0


@dataclass
class Problem:
    """One DD ambiguity problem with its ground truth."""

    dist: AmbiguityDistribution     # float DD ambiguities, original space
    ctx: ConstraintContext
    true_integers: np.ndarray       # (n,) DD integers
    baseline: np.ndarray            # (3,) true chief - deputy [m]


def _unit(v):
    return v / np.linalg.norm(v)


def _frame_toward(z_axis, rng):
    """DCM (rows) with +z along ``z_axis`` and a random transverse +x."""
    z = _unit(z_axis)
    x = _unit(np.cross(rng.normal(size=3), z))
    return np.vstack([x, np.cross(z, x), z])


def sky_pattern(slot):
    """Azimuths and elevations [rad] of the ``ROWS + 1`` satellites."""
    rng = np.random.default_rng([SKY_SEED, slot])
    az = rng.uniform(0.0, 2.0 * math.pi, size=ROWS + 1)
    el = np.arcsin(rng.uniform(math.sin(MIN_ELEVATION), 1.0, size=ROWS + 1))
    return az, el


def make_problem(rng, n, target, sky) -> Problem:
    """Problem with ``n`` searched ambiguities, RMS float sigma ``target``
    [cycles] and sky pattern ``sky`` = (azimuths, elevations)."""
    lam = L1_WAVELENGTH
    zenith_frame = _frame_toward(rng.normal(size=3), rng)
    az, el = sky
    az = az + rng.uniform(0.0, 2.0 * math.pi)
    local = np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                             np.sin(el)])
    los = local @ zenith_frame          # rows back into the inertial frame
    ref = int(np.argmax(el))
    others = [g for g in range(ROWS + 1) if g != ref]
    geometry = los[ref] - los[others]

    baseline = _unit(rng.normal(size=3)) * rng.uniform(950.0, 1050.0)
    true_n = rng.integers(-100_000, 100_001, size=n)
    dd_noise_cov = (PHASE_SIGMA_M / lam) ** 2 * (np.eye(ROWS)
                                                 + np.ones((ROWS, ROWS)))
    phases = (geometry @ baseline / lam
              + rng.multivariate_normal(np.zeros(ROWS), dd_noise_cov))
    phases[:n] += true_n

    shape = geometry[:n] @ geometry[:n].T / lam ** 2
    floor = AMB_SIGMA ** 2 * (np.eye(n) + np.ones((n, n)))
    scale = max(target ** 2 - 2.0 * AMB_SIGMA ** 2, 0.0) / np.mean(
        np.diag(shape))
    cov = scale * shape + floor
    cov = 0.5 * (cov + cov.T)
    floats = true_n + FLOAT_ERROR_SCALE * (
        np.linalg.cholesky(cov) @ rng.normal(size=n))

    # Baseline blur of the DD phase noise, split into range and angle parts.
    h = lam * np.linalg.solve(geometry.T @ geometry, geometry.T)
    cov_b = h @ dd_noise_cov @ h.T
    u = _unit(baseline)
    var_rng = float(u @ cov_b @ u)
    var_ang = 0.5 * max(float(np.trace(cov_b)) - var_rng, 0.0) / (
        baseline @ baseline)
    dcm = _frame_toward(baseline, rng)  # docking-sensor boresight at the chief
    ctx = ConstraintContext(
        observed_range=float(np.linalg.norm(baseline))
        + rng.normal(scale=RANGE_NOISE_M),
        observed_azimuth=float(rng.normal(scale=ANGLE_NOISE_RAD)),
        observed_elevation=float(rng.normal(scale=ANGLE_NOISE_RAD)),
        sigma_range=math.sqrt(RANGE_NOISE_M ** 2 + var_rng),
        sigma_azimuth=math.sqrt(ANGLE_NOISE_RAD ** 2 + var_ang),
        sigma_elevation=math.sqrt(ANGLE_NOISE_RAD ** 2 + var_ang),
        geometry=geometry,
        ddcp_phases=phases,
        dcm_eci_to_sensor=dcm,
        wavelength=lam,
        free_rows=np.arange(n))
    return Problem(AmbiguityDistribution(floats=floats, covariance=cov), ctx,
                   true_n, baseline)


def make_problem_set(seed, groups=GROUPS):
    """``groups`` copies of the size mix, each problem from its own stream.

    Within a group the float sigmas are evenly spaced over
    ``FLOAT_SIGMA_RANGE`` for the first-fix problems and for the smaller
    ones (rotated by group, so size and sigma do not pair the same way in
    every group); only orientation, baseline, integers and noise follow
    the seed."""
    spread = np.linspace(*FLOAT_SIGMA_RANGE, 8)
    problems = []
    for g in range(groups):
        targets = np.concatenate([np.roll(spread, g), spread])
        for j, (n, target) in enumerate(zip(GROUP_SIZES, targets)):
            slot = g * len(GROUP_SIZES) + j
            problems.append(make_problem(np.random.default_rng([seed, slot]),
                                         n, float(target), sky_pattern(slot)))
    return problems
