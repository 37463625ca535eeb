"""Correctness checks computed apart from the program under test.

Each check returns a list of failure messages; an empty list means pass.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.stats import chi2

from cdgps.constants import J2_EARTH, MU_EARTH, R_EARTH

# ---------------------------------------------------------------------------
# Truth orbits: own two-body + J2 integration (DOP853, tight tolerance)
# ---------------------------------------------------------------------------


def _two_body_j2(_t, y):
    r = y[:3]
    rn2 = r @ r
    rn = math.sqrt(rn2)
    z2 = r[2] * r[2] / rn2
    k = -1.5 * MU_EARTH * J2_EARTH * R_EARTH ** 2 / rn ** 5
    acc = -MU_EARTH / rn ** 3 * r + k * r * np.array(
        [1.0 - 5.0 * z2, 1.0 - 5.0 * z2, 3.0 - 5.0 * z2])
    return np.concatenate([y[3:], acc])


def _integrate(y0, times):
    if len(times) == 1:
        return np.atleast_2d(y0)
    sol = solve_ivp(_two_body_j2, (times[0], times[-1]), y0, method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-6)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y.T


def elements_to_state(a, e, inc, raan, argp, mean_anomaly):
    """Position and velocity from classical elements (two-body)."""
    ecc_anom = mean_anomaly
    for _ in range(50):
        ecc_anom -= (ecc_anom - e * math.sin(ecc_anom) - mean_anomaly) / (
            1.0 - e * math.cos(ecc_anom))
    nu = 2.0 * math.atan2(math.sqrt(1.0 + e) * math.sin(ecc_anom / 2.0),
                          math.sqrt(1.0 - e) * math.cos(ecc_anom / 2.0))
    p = a * (1.0 - e * e)
    r_pf = p / (1.0 + e * math.cos(nu)) * np.array([math.cos(nu),
                                                     math.sin(nu), 0.0])
    v_pf = math.sqrt(MU_EARTH / p) * np.array([-math.sin(nu),
                                               e + math.cos(nu), 0.0])

    def rot_z(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    c, s = math.cos(inc), math.sin(inc)
    rot_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    q = rot_z(raan) @ rot_x @ rot_z(argp)
    return q @ r_pf, q @ v_pf


def _rtn_to_eci(pos, vel):
    radial = pos / np.linalg.norm(pos)
    normal = np.cross(pos, vel)
    normal /= np.linalg.norm(normal)
    return np.column_stack([radial, np.cross(normal, radial), normal])


def check_truth(config, truth, tolerance_m):
    """Chief from its elements, deputy from its first sample, burns applied
    as RTN velocity increments; both compared with the program's truth."""
    times = np.asarray(truth.times, dtype=float)
    el = config.chief_elements
    r0, v0 = elements_to_state(el["a"], el["e"], el["inc"], el["raan"],
                               el["argp"], el["mean_anomaly"])
    chief = _integrate(np.concatenate([r0, v0]), times)

    deputy = np.empty((len(times), 6))
    y = np.concatenate([truth.deputy_pos[0], truth.deputy_vel[0]])
    burns = sorted((float(t), np.asarray(dv, dtype=float))
                   for t, dv in config.impulses)
    cuts = [0] + [int(np.searchsorted(times, t)) for t, _ in burns] + [
        len(times) - 1]
    for k, (i0, i1) in enumerate(zip(cuts[:-1], cuts[1:])):
        if k > 0:
            y = y.copy()
            y[3:] += _rtn_to_eci(y[:3], y[3:]) @ burns[k - 1][1]
        deputy[i0:i1 + 1] = _integrate(y, times[i0:i1 + 1])
        y = deputy[i1]

    failures = []
    for name, ref, pos in (("chief", chief, truth.chief_pos),
                           ("deputy", deputy, truth.deputy_pos)):
        err = float(np.max(np.linalg.norm(pos - ref[:, :3], axis=1)))
        if not err <= tolerance_m:
            failures.append(f"truth {name} differs from DOP853 by {err:.4f} m "
                            f"(tolerance {tolerance_m} m)")
    return failures


# ---------------------------------------------------------------------------
# Scenario results
# ---------------------------------------------------------------------------

RMS_CEILING_M = 0.10
NEES_ALPHA = 1e-3


def check_scenario(report):
    """Post-fix accuracy, filter consistency, and clean bookkeeping."""
    s = report.summary
    failures = []
    post, pre = s["rms_pos_post_fix"], s["rms_pos_pre_fix"]
    if not (post is not None and post < RMS_CEILING_M and post < pre):
        failures.append(f"post-fix RMS {post} m not below {RMS_CEILING_M} m "
                        f"and the pre-fix RMS {pre} m")
    if s["n_skipped"] or report.degraded or any(
            e["kind"] in ("epoch-error", "run-aborted") for e in report.events):
        failures.append("an epoch was skipped or the run aborted")
    wrong = [e["time"] for e in report.fix_events if e["wrong"]]
    if wrong:
        failures.append(f"fixes scored wrong at t = {wrong}")

    # NEES of the post-fix relative position against the filter's own RTN
    # sigmas.  For a consistent filter each epoch's NEES is chi-square with 3
    # degrees of freedom; by the union bound the largest of K epochs exceeds
    # the 1 - alpha/K quantile with probability at most alpha, however
    # correlated the epochs are.
    first = s["first_fix_index"]
    recs = report.records[first:] if first is not None else []
    if not recs:
        failures.append("no post-fix epochs")
        return failures
    nees = max(sum((r[f"err_{a}"] / r[f"sigma_{a}"]) ** 2 for a in "rtn")
               for r in recs)
    bound = chi2.isf(NEES_ALPHA / len(recs), 3)
    if not nees <= bound:
        failures.append(f"post-fix NEES {nees:.1f} exceeds the chi2 bound "
                        f"{bound:.1f} over {len(recs)} epochs")
    return failures


# ---------------------------------------------------------------------------
# Integer resolution: enumeration oracle and truth scoring
# ---------------------------------------------------------------------------

# Box half-width per problem size, keeping the box below ~10^5 candidates.
def box_radius(n):
    return 3 if n <= 5 else 2 if n <= 7 else 1


def is_unimodular(z):
    z = np.asarray(z)
    return bool(np.issubdtype(z.dtype, np.integer) and math.isclose(
        abs(float(np.linalg.det(z))), 1.0, abs_tol=1e-6))


class Objective:
    """The searches' objectives in decorrelated space, rebuilt from the
    original floats/covariance, the transform Z and the sensor context."""

    def __init__(self, dist, z_matrix, ctx=None):
        z = np.asarray(z_matrix, dtype=float)
        self.center = z.T @ dist.floats
        self.info = np.linalg.inv(z.T @ dist.covariance @ z)
        self.z_inv_t = np.linalg.inv(z.T)
        self.ctx = ctx

    def __call__(self, cands):
        """Objective of each row of ``cands`` (m, n)."""
        c = np.atleast_2d(np.asarray(cands, dtype=float))
        r = c - self.center
        cost = np.sum((r @ self.info) * r, axis=1)
        ctx = self.ctx
        if ctx is None:
            return cost
        full = np.zeros((c.shape[0], ctx.ddcp_phases.shape[0]))
        full[:, ctx.free_rows] = np.rint(c @ self.z_inv_t.T)
        g = np.asarray(ctx.geometry, dtype=float)
        rhs = ctx.wavelength * (ctx.ddcp_phases - full)
        base = np.linalg.solve(g.T @ g, g.T @ rhs.T).T
        rho = base @ np.asarray(ctx.dcm_eci_to_sensor).T
        rng = np.linalg.norm(rho, axis=1)
        az = np.arcsin(np.clip(rho[:, 1] / rng, -1.0, 1.0))
        el = np.arctan2(rho[:, 0], rho[:, 2])
        w = max(ctx.observed_range, 1e-9)
        return (cost + (ctx.observed_range - rng) ** 2 / ctx.sigma_range ** 2
                + (ctx.observed_azimuth - az) ** 2 / (w * ctx.sigma_azimuth ** 2)
                + (ctx.observed_elevation - el) ** 2
                / (w * ctx.sigma_elevation ** 2))


def _box(center, radius):
    n = len(center)
    offsets = np.indices((2 * radius + 1,) * n).reshape(n, -1).T - radius
    return np.rint(center).astype(np.int64) + offsets


def check_search(objective, best, cost_best, label):
    """The search's best equals the box minimum of the same objective.

    Returns ``(failures, counted)``; the oracle counts only when its argmin
    lies strictly inside the enumerated box."""
    best = np.asarray(best)
    radius = box_radius(best.size)
    cands = _box(objective.center, radius)
    costs = objective(cands)
    i_min = int(np.argmin(costs))
    oracle_min = float(costs[i_min])
    own = float(objective(best)[0])
    tol = 1e-6 * max(1.0, abs(oracle_min))
    failures = []
    if not math.isclose(own, cost_best, rel_tol=1e-6, abs_tol=1e-9):
        failures.append(f"{label}: reported cost {cost_best:.6g} but the "
                        f"objective at its best vector is {own:.6g}")
    counted = bool(np.all(np.abs(cands[i_min] - np.rint(objective.center))
                          < radius))
    if counted and own > oracle_min + tol:
        failures.append(f"{label}: best cost {own:.6g} exceeds the "
                        f"enumerated minimum {oracle_min:.6g}")
    return failures, counted


def check_accepted(z_matrix, true_integers, indices, values, label):
    """Accepted decorrelated integers equal Z^T times the true integers."""
    want = np.asarray(z_matrix).T @ np.asarray(true_integers, dtype=np.int64)
    idx = np.asarray(indices, dtype=np.int64)
    bad = np.nonzero(np.asarray(values) != want[idx])[0]
    if bad.size:
        return [f"{label}: accepted integers at {idx[bad].tolist()} differ "
                "from the truth"]
    return []
