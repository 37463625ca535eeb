"""Integer ambiguity resolution pinned bit for bit against a committed
snapshot.

Twenty-four seeded double-difference (DD) problems with n = 2..10 searched
ambiguities are built below, each on ten DD rows whose remaining integers
are already known (the shape of every fix after the first in a scenario
run).  Each is decorrelated, solved with ``classical_ils_search`` and with
``constrained_search``, and both results go through ``partial_resolve``.
The snapshot keeps every integer outcome and the ``float.hex`` of every
float, so a change to the search's arithmetic must show here unless it
keeps every bit.  Problems cycle through range and bearing, range only,
bearing only, and no sensor, so each branch of the penalty is covered.
A second test scores the integers each path accepts against the truth.

The floats are exact on the platform that wrote the snapshot (x86-64,
NumPy with OpenBLAS); another BLAS may round the factorizations
differently.  Regenerate (only when the numbers change on purpose) with

    PYTHONPATH=src python tests/test_iar_snapshot.py
"""

import json
import math
from pathlib import Path

import numpy as np

from cdgps.constants import ARCSEC, L1_WAVELENGTH
from cdgps.iar import (
    AmbiguityDistribution,
    ConstraintContext,
    classical_ils_search,
    constrained_search,
    decorrelate,
    partial_resolve,
)

DATA = Path(__file__).parent / "data" / "iar_snapshot.json"
SEED = 2024
SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 10) * 2 + (10,) * 6
ROWS = 10
SENSORS = ((True, True), (True, False), (False, True), (False, False))
PHASE_SIGMA_M = 0.010
AMB_SIGMA = 0.07
RANGE_NOISE_M = 0.005
ANGLE_NOISE_RAD = 100.0 * ARCSEC


def _unit(v):
    return v / np.linalg.norm(v)


def make_problem(rng, n, sensors):
    """Float DD ambiguities over the first ``n`` of ``ROWS`` rows, with
    their phases, a noisy range/bearing observation of the baseline, and
    the true integers."""
    lam = L1_WAVELENGTH
    az = rng.uniform(0.0, 2.0 * math.pi, size=ROWS + 1)
    el = np.arcsin(rng.uniform(math.sin(math.radians(10.0)), 1.0,
                               size=ROWS + 1))
    los = np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                           np.sin(el)])
    ref = int(np.argmax(el))
    geometry = los[ref] - np.delete(los, ref, axis=0)

    baseline = _unit(rng.normal(size=3)) * rng.uniform(950.0, 1050.0)
    true_n = rng.integers(-100_000, 100_001, size=n)
    noise = PHASE_SIGMA_M / lam * (rng.normal(size=ROWS) + rng.normal())
    phases = geometry @ baseline / lam + noise
    phases[:n] += true_n

    target = rng.uniform(0.1, 0.6)   # RMS float sigma [cycles]
    shape = geometry[:n] @ geometry[:n].T / lam ** 2
    floor = AMB_SIGMA ** 2 * (np.eye(n) + np.ones((n, n)))
    scale = max(target ** 2 - 2.0 * AMB_SIGMA ** 2, 0.0) / np.mean(
        np.diag(shape))
    cov = scale * shape + floor
    cov = 0.5 * (cov + cov.T)
    floats = true_n + rng.uniform(1.0, 4.0) * (
        np.linalg.cholesky(cov) @ rng.normal(size=n))

    rho = np.linalg.norm(baseline)
    sigma_range = math.hypot(RANGE_NOISE_M, 0.02)
    sigma_angle = math.hypot(ANGLE_NOISE_RAD, 0.02 / rho)
    ctx = ConstraintContext(
        observed_range=float(rho + rng.normal(scale=RANGE_NOISE_M)),
        observed_azimuth=math.asin(baseline[1] / rho)
        + float(rng.normal(scale=ANGLE_NOISE_RAD)),
        observed_elevation=math.atan2(baseline[0], baseline[2])
        + float(rng.normal(scale=ANGLE_NOISE_RAD)),
        sigma_range=sigma_range, sigma_azimuth=sigma_angle,
        sigma_elevation=sigma_angle,
        geometry=geometry, ddcp_phases=phases, dcm_eci_to_sensor=np.eye(3),
        wavelength=lam, range_enabled=sensors[0], bearing_enabled=sensors[1],
        free_rows=np.arange(n))
    return AmbiguityDistribution(floats=floats, covariance=cov), ctx, true_n


def problems():
    """The snapshot's problems, decorrelated: ``(dist_z, ctx, true_n)``."""
    for k, n in enumerate(SIZES):
        dist, ctx, true_n = make_problem(np.random.default_rng([SEED, k]), n,
                                         SENSORS[k % len(SENSORS)])
        yield decorrelate(dist), ctx, true_n


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _ints(values):
    return [int(v) for v in np.ravel(values)]


def _search(res):
    return {
        "best": _ints(res.best),
        "second_best": _ints(res.second_best),
        "costs": _hex([res.cost_best, res.cost_second, res.cost_init,
                       res.success_prob, res.discrimination_ratio]),
        "exhausted": bool(res.budget_exhausted),
    }


def _fix(fix):
    return {
        "indices": _ints(fix.indices),
        "values": _ints(fix.values),
        "subset_size": int(fix.subset_size),
        "floats": _hex([fix.success_prob, fix.shrink_factor]),
    }


def snapshot():
    """Every outcome of the decorrelate, search, partial-fix chain."""
    out = []
    for dz, ctx, _ in problems():
        classical = classical_ils_search(dz)
        constrained = constrained_search(dz, ctx)
        out.append({
            "n": dz.size,
            "z_matrix": _ints(dz.z_matrix),
            "floats": _hex(dz.floats),
            "diag": _hex(dz.diag),
            "classical": _search(classical),
            "constrained": _search(constrained),
            "classical_fix": _fix(partial_resolve(dz, classical,
                                                  use_shrink=False)),
            "constrained_fix": _fix(partial_resolve(dz, constrained)),
        })
    return out


def test_iar_chain_matches_snapshot_bit_for_bit():
    want = json.loads(DATA.read_text())
    got = snapshot()
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        for key in w:
            assert g[key] == w[key], f"problem {k} (n = {w['n']}): {key}"


def test_constrained_fixes_no_more_wrong_integers_than_classical():
    # The floats here are off by one to four sigma, so both paths accept
    # some wrong integers; the sensors must not add to them.
    wrong = {"classical": 0, "constrained": 0}
    for dz, ctx, true_n in problems():
        z_true = dz.z_matrix.T @ true_n
        for kind, fix in (
                ("classical", partial_resolve(dz, classical_ils_search(dz),
                                              use_shrink=False)),
                ("constrained", partial_resolve(dz,
                                                constrained_search(dz, ctx)))):
            wrong[kind] += int(np.sum(fix.values != z_true[fix.indices]))
    assert wrong["constrained"] <= wrong["classical"], wrong


if __name__ == "__main__":
    DATA.write_text(json.dumps(snapshot(), separators=(",", ":")) + "\n")
    print(f"wrote {DATA}")
