"""Observation models, differencing cancellations, and sensor Jacobians."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgps.constants import L1_WAVELENGTH
from cdgps.iar import candidate_baseline
from cdgps.measurements import (
    BoresightError,
    FrameError,
    bearing_model,
    double_difference,
    graphic,
    range_model,
    sd_to_dd_matrix,
    sensor_jacobian,
    single_difference,
    transform_jacobian,
    undifferenced_phase,
)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# Undifferenced phase and GRAPHIC
# ---------------------------------------------------------------------------

def test_undifferenced_phase_basic():
    lam = L1_WAVELENGTH
    assert undifferenced_phase(lam, 0) == pytest.approx(1.0)
    assert undifferenced_phase(0.0, 5) == pytest.approx(5.0)
    # 20000 km over the 0.1903 m L1 wavelength.
    assert undifferenced_phase(20_000e3, 0) == pytest.approx(
        1.0510071e8, rel=1e-7)


def test_undifferenced_phase_term_signs():
    lam = L1_WAVELENGTH
    base = undifferenced_phase(1000.0, 3)
    # Receiver clock adds, transmitter clock subtracts.
    assert undifferenced_phase(1000.0, 3, rx_clock=lam) == pytest.approx(base + 1.0)
    assert undifferenced_phase(1000.0, 3, gps_clock=lam) == pytest.approx(base - 1.0)


def test_graphic_cancels_ionosphere():
    lam = L1_WAVELENGTH
    r, iono = 22_345_678.9, 12.34
    code = r + iono
    carrier_m = r - iono
    assert graphic(code, carrier_m / lam) == pytest.approx(r, abs=1e-12 * r)
    assert graphic(100.0, 100.0 / lam) == pytest.approx(100.0)


def test_graphic_noise_reduction_monte_carlo():
    # iid noise on code and carrier: GRAPHIC noise std is halved by the
    # averaging, i.e. sigma/sqrt(2) smaller than either input... precisely
    # std((n1+n2)/2) = sigma/sqrt(2).
    rng = np.random.default_rng(1)
    sigma = 0.8
    n1 = rng.normal(scale=sigma, size=200_000)
    n2 = rng.normal(scale=sigma, size=200_000)
    lam = L1_WAVELENGTH
    g = np.array([graphic(n1[i], n2[i] / lam) for i in range(2000)])
    assert np.std(g) == pytest.approx(sigma / math.sqrt(2.0), rel=0.08)


# ---------------------------------------------------------------------------
# Differencing
# ---------------------------------------------------------------------------

def synth_obs(rng, gps_id, receiver_id, rx_clock, gps_clock, iono, windup,
              geom_range, ambiguity):
    """Undifferenced carrier phase [cycles] of one receiver."""
    return undifferenced_phase(geom_range, ambiguity, iono=-iono,
                               rx_clock=rx_clock, gps_clock=gps_clock,
                               windup=windup)


def test_single_difference_cancels_gps_clock():
    # Scales kept moderate so the cancellation is expressible in double
    # precision (at 1e8 cycles the representable resolution is ~1e-8).
    rng = np.random.default_rng(2)
    for _ in range(10):
        gps_clock = rng.normal(scale=30.0)
        kw = dict(gps_id=7, iono=0.0, windup=rng.normal(scale=0.05),
                  geom_range=150.0 + rng.uniform(0, 50), ambiguity=0)
        a = synth_obs(rng, receiver_id="chief", rx_clock=3.2, gps_clock=gps_clock, **kw)
        b = synth_obs(rng, receiver_id="deputy", rx_clock=-1.1, gps_clock=gps_clock, **kw)
        a0 = synth_obs(rng, receiver_id="chief", rx_clock=3.2, gps_clock=0.0, **kw)
        b0 = synth_obs(rng, receiver_id="deputy", rx_clock=-1.1, gps_clock=0.0, **kw)
        sd = single_difference(a, b)
        sd0 = single_difference(a0, b0)
        assert sd == pytest.approx(sd0, abs=1e-12)


def test_single_difference_cancels_windup_and_iono():
    # Wind-up and (to first order, short baseline) iono are common to both
    # receivers: the single difference is invariant to them.
    rng = np.random.default_rng(3)
    kw = dict(gps_id=4, gps_clock=123.4, geom_range=180.0, ambiguity=3)
    for windup, iono in [(0.05, 4.0), (0.0, 0.0), (-0.03, 9.9)]:
        a = synth_obs(rng, receiver_id="c", rx_clock=1.0, iono=iono, windup=windup, **kw)
        b = synth_obs(rng, receiver_id="d", rx_clock=2.0, iono=iono, windup=windup, **kw)
        a0 = synth_obs(rng, receiver_id="c", rx_clock=1.0, iono=0.0, windup=0.0, **kw)
        b0 = synth_obs(rng, receiver_id="d", rx_clock=2.0, iono=0.0, windup=0.0, **kw)
        assert single_difference(a, b) == pytest.approx(
            single_difference(a0, b0), abs=1e-12)


def test_double_difference_cancels_rx_clock():
    rng = np.random.default_rng(4)
    for _ in range(10):
        clocks = rng.normal(scale=50.0, size=2)
        def sd_for(clock_pair):
            sds = []
            for gid in (1, 2):
                a = synth_obs(rng, gps_id=gid, receiver_id="c",
                              rx_clock=clock_pair[0], gps_clock=0.0, iono=0.0,
                              windup=0.0, geom_range=200.0 + gid * 40.0,
                              ambiguity=10 * gid)
                b = synth_obs(rng, gps_id=gid, receiver_id="d",
                              rx_clock=clock_pair[1], gps_clock=0.0, iono=0.0,
                              windup=0.0, geom_range=200.0 + gid * 40.0 + 5.0,
                              ambiguity=-3 * gid)
                sds.append(single_difference(a, b))
            return sds
        with_clocks = sd_for(clocks)
        without = sd_for((0.0, 0.0))
        dd = double_difference(with_clocks[0], with_clocks[1])
        dd0 = double_difference(without[0], without[1])
        assert dd == pytest.approx(dd0, abs=1e-12)


def test_sd_to_dd_matrix_structure():
    t = sd_to_dd_matrix(4)
    assert t.shape == (3, 4)
    np.testing.assert_array_equal(t[:, :-1], np.eye(3))
    np.testing.assert_array_equal(t[:, -1], [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(t @ np.ones(4), np.zeros(3))
    # iid single differences -> 2 on the diagonal, 1 off.
    cov = t @ t.T
    np.testing.assert_array_equal(np.diag(cov), [2.0, 2.0, 2.0])
    off = cov[~np.eye(3, dtype=bool)]
    np.testing.assert_array_equal(off, np.ones(6))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6))
def test_sd_to_dd_matrix_differences_against_the_last_channel(k, seed):
    tmat = sd_to_dd_matrix(k)
    assert tmat.shape == (k - 1, k)
    eye = np.eye(k)
    for i in range(k - 1):
        np.testing.assert_array_equal(tmat[i], eye[i] - eye[-1])
    # every row is insensitive to a common shift of the whole bank
    np.testing.assert_array_equal(tmat @ np.ones(k), np.zeros(k - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, k))
    cov = a @ a.T + 0.1 * np.eye(k)
    floats = rng.normal(scale=5.0, size=k)
    # Each entry is one rounded difference, so extra channels riding along
    # as zero columns cannot change a bit.
    np.testing.assert_array_equal(tmat @ floats, floats[:-1] - floats[-1])
    dd_cov = tmat @ cov @ tmat.T
    rows = cov[:-1] - cov[-1]
    np.testing.assert_array_equal(dd_cov, rows[:, :-1] - rows[:, -1:])
    np.testing.assert_allclose(dd_cov, dd_cov.T, rtol=1e-12, atol=1e-12)


def test_geometry_row_baseline_round_trip():
    # Synthetic DDCP from a known baseline is reproduced by row . baseline,
    # and the least-squares solve recovers the baseline.
    rng = np.random.default_rng(5)
    lam = L1_WAVELENGTH
    for _ in range(5):
        baseline = rng.normal(scale=400.0, size=3)
        los = rng.normal(size=(6, 3))
        los /= np.linalg.norm(los, axis=1, keepdims=True)
        ref = los[-1]
        rows = los[:-1] - ref
        n_int = rng.integers(-40, 40, size=5)
        phases = (rows @ baseline) / lam + n_int
        est = candidate_baseline(rows, phases, n_int, lam)
        np.testing.assert_allclose(est, baseline, atol=1e-9)


# ---------------------------------------------------------------------------
# Sensor models
# ---------------------------------------------------------------------------

def test_range_model():
    assert range_model([3, 4, 0]) == pytest.approx(5.0)
    assert range_model([0, 0, 10], (0.05, 0.0, 0.0)) == pytest.approx(10.05)
    assert range_model([1, 1, 1]) == pytest.approx(math.sqrt(3.0))
    with pytest.raises(BoresightError):
        range_model([0, 0, 0])


def test_bearing_model():
    az, el = bearing_model([0, 0, 10])
    assert az == pytest.approx(0.0) and el == pytest.approx(0.0)
    az, el = bearing_model([1, 0, 1])
    assert az == pytest.approx(0.0) and el == pytest.approx(math.pi / 4)
    az, el = bearing_model([0, 1, math.sqrt(3.0)])
    assert az == pytest.approx(math.pi / 6) and el == pytest.approx(0.0)
    # Behind the sensor: atan2 keeps the quadrant.
    _, el = bearing_model([0.0, 0.0, -5.0])
    assert el == pytest.approx(math.pi)
    with pytest.raises(BoresightError):
        bearing_model([0, 1, 0])
    with pytest.raises(BoresightError):
        bearing_model([0, 0, 0])


def test_bearing_azimuth_odd_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = rng.normal(size=3)
        if abs(rho[0]) + abs(rho[2]) < 1e-6:
            continue
        az1, _ = bearing_model(rho)
        rho2 = rho.copy()
        rho2[1] = -rho2[1]
        az2, _ = bearing_model(rho2)
        assert az1 == pytest.approx(-az2, abs=1e-12)


def test_bearing_bias_addition():
    b = (0.0, 1e-3, -2e-3)  # range, azimuth, elevation
    az0, el0 = bearing_model([1, 2, 3])
    az, el = bearing_model([1, 2, 3], b)
    assert az - az0 == pytest.approx(1e-3)
    assert el - el0 == pytest.approx(-2e-3)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_sensor_jacobian_boresight_example():
    h = sensor_jacobian([0, 0, 10])
    expected = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 0.1, 0.0],
        [0.1, 0.0, 0.0],
    ])
    np.testing.assert_allclose(h, expected, atol=1e-15)


def fd_jacobian(rho, step=1e-6):
    """Central finite differences of (range, az, el) w.r.t. position."""
    def model(p):
        r = range_model(p)
        az, el = bearing_model(p)
        return np.array([r, az, el])
    out = np.zeros((3, 3))
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = step
        out[:, j] = (model(rho + dp) - model(rho - dp)) / (2 * step)
    return out


def test_sensor_jacobian_finite_difference_100_geometries():
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        rho = rng.normal(scale=50.0, size=3)
        if math.hypot(rho[0], rho[2]) < 1.0 or np.linalg.norm(rho) < 1.0:
            continue
        count += 1
        h = sensor_jacobian(rho)
        h_fd = fd_jacobian(rho)
        np.testing.assert_allclose(h, h_fd, rtol=1e-5, atol=1e-9)


def test_sensor_jacobian_singularities():
    with pytest.raises(BoresightError):
        sensor_jacobian([0, 5, 0])
    with pytest.raises(BoresightError):
        sensor_jacobian([0, 0, 0])


def test_transform_jacobian():
    rng = np.random.default_rng(8)
    h = sensor_jacobian([3.0, -2.0, 7.0])
    np.testing.assert_allclose(transform_jacobian(h, np.eye(3)), h)
    rot_z = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=float)
    ht = transform_jacobian(h, rot_z)
    np.testing.assert_allclose(ht[:, :2], -h[:, :2])
    np.testing.assert_allclose(ht[:, 2], h[:, 2])
    with pytest.raises(FrameError):
        transform_jacobian(h, np.diag([1.0, 2.0, 1.0]))


def test_transform_jacobian_tolerance_is_absolute():
    # Every entry of dcm dcm^T - I must be within 1e-9: a rotation scaled by
    # 1 + 1e-6 is off by 2e-6 on the diagonal, whatever its magnitude.
    h = sensor_jacobian([3.0, -2.0, 7.0])
    c, s = math.cos(0.4), math.sin(0.4)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    transform_jacobian(h, rot)
    with pytest.raises(FrameError):
        transform_jacobian(h, (1.0 + 1e-6) * rot)
    with pytest.raises(FrameError):
        transform_jacobian(h, np.eye(3) + np.diag([0.0, 0.0, 2e-9]))
    with pytest.raises(FrameError):
        transform_jacobian(h, np.full((3, 3), np.nan))


def test_transform_jacobian_matches_fd_through_rotation():
    # The pipeline models rho = dcm @ (r_chief - r_deputy): by finite
    # differences the chief partials are H_sensor @ dcm and the deputy
    # partials its negative.
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(10):
        dcm = random_rotation(rng)
        r_chief = rng.normal(scale=1e4, size=3)
        r_deputy = r_chief + rng.normal(scale=100.0, size=3)
        rho = dcm @ (r_chief - r_deputy)
        if math.hypot(rho[0], rho[2]) < 1.0:
            continue
        h_eci = transform_jacobian(sensor_jacobian(rho), dcm)

        def model(rc, rd):
            p = dcm @ (rc - rd)
            return np.array([range_model(p), *bearing_model(p)])

        fd_chief = np.zeros((3, 3))
        fd_deputy = np.zeros((3, 3))
        step = 1e-4
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = step
            fd_chief[:, j] = (model(r_chief + dp, r_deputy)
                              - model(r_chief - dp, r_deputy)) / (2 * step)
            fd_deputy[:, j] = (model(r_chief, r_deputy + dp)
                               - model(r_chief, r_deputy - dp)) / (2 * step)
        np.testing.assert_allclose(fd_chief, h_eci, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(fd_deputy, -h_eci, rtol=1e-5, atol=1e-8)
        checked += 1
    assert checked >= 5


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_jacobian_row_norm_properties(seed):
    # Closed-form row magnitudes: range row is unit, azimuth row is 1/R,
    # elevation row is 1/sqrt(x^2 + z^2).
    rng = np.random.default_rng(seed)
    rho = rng.normal(scale=20.0, size=3)
    if math.hypot(rho[0], rho[2]) < 0.5 or np.linalg.norm(rho) < 0.5:
        return
    h = sensor_jacobian(rho)
    assert np.linalg.norm(h[0]) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(h[1]) == pytest.approx(1.0 / np.linalg.norm(rho), rel=1e-9)
    assert np.linalg.norm(h[2]) == pytest.approx(1.0 / math.hypot(rho[0], rho[2]), rel=1e-9)
