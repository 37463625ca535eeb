"""Error models: link budget chain, thermal noise calibration, multipath
footprints, clock random walk, broadcast ionosphere, ephemeris corruption."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgps.constants import GPS_SEMIMAJOR_AXIS, MU_EARTH, SPEED_OF_LIGHT
from cdgps.errors import (
    DEFAULT_KLOBUCHAR_ALPHA,
    DEFAULT_KLOBUCHAR_BETA,
    LinkBudget,
    LossOfLockError,
    MultipathParams,
    RoeError,
    TRACKING_THRESHOLD,
    calibrate_roe,
    carrier_to_noise,
    clock_random_walk,
    dll_thermal_sigma,
    free_space_path_loss,
    inject_roe_error,
    klobuchar_delay,
    multipath_far,
    multipath_near,
    multipath_sigma,
    pll_thermal_sigma,
    roe_to_rtn,
    substream,
    thermal_noise_sigmas,
)
from cdgps.measurements import graphic


# ---------------------------------------------------------------------------
# Link budget
# ---------------------------------------------------------------------------

def test_free_space_path_loss_reference_ranges():
    assert free_space_path_loss(20_000.0, 1575.42) == pytest.approx(-182.419, abs=0.01)
    assert free_space_path_loss(80_000.0, 1575.42) == pytest.approx(-194.460, abs=0.01)
    # Quadrupling the range adds 20 log10(4) = 12.04 dB of loss.
    delta = free_space_path_loss(80_000.0, 1575.42) - free_space_path_loss(20_000.0, 1575.42)
    assert delta == pytest.approx(-12.0412, abs=1e-3)
    with pytest.raises(ValueError):
        free_space_path_loss(0.0, 1575.42)


def test_link_budget_chain_leo_column():
    b = LinkBudget.leo_mainlobe()
    assert b.gps_eirp == pytest.approx(26.5)
    assert b.path_loss == pytest.approx(-182.419, abs=0.01)
    assert b.carrier_power == pytest.approx(-124.919, abs=0.2)
    assert carrier_to_noise(b) == pytest.approx(45.0, abs=0.2)


def test_link_budget_chain_geo_column():
    b = LinkBudget.geo_sidelobe()
    assert b.gps_eirp == pytest.approx(10.0)
    assert b.path_loss == pytest.approx(-194.460, abs=0.01)
    assert b.carrier_power == pytest.approx(-153.460, abs=0.2)
    assert carrier_to_noise(b) == pytest.approx(16.45, abs=0.2)


def test_link_budget_gain_linearity():
    b = LinkBudget.leo_mainlobe()
    b2 = LinkBudget.leo_mainlobe()
    b2.rx_antenna_gain += 3.0
    assert carrier_to_noise(b2) - carrier_to_noise(b) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Thermal noise
# ---------------------------------------------------------------------------

def test_thermal_noise_anchor_exact():
    code, phase = thermal_noise_sigmas(45.0)
    assert code == pytest.approx(0.20, rel=1e-9)
    assert phase == pytest.approx(2.0e-3, rel=1e-9)


def test_thermal_noise_geo_within_15_percent():
    start = time.monotonic()
    code, phase = thermal_noise_sigmas(16.45)
    elapsed = time.monotonic() - start
    assert abs(code - 2.673) / 2.673 < 0.15
    assert abs(phase - 21.274e-3) / 21.274e-3 < 0.15
    assert elapsed < 1.0


def test_thermal_noise_monotone_in_cn0():
    values = [thermal_noise_sigmas(c) for c in (20.0, 30.0, 40.0, 50.0)]
    codes = [v[0] for v in values]
    phases = [v[1] for v in values]
    assert codes == sorted(codes, reverse=True)
    assert phases == sorted(phases, reverse=True)


def test_pll_six_db_halving():
    # The floor-free carrier tracking noise follows 1/sqrt(C/N0): +6 dB
    # halves it up to the small squaring-loss correction.
    ratio = pll_thermal_sigma(51.0) / pll_thermal_sigma(45.0)
    assert ratio == pytest.approx(0.5, rel=3e-3)
    ratio_dll = dll_thermal_sigma(51.0) / dll_thermal_sigma(45.0)
    assert ratio_dll == pytest.approx(0.5, rel=2e-2)


def test_thermal_noise_loss_of_lock():
    with pytest.raises(LossOfLockError):
        thermal_noise_sigmas(14.9)
    # At exactly the threshold the receiver still tracks.
    thermal_noise_sigmas(15.0)


# ---------------------------------------------------------------------------
# Multipath
# ---------------------------------------------------------------------------

def test_multipath_near_field():
    assert multipath_near(0.05, math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)
    assert multipath_near(0.05, 0.0) == pytest.approx(0.05)
    # Even in elevation.
    assert multipath_near(0.05, 0.3) == pytest.approx(multipath_near(0.05, -0.3))


def test_multipath_far_field_frozen_peak():
    # Query exactly at the boresight target: 0.05 / (0.05 * 40 + 1)^2 =
    # 5.556 mm.
    v = multipath_far(0.05, 1.0, 40.0, 0.0, 0.0)
    assert v == pytest.approx(0.05 / 9.0, rel=1e-12)
    # Disabled when there is no far-field object.
    assert multipath_far(0.05, 1.0, 0.0, 1.0, 1.0) == 0.0


def test_multipath_far_field_decay_and_footprint():
    a, r = 0.05, 40.0
    peak = multipath_far(a, 2.0, r, 0.0, 0.0)
    seps = [0.05, 0.1, 0.2, 0.5]
    vals = [multipath_far(a, 2.0, r, s, 0.0) for s in seps]
    assert all(v < peak for v in vals)
    assert vals == sorted(vals, reverse=True)
    # Footprint width ordering: at fixed separation and range, a larger size
    # factor decays less (exponent magnitude scales with R/S).
    wide = multipath_far(a, 10.0, r, 0.3, 0.0)
    narrow = multipath_far(a, 1.0, r, 0.3, 0.0)
    assert wide > narrow
    # And with range at fixed size factor the exponent grows: compare decay
    # factors (peak-normalized) rather than absolute values.
    near_decay = (multipath_far(a, 2.0, 10.0, 0.3, 0)
                  / multipath_far(a, 2.0, 10.0, 0.0, 0))
    far_decay = (multipath_far(a, 2.0, 100.0, 0.3, 0)
                 / multipath_far(a, 2.0, 100.0, 0.0, 0))
    assert far_decay < near_decay


def test_multipath_total_and_map():
    p = MultipathParams(amplitude_code=5.0, amplitude_phase=0.05,
                        size_factor=5.0, target_range=100.0)
    total = multipath_sigma(p, 0.5, 0.2, kind="phase")
    assert total == pytest.approx(
        multipath_near(0.05, 0.2) + multipath_far(0.05, 5.0, 100.0, 0.5, 0.2))
    assert multipath_sigma(p, 0.5, 0.2, kind="code") > total  # code amplitude larger
    with pytest.raises(ValueError):
        multipath_sigma(p, 0.0, 0.0, kind="doppler")


def test_multipath_params_validation():
    with pytest.raises(ValueError):
        MultipathParams(amplitude_code=-1.0)
    with pytest.raises(ValueError):
        MultipathParams(size_factor=0.0)


# ---------------------------------------------------------------------------
# Clock random walk
# ---------------------------------------------------------------------------

def test_clock_random_walk_zero_sigma():
    rng = np.random.default_rng(0)
    assert clock_random_walk(3.5, 10.0, rng, sigma_per_sqrt_s=0.0) == 3.5


def test_clock_random_walk_variance_growth():
    rng = np.random.default_rng(42)
    n_paths, total_t, dt = 10_000, 100.0, 10.0
    finals = np.zeros(n_paths)
    for i in range(n_paths):
        s = 0.0
        for _ in range(int(total_t / dt)):
            s = clock_random_walk(s, dt, rng, sigma_per_sqrt_s=1.0)
        finals[i] = s
    assert np.var(finals) == pytest.approx(100.0, rel=0.1)


def test_clock_random_walk_single_second_step():
    rng = np.random.default_rng(7)
    steps = np.array([clock_random_walk(0.0, 1.0, rng) for _ in range(20_000)])
    assert np.std(steps) == pytest.approx(1.0, rel=0.05)
    with pytest.raises(ValueError):
        clock_random_walk(0.0, 0.0, rng)


# ---------------------------------------------------------------------------
# Klobuchar ionosphere
# ---------------------------------------------------------------------------

def test_klobuchar_night_floor():
    # At local midnight the diurnal bump is off, leaving only the 5 ns floor
    # times obliquity; at zenith the obliquity is ~1 so the delay is
    # ~c * 5 ns = 1.499 m.
    pos = np.array([6.378e6 + 370e3, 0.0, 0.0])
    los = pos / np.linalg.norm(pos)
    d = klobuchar_delay(pos, los, 0.0)
    assert d == pytest.approx(SPEED_OF_LIGHT * 5e-9, rel=2e-3)


def test_klobuchar_obliquity_ordering():
    pos = np.array([6.7e6, 0.0, 0.0])
    up = pos / np.linalg.norm(pos)
    north = np.array([0.0, 0.0, 1.0])
    lo = math.radians(10.0)
    slant = math.cos(lo) * north + math.sin(lo) * up
    d_low = klobuchar_delay(pos, slant, 36_000.0)
    d_zen = klobuchar_delay(pos, up, 36_000.0)
    assert d_low > d_zen > 0.0


def test_klobuchar_daytime_bump():
    pos = np.array([6.7e6, 0.0, 0.0])
    up = pos / np.linalg.norm(pos)
    # Local noon at zero longitude corresponds to t = 50400 s.
    day = klobuchar_delay(pos, up, 50_400.0)
    night = klobuchar_delay(pos, up, 10_000.0)
    assert day > night


def test_klobuchar_graphic_cancellation():
    # Code +I, carrier -I: GRAPHIC removes the injected delay exactly.
    from cdgps.constants import L1_WAVELENGTH
    pos = np.array([6.7e6, 0.0, 0.0])
    up = pos / np.linalg.norm(pos)
    iono = klobuchar_delay(pos, up, 30_000.0)
    r = 180.0
    code = r + iono
    carrier_cycles = (r - iono) / L1_WAVELENGTH
    assert graphic(code, carrier_cycles) == pytest.approx(r, abs=1e-12)


# ---------------------------------------------------------------------------
# ROE ephemeris corruption
# ---------------------------------------------------------------------------

def circular_gps_state(t, incl=math.radians(55.0)):
    a = GPS_SEMIMAJOR_AXIS
    n = math.sqrt(MU_EARTH / a ** 3)
    p_axis = np.array([1.0, 0.0, 0.0])
    q_axis = np.array([0.0, math.cos(incl), math.sin(incl)])
    u = n * t
    r = a * (math.cos(u) * p_axis + math.sin(u) * q_axis)
    v = a * n * (-math.sin(u) * p_axis + math.cos(u) * q_axis)
    return r, v


def test_roe_zero_offsets_zero_error():
    roe = RoeError(offsets=np.zeros(6))
    r, v = circular_gps_state(1234.0)
    np.testing.assert_allclose(inject_roe_error(r, v, roe), r, atol=1e-9)


def test_roe_rejects_drift():
    with pytest.raises(ValueError):
        RoeError(offsets=np.array([1e-7, 0, 0, 0, 0, 0]))


def test_roe_calibrated_rms_by_numerical_averaging():
    # Oracle: sample the injected error over one full orbit and compare the
    # numerical RMS with the analytic calibration target.
    target = 1.5
    roe = calibrate_roe(target, GPS_SEMIMAJOR_AXIS)
    period = 2.0 * math.pi * math.sqrt(GPS_SEMIMAJOR_AXIS ** 3 / MU_EARTH)
    times = np.linspace(0.0, period, 720, endpoint=False)
    errs = []
    for t in times:
        r, v = circular_gps_state(t)
        errs.append(np.linalg.norm(inject_roe_error(r, v, roe) - r))
    rms = math.sqrt(np.mean(np.square(errs)))
    assert rms == pytest.approx(target, rel=0.05)


def test_roe_error_is_periodic():
    roe = calibrate_roe(1.5, GPS_SEMIMAJOR_AXIS)
    period = 2.0 * math.pi * math.sqrt(GPS_SEMIMAJOR_AXIS ** 3 / MU_EARTH)
    for t in (0.0, 3333.0, 20_000.0):
        r1, v1 = circular_gps_state(t)
        r2, v2 = circular_gps_state(t + period)
        e1 = inject_roe_error(r1, v1, roe) - r1
        e2 = inject_roe_error(r2, v2, roe) - r2
        np.testing.assert_allclose(e1, e2, atol=1e-6)


def test_roe_map_frozen_values():
    # Hand evaluation of the linear map at u = 0 and u = pi/2.
    off = np.array([0.0, 1e-6, 2e-6, 0.0, 0.0, 3e-6])
    a = 1e7
    np.testing.assert_allclose(
        roe_to_rtn(off, a, 0.0), a * np.array([-2e-6, 1e-6 - 0.0, -3e-6]),
        rtol=1e-12)
    np.testing.assert_allclose(
        roe_to_rtn(off, a, math.pi / 2.0),
        a * np.array([0.0, 1e-6 + 4e-6, 0.0]), atol=1e-9)


# ---------------------------------------------------------------------------
# Substreams
# ---------------------------------------------------------------------------

def test_substreams_reproducible_and_independent():
    a1 = substream(99, "thermal").normal(size=8)
    a2 = substream(99, "thermal").normal(size=8)
    b = substream(99, "multipath").normal(size=8)
    c = substream(100, "thermal").normal(size=8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)


# ---------------------------------------------------------------------------
# Stacked inputs: one call over many signals equals one call per signal
# ---------------------------------------------------------------------------

BATCH_RTOL = 1e-12
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIZES = st.integers(min_value=1, max_value=40)


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(SEEDS, SIZES)
def test_klobuchar_batched_matches_scalar(seed, n):
    rng = np.random.default_rng(seed)
    up = _unit_rows(rng, n)
    # Receivers at both poles exercise the east-axis fallback.
    up[0] = [0.0, 0.0, 1.0]
    up[-1] = [0.0, 0.0, -1.0]
    pos = up * rng.uniform(6.5e6, 4.3e7, size=(n, 1))
    # Rays from 15 degrees below to straight above the local horizon.
    horiz = np.cross(up, _unit_rows(rng, n))
    horiz /= np.linalg.norm(horiz, axis=1, keepdims=True)
    elev = rng.uniform(math.radians(-15.0), math.pi / 2.0, size=(n, 1))
    los = (np.cos(elev) * horiz + np.sin(elev) * up) * rng.uniform(
        1.0, 3e7, size=(n, 1))
    tod = float(rng.uniform(0.0, 86400.0))
    batched = klobuchar_delay(pos, los, tod)
    assert batched.shape == (n,)
    scalar = [klobuchar_delay(p, u, tod) for p, u in zip(pos, los)]
    np.testing.assert_allclose(batched, scalar, rtol=BATCH_RTOL, atol=0.0)
    # One receiver against many rays broadcasts the same way.
    np.testing.assert_allclose(klobuchar_delay(pos[1 % n], los, tod),
                               [klobuchar_delay(pos[1 % n], u, tod)
                                for u in los], rtol=BATCH_RTOL, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(SEEDS, SIZES)
def test_inject_roe_error_batched_matches_scalar(seed, n):
    rng = np.random.default_rng(seed)
    r = _unit_rows(rng, n) * GPS_SEMIMAJOR_AXIS
    v = np.cross(_unit_rows(rng, n), r)
    v *= 3874.0 / np.linalg.norm(v, axis=1, keepdims=True)
    # An equatorial orbit measures its latitude from the x axis.
    r[0] = [GPS_SEMIMAJOR_AXIS * 0.6, GPS_SEMIMAJOR_AXIS * 0.8, 0.0]
    v[0] = [-3874.0 * 0.8, 3874.0 * 0.6, 0.0]
    roe = calibrate_roe(1.5, np.linalg.norm(r, axis=1))
    roe.offsets[:, 1:] *= rng.choice([-1.0, 1.0], size=(n, 5))
    batched = inject_roe_error(r, v, roe)
    scalar = [inject_roe_error(ri, vi, RoeError(offsets=off))
              for ri, vi, off in zip(r, v, roe.offsets)]
    np.testing.assert_allclose(batched, scalar, rtol=BATCH_RTOL, atol=0.0)
    # The metre-level corruption itself agrees to a few ulp of the position.
    np.testing.assert_allclose(batched - r, np.array(scalar) - r,
                               rtol=BATCH_RTOL, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(SEEDS, SIZES)
def test_link_noise_and_lock_mask_batched_match_scalar(seed, n):
    rng = np.random.default_rng(seed)
    budget = LinkBudget.geo_sidelobe()
    slant = rng.uniform(2e3, 9e4, size=n)
    cn0 = carrier_to_noise(dataclasses.replace(budget, slant_range=slant))
    np.testing.assert_allclose(
        cn0, [carrier_to_noise(dataclasses.replace(budget, slant_range=s))
              for s in slant], rtol=BATCH_RTOL, atol=0.0)
    # Just below and exactly at the tracking threshold.
    cn0 = np.concatenate([cn0, [np.nextafter(TRACKING_THRESHOLD, 0.0),
                                TRACKING_THRESHOLD]])
    locked = cn0 >= TRACKING_THRESHOLD
    assert not locked[-2] and locked[-1]
    code, phase = thermal_noise_sigmas(cn0[locked])
    scalar = []
    for c, lock in zip(cn0, locked):
        if lock:
            scalar.append(thermal_noise_sigmas(c))
        else:
            with pytest.raises(LossOfLockError):
                thermal_noise_sigmas(c)
    np.testing.assert_allclose(code, [s[0] for s in scalar],
                               rtol=BATCH_RTOL, atol=0.0)
    np.testing.assert_allclose(phase, [s[1] for s in scalar],
                               rtol=BATCH_RTOL, atol=0.0)
    with pytest.raises(LossOfLockError):
        thermal_noise_sigmas(cn0)


@settings(max_examples=60, deadline=None)
@given(SEEDS, SIZES)
def test_multipath_sigma_batched_matches_scalar(seed, n):
    rng = np.random.default_rng(seed)
    params = MultipathParams(amplitude_code=5.0, amplitude_phase=0.05,
                             size_factor=float(rng.uniform(0.5, 10.0)),
                             target_range=float(rng.uniform(0.0, 2e3)))
    az = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    el = rng.uniform(-math.pi, math.pi, size=n)
    for kind in ("code", "phase"):
        np.testing.assert_allclose(
            multipath_sigma(params, az, el, kind),
            [multipath_sigma(params, a, e, kind) for a, e in zip(az, el)],
            rtol=BATCH_RTOL, atol=0.0)


def test_clock_random_walk_steps_match_single_steps():
    steps = clock_random_walk(2.0, np.full(50, 10.0), substream(7, "clk"))
    rng = substream(7, "clk")
    state, single = 2.0, []
    for _ in range(50):
        state = clock_random_walk(state, 10.0, rng)
        single.append(state)
    np.testing.assert_array_equal(steps, single)
