"""Propagation accuracy, frames, constellation geometry, and visibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgps.constants import (
    ATMOSPHERE_MASK_HEIGHT,
    GPS_MAINLOBE_HALFCONE,
    J2_EARTH,
    MU_EARTH,
    R_EARTH,
)
from cdgps.orbits import (
    DegenerateFrameError,
    OrbitState,
    PropagationError,
    acceleration,
    cross,
    default_constellation,
    kepler_elements_to_state,
    propagate,
    row_norm,
    rtn_frame,
    visibility,
)
from cdgps.orbits import _derivative

LEO_ALT = 370e3
LEO_A = R_EARTH + LEO_ALT
LEO_PERIOD = 2.0 * math.pi * math.sqrt(LEO_A ** 3 / MU_EARTH)


def specific_energy(state, include_j2=True):
    """Conserved energy of the (two-body [+ J2]) motion [m^2/s^2]."""
    r = np.linalg.norm(state.position)
    e = 0.5 * np.linalg.norm(state.velocity) ** 2 - MU_EARTH / r
    if include_j2:
        z2_r2 = state.position[2] ** 2 / r ** 2
        e += (MU_EARTH * J2_EARTH * R_EARTH * R_EARTH * (3.0 * z2_r2 - 1.0)
              / (2.0 * r ** 3))
    return e


def circular_leo(inclination=math.radians(51.6)):
    v = math.sqrt(MU_EARTH / LEO_A)
    pos = np.array([LEO_A, 0.0, 0.0])
    vel = v * np.array([0.0, math.cos(inclination), math.sin(inclination)])
    return OrbitState(pos, vel)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def test_kepler_closure_one_period():
    # Circular equatorial two-body orbit returns to its start.
    state = circular_leo(inclination=0.0)
    final = propagate(state, LEO_PERIOD, include_j2=False)
    err = np.linalg.norm(final.position - state.position)
    assert err / LEO_A < 1e-6
    assert final.epoch == pytest.approx(LEO_PERIOD)


def test_energy_drift_with_j2():
    state = circular_leo()
    e0 = specific_energy(state, include_j2=True)
    final = propagate(state, LEO_PERIOD, include_j2=True)
    e1 = specific_energy(final, include_j2=True)
    assert abs(e1 - e0) / abs(e0) < 1e-9


def test_j2_nodal_regression_rate():
    # Analytic secular rate for the ascending node under J2.
    inc = math.radians(51.6)
    state = circular_leo(inc)
    n = math.sqrt(MU_EARTH / LEO_A ** 3)
    expected_rate = -1.5 * J2_EARTH * n * (R_EARTH / LEO_A) ** 2 * math.cos(inc)

    def raan_of(s):
        h = np.cross(s.position, s.velocity)
        node = np.cross([0.0, 0.0, 1.0], h)
        return math.atan2(node[1], node[0])

    # Slope of the node angle over two orbits (unwrapped, sampled per orbit
    # to suppress the short-period oscillation).
    times = [0.0, LEO_PERIOD, 2.0 * LEO_PERIOD]
    raans = []
    s = state
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            s = propagate(s, t - t_prev, include_j2=True)
            t_prev = t
        raans.append(raan_of(s))
    raans = np.unwrap(raans)
    rate = np.polyfit(times, raans, 1)[0]
    assert rate < 0.0
    assert abs(rate - expected_rate) / abs(expected_rate) < 0.05


def test_gauss_variational_semimajor_axis_growth():
    # Constant along-track acceleration raises the semi-major axis at
    # da/dt = 2 a_T / n for a circular orbit.
    a_t = 1e-6
    state = circular_leo(inclination=0.0)
    n = math.sqrt(MU_EARTH / LEO_A ** 3)
    expected_da = 2.0 * a_t / n * LEO_PERIOD

    final = propagate(state, LEO_PERIOD, empirical_accel_rtn=[0.0, a_t, 0.0],
                      include_j2=False)
    energy = specific_energy(final, include_j2=False)
    a_final = -MU_EARTH / (2.0 * energy)
    assert (a_final - LEO_A) == pytest.approx(expected_da, rel=0.05)


def test_propagation_deterministic():
    state = circular_leo()
    a = propagate(state, 1234.5, empirical_accel_rtn=[1e-7, -2e-7, 5e-8])
    b = propagate(state, 1234.5, empirical_accel_rtn=[1e-7, -2e-7, 5e-8])
    np.testing.assert_array_equal(a.position, b.position)
    np.testing.assert_array_equal(a.velocity, b.velocity)


def test_propagation_subsurface_error():
    # Straight drop: radial velocity pointed at the Earth center.
    state = OrbitState([R_EARTH + 100e3, 0, 0], [-3000.0, 0.0, 0.0])
    with pytest.raises(PropagationError):
        propagate(state, 600.0, include_j2=False)
    with pytest.raises(ValueError):
        propagate(circular_leo(), -5.0)


def _orbit_rows(rng, n):
    """Near-circular LEO-to-GEO states with random planes, as stacked rows."""
    up = rng.normal(size=(n, 3))
    up /= np.linalg.norm(up, axis=1, keepdims=True)
    along = np.cross(up, rng.normal(size=(n, 3)))
    along /= np.linalg.norm(along, axis=1, keepdims=True)
    radius = rng.uniform(R_EARTH + 300e3, 4.3e7, size=(n, 1))
    speed = np.sqrt(MU_EARTH / radius) * rng.uniform(0.98, 1.02, size=(n, 1))
    return up * radius, along * speed + rng.normal(scale=5.0, size=(n, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=40),
       st.booleans(),
       st.floats(min_value=10.5, max_value=65.0))
def test_stacked_propagate_matches_rows_bit_for_bit(seed, n, empirical, dt):
    rng = np.random.default_rng(seed)
    pos, vel = _orbit_rows(rng, n)
    acc = rng.normal(scale=1e-6, size=(n, 3)) if empirical else None
    stacked = propagate(OrbitState(pos, vel, 5.0), dt, acc)
    assert stacked.position.shape == (n, 3)
    assert stacked.epoch == 5.0 + dt
    for k in range(n):
        single = propagate(OrbitState(pos[k], vel[k], 5.0), dt,
                           None if acc is None else acc[k])
        np.testing.assert_array_equal(stacked.position[k], single.position)
        np.testing.assert_array_equal(stacked.velocity[k], single.velocity)


def test_stacked_propagation_subsurface_error_from_one_row():
    # One row drops straight at the Earth; the rest stay in orbit.
    pos, vel = _orbit_rows(np.random.default_rng(7), 5)
    pos[3] = [R_EARTH + 100e3, 0.0, 0.0]
    vel[3] = [-3000.0, 0.0, 0.0]
    with pytest.raises(PropagationError):
        propagate(OrbitState(pos, vel), 600.0)
    # A hyperbolic graze dips below the surface from about 5 s to 58 s and
    # ends 3.5 km above it at 70 s: the substep check still catches it.
    graze = OrbitState([R_EARTH + 2e3, 0.0, 0.0], [-300.0, 11000.0, 0.0])
    leo = circular_leo()
    with pytest.raises(PropagationError):
        propagate(OrbitState(np.stack([leo.position, graze.position]),
                             np.stack([leo.velocity, graze.velocity])), 70.0)


def _j2_part(position):
    r = np.array(position, dtype=float)
    return (acceleration(r, row_norm(r), include_j2=True)
            - acceleration(r, row_norm(r), include_j2=False))


def test_acceleration_j2_structure():
    # On the equatorial plane the J2 term points radially inward (stronger
    # pull); over the pole it is also attractive but with different scale.
    a_eq = _j2_part([7e6, 0, 0])
    a_pole = _j2_part([0, 0, 7e6])
    assert a_eq[0] < 0.0                      # inward along +x
    assert a_pole[2] > 0.0                    # J2 weakens pull over the pole
    assert abs(a_eq[0] / a_pole[2]) == pytest.approx(0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# RTN frame
# ---------------------------------------------------------------------------

def test_rtn_frame_axes():
    state = OrbitState([7e6, 0, 0], [0, 7500.0, 0])
    dcm = rtn_frame(state)
    np.testing.assert_allclose(dcm[0], [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(dcm[1], [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(dcm[2], [0, 0, 1], atol=1e-15)


def test_rtn_frame_orthonormal_100_states():
    rng = np.random.default_rng(12)
    for _ in range(100):
        pos = rng.normal(scale=7e6, size=3)
        vel = rng.normal(scale=7e3, size=3)
        if np.linalg.norm(np.cross(pos, vel)) < 1e6:
            continue
        dcm = rtn_frame(OrbitState(pos, vel))
        np.testing.assert_allclose(dcm @ dcm.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(dcm) == pytest.approx(1.0, abs=1e-12)


def test_rtn_frame_along_track_offset():
    chief = OrbitState([7e6, 0, 0], [0, 7500.0, 0])
    dcm = rtn_frame(chief)
    deputy_pos = chief.position + np.array([0.0, 800.0, 0.0])  # along velocity
    rel_rtn = dcm @ (deputy_pos - chief.position)
    np.testing.assert_allclose(rel_rtn, [0.0, 800.0, 0.0], atol=1e-9)


def test_rtn_frame_degenerate():
    with pytest.raises(DegenerateFrameError):
        rtn_frame(OrbitState([7e6, 0, 0], [750.0, 0, 0]))
    # An RTN-resolved empirical acceleration needs the same frame.
    radial = OrbitState([[7e6, 0, 0], [7e6, 0, 0]], [[0, 7.5e3, 0], [750.0, 0, 0]])
    with pytest.raises(DegenerateFrameError):
        propagate(radial, 30.0, empirical_accel_rtn=[1e-7, 0.0, 0.0])
    propagate(radial, 30.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=40))
def test_stacked_rtn_frame_matches_rows_bit_for_bit(seed, n):
    rng = np.random.default_rng(seed)
    pos, vel = _orbit_rows(rng, n)
    stacked = rtn_frame(OrbitState(pos, vel))
    assert stacked.shape == (n, 3, 3)
    np.testing.assert_array_equal(row_norm(vel)[:, 0],
                                  [np.linalg.norm(row) for row in vel])
    for k in range(n):
        np.testing.assert_array_equal(stacked[k],
                                      rtn_frame(OrbitState(pos[k], vel[k])))
    # One degenerate row fails the whole stack.
    k = int(rng.integers(n))
    vel[k] = 0.1 * pos[k]
    with pytest.raises(DegenerateFrameError):
        rtn_frame(OrbitState(pos, vel))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=40))
def test_dynamics_resolve_empirical_acceleration_in_rtn_frame_axes(seed, n):
    # The empirical-acceleration term of the dynamics is rtn_frame's rows
    # times the RTN components, bit for bit: the two constructions of the
    # axes cannot drift apart.  The components are as large as gravity, so
    # that a last-bit change of an axis survives the sum.
    rng = np.random.default_rng(seed)
    pos, vel = _orbit_rows(rng, n)
    emp = rng.normal(scale=10.0, size=(n, 3))
    y = np.concatenate([pos, vel], axis=1)
    with_emp, gravity = np.empty((n, 6)), np.empty((n, 6))
    _derivative(y, (emp[:, 0:1], emp[:, 1:2], emp[:, 2:3]), True, with_emp)
    _derivative(y, None, True, gravity)
    frame = rtn_frame(OrbitState(pos, vel))
    term = (frame[:, 0] * emp[:, 0:1] + frame[:, 1] * emp[:, 1:2]
            + frame[:, 2] * emp[:, 2:3])
    np.testing.assert_array_equal(with_emp[:, :3], vel)
    np.testing.assert_array_equal(with_emp[:, 3:], gravity[:, 3:] + term)


_COMPONENTS = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False,
                        allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.lists(_COMPONENTS, min_size=3, max_size=3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_cross_equals_numpy_bit_for_bit(n, fixed, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-9, 8, size=(2, n, 1))
    a, b = rng.normal(size=(2, n, 3)) * scale
    np.testing.assert_array_equal(cross(a, b), np.cross(a, b))
    # One 3-vector against every row, on either side.
    np.testing.assert_array_equal(cross(fixed, b), np.cross(fixed, b))
    np.testing.assert_array_equal(cross(a, fixed), np.cross(a, fixed))
    np.testing.assert_array_equal(cross(a[0], b[0]), np.cross(a[0], b[0]))


# ---------------------------------------------------------------------------
# Constellation
# ---------------------------------------------------------------------------

def test_default_constellation_layout():
    c = default_constellation()
    assert len(c) == 31
    raans = sorted({round(s["raan"], 9) for s in c.satellites})
    assert len(raans) == 6
    for s in c.satellites:
        assert s["a"] == pytest.approx(26_560e3)
        assert s["inc"] == pytest.approx(math.radians(55.0))
    # Orbital radius is honored by the element conversion.
    st = c.state_at(0, 0.0)
    assert np.linalg.norm(st.position) == pytest.approx(26_560e3, rel=1e-12)


def test_kepler_elements_eccentric_orbit():
    # Perigee/apogee radii of an eccentric orbit come out exactly.
    a, e = 2.66e7, 0.1
    st_peri = kepler_elements_to_state(a, e, 0.9, 0.3, 0.5, 0.0)
    assert np.linalg.norm(st_peri.position) == pytest.approx(a * (1 - e),
                                                             rel=1e-12)
    st_apo = kepler_elements_to_state(a, e, 0.9, 0.3, 0.5, math.pi)
    assert np.linalg.norm(st_apo.position) == pytest.approx(a * (1 + e),
                                                            rel=1e-9)
    # Energy matches the vis-viva value.
    assert specific_energy(st_peri, include_j2=False) == pytest.approx(
        -MU_EARTH / (2 * a), rel=1e-12)


# ---------------------------------------------------------------------------
# Visibility
# ---------------------------------------------------------------------------

GEO_R = 42_164e3


def test_visibility_earth_occlusion():
    receiver = OrbitState([GEO_R, 0, 0], [0, 3075.0, 0])
    gps = OrbitState([-26_560e3, 0, 0], [0, -3875.0, 0])  # directly behind Earth
    vis, _ = visibility(receiver, gps, mode="sidelobe")
    assert not vis


def test_visibility_cone_modes():
    # Transmitter at +x pointing nadir (-x); receiver placed 40 degrees off
    # the boresight at the same distance scale, line of sight clear of Earth.
    gps_pos = np.array([26_560e3, 0.0, 0.0])
    ang = math.radians(40.0)
    direction = np.array([-math.cos(ang), 0.0, math.sin(ang)])
    receiver_pos = gps_pos + 50_000e3 * direction
    gps = OrbitState(gps_pos, [0, 3875.0, 0])
    receiver = OrbitState(receiver_pos, [0, 3075.0, 0])
    vis_side, arr = visibility(receiver, gps, mode="sidelobe")
    vis_main, _ = visibility(receiver, gps, mode="mainlobe")
    assert vis_side and arr is not None
    assert not vis_main
    with pytest.raises(ValueError):
        visibility(receiver, gps, mode="backlobe")


def test_visibility_arrival_direction_in_sensor_frame():
    receiver = OrbitState([7e6, 0, 0], [0, 7500.0, 0])
    gps = OrbitState([26_560e3, 0, 0], [0, 3875.0, 0])
    # Sensor frame: boresight +z toward +x ECI.
    dcm = np.array([[0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0],
                    [1.0, 0.0, 0.0]])
    vis, (az, el) = visibility(receiver, gps, mode="mainlobe",
                               dcm_eci_to_sensor=dcm)
    assert vis
    assert az == pytest.approx(0.0, abs=1e-12)
    assert el == pytest.approx(0.0, abs=1e-12)


def test_leo_sees_at_least_six_mainlobe_average():
    c = default_constellation()
    state = circular_leo()
    counts = []
    s = state
    dt = LEO_PERIOD / 16.0
    for _ in range(16):
        n_vis = 0
        for k in range(len(c)):
            gps = c.state_at(k, s.epoch)
            vis, _ = visibility(s, gps, mode="mainlobe")
            n_vis += vis
        counts.append(n_vis)
        s = propagate(s, dt)
    assert np.mean(counts) >= 6.0


# ---------------------------------------------------------------------------
# Stacked inputs: one call over many satellites equals one call per satellite
# ---------------------------------------------------------------------------

def _assert_visibility_rows_match(receiver, gps, mode, dcm=None):
    """Stacked GPS rows against one receiver give the per-row results."""
    vis, (az, el) = visibility(receiver, gps, mode, dcm)
    assert vis.shape == (len(gps.position),)
    for k, (p, v) in enumerate(zip(gps.position, gps.velocity)):
        ok, arrival = visibility(receiver, OrbitState(p, v), mode, dcm)
        assert ok == vis[k], k
        if ok:
            np.testing.assert_allclose((az[k], el[k]), arrival,
                                       rtol=1e-12, atol=1e-15)
    return vis


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["mainlobe", "sidelobe"]))
def test_constellation_and_visibility_batched_match_scalar(seed, mode):
    rng = np.random.default_rng(seed)
    c = default_constellation()
    t = float(rng.uniform(0.0, 86400.0))
    idx = rng.permutation(len(c))[:int(rng.integers(1, len(c) + 1))]
    stacked = c.state_at(idx, t)
    for k, s in enumerate(idx):
        single = c.state_at(int(s), t)
        np.testing.assert_allclose(stacked.position[k], single.position,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(stacked.velocity[k], single.velocity,
                                   rtol=1e-12, atol=0.0)
    radius = float(rng.choice([LEO_A, 42_164e3]))
    direction = rng.normal(size=3)
    receiver = OrbitState(radius * direction / np.linalg.norm(direction),
                          rng.normal(size=3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    _assert_visibility_rows_match(receiver, stacked, mode, q)
    _assert_visibility_rows_match(receiver, stacked, mode)


def _assert_pairs_match(receiver_rows, gps_rows, mode):
    """Stacked receiver/GPS pairs give the per-pair results."""
    vis, _ = visibility(OrbitState(receiver_rows, np.zeros_like(receiver_rows)),
                        OrbitState(gps_rows, np.zeros_like(gps_rows)), mode)
    for k, (rpos, gpos) in enumerate(zip(receiver_rows, gps_rows)):
        ok, _ = visibility(OrbitState(rpos, [0.0, 7e3, 0.0]),
                           OrbitState(gpos, [0.0, 3875.0, 0.0]), mode)
        assert ok == vis[k], k
    return vis


def test_visibility_batched_edges_match_scalar():
    # Segments whose closest approach grazes the mask sphere: just inside,
    # exactly on, and just outside it, then one straight through the Earth.
    mask = R_EARTH + ATMOSPHERE_MASK_HEIGHT
    ys = [np.nextafter(mask, 0.0), mask, np.nextafter(mask, np.inf), 0.0]
    vis = _assert_pairs_match(np.array([[-8e6, y, 0.0] for y in ys]),
                              np.array([[3e7, y, 0.0] for y in ys]),
                              "sidelobe")
    assert vis[2] and not vis[3]
    # Receivers around the mainlobe half-cone of a transmitter on +x.
    gps_pos = np.array([26_560e3, 0.0, 0.0])
    h = GPS_MAINLOBE_HALFCONE
    angles = [h - 1e-9, np.nextafter(h, 0.0), h, np.nextafter(h, 4.0), h + 1e-9]
    receivers = np.array([gps_pos + 5e7 * np.array([-math.cos(a), 0.0,
                                                    math.sin(a)])
                          for a in angles])
    vis = _assert_pairs_match(receivers, np.tile(gps_pos, (len(angles), 1)),
                              "mainlobe")
    assert vis[0] and not vis[-1]
