"""Navigation-filter tests: state layout, propagation consistency,
measurement geometry, gating, integer-fix application, steady-state
variance analysis."""

import math

import numpy as np
import pytest

from cdgps.constants import ARCSEC, L1_WAVELENGTH, MU_EARTH, R_EARTH
from cdgps.iar import success_rate
from cdgps.measurements import MeasurementEpoch
from cdgps.navfilter import (
    AMB_SD,
    AMB_ZD,
    BIASES,
    CHIEF_CLOCK,
    CHIEF_POS,
    CHIEF_VEL,
    DEPUTY_CLOCK,
    DEPUTY_POS,
    DEPUTY_VEL,
    N_CHANNELS,
    N_STATES,
    REFERENCE_STEP,
    DareResult,
    FilterState,
    FilterTuning,
    _external_rows,
    _gps_rows,
    _joint_update,
    allocate_channels,
    apply_fixes,
    constrain_linear,
    dare_steady_state,
    initialize_filter,
    measurement_update,
    time_update,
)
from cdgps.orbits import OrbitState, propagate

RNG = np.random.default_rng(20240814)


# ---------------------------------------------------------------------------
# Fixtures: a truth scenario small enough to reason about by hand
# ---------------------------------------------------------------------------

def make_truth():
    r = 6778137.0
    v = math.sqrt(MU_EARTH / r)
    inc = math.radians(51.6)
    chief = OrbitState(position=np.array([r, 0.0, 0.0]),
                       velocity=np.array([0.0, v * math.cos(inc), v * math.sin(inc)]))
    deputy = OrbitState(position=chief.position + np.array([3.0, 700.0, 400.0]),
                        velocity=chief.velocity + np.array([-0.05, 0.0, 0.02]))
    return chief, deputy


def make_gps_positions():
    """Six synthetic GPS satellites with spread-out geometry."""
    directions = np.array([
        [1.0, 0.2, 0.1], [0.3, 1.0, -0.2], [-0.1, 0.4, 1.0],
        [0.8, -0.6, 0.3], [-0.3, 0.9, 0.5], [0.5, 0.5, -0.7],
    ])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return {gid: 26560e3 * d for gid, d in enumerate(directions)}


TRUE_CLOCKS = (4.2, -2.7)  # m
TRUE_BIASES = (0.05, 500.0 * ARCSEC, -500.0 * ARCSEC)  # range, az, el


def true_graphic(rx_pos, clock, gps_pos, n_zd):
    """Independent GRAPHIC model: range + clock + (wavelength/2) * float."""
    return float(np.linalg.norm(gps_pos - rx_pos)) + clock \
        + 0.5 * L1_WAVELENGTH * n_zd


def true_sdcp_cycles(rc, rd, clock_c, clock_d, gps_pos, n_sd):
    meters = (float(np.linalg.norm(gps_pos - rc))
              - float(np.linalg.norm(gps_pos - rd))
              + clock_c - clock_d)
    return meters / L1_WAVELENGTH + n_sd


def build_exact_epoch(chief, deputy, gps_positions, n_zd, n_sd,
                      clocks=TRUE_CLOCKS, biases=TRUE_BIASES,
                      attitude=None, time=0.0, with_external=True,
                      tracks=None):
    """Measurements consistent with the documented observation equations,
    aligned to the ascending ids of ``gps_positions``; ``tracks`` maps each
    id to its (chief, deputy) track, by default ``one_track``."""
    att = np.eye(3) if attitude is None else attitude
    gids = sorted(gps_positions)
    tracks = one_track(gids) if tracks is None else tracks
    graphic = {"chief": [], "deputy": []}
    sdcp = []
    for gid in gids:
        gp = gps_positions[gid]
        graphic["chief"].append(
            true_graphic(chief.position, clocks[0], gp, n_zd[gid]))
        graphic["deputy"].append(
            true_graphic(deputy.position, clocks[1], gp,
                         n_zd[gid] - n_sd[gid]))
        sdcp.append(true_sdcp_cycles(chief.position, deputy.position,
                                     clocks[0], clocks[1], gp, n_sd[gid]))
    rng_obs = None
    brg_obs = None
    if with_external:
        # Chaser-mounted sensors observe the target: chief minus deputy.
        rho = att @ (chief.position - deputy.position)
        rng_obs = float(np.linalg.norm(rho)) + biases[0]
        az = math.asin(rho[1] / np.linalg.norm(rho)) + biases[1]
        el = math.atan2(rho[0], rho[2]) + biases[2]
        brg_obs = (az, el)
    return MeasurementEpoch(
        time=time, gps_ids=gids, graphic=graphic, sdcp=sdcp,
        tracks=[tracks[g] for g in gids],
        gps_positions=np.array([gps_positions[g] for g in gids]).reshape(-1, 3),
        extra_variance=np.zeros((len(gids), 3)),
        range_obs=rng_obs, bearing_obs=brg_obs, attitude=att)


def slot_of(state, gid):
    """Ambiguity slot holding satellite ``gid``."""
    return int(np.flatnonzero(state.channel_ids == gid)[0])


def one_track(gps_ids):
    """Tracks of satellites each held on one (chief, deputy) track."""
    return {gid: (gid + 1, gid + 1) for gid in gps_ids}


def tracked_epoch(chief, deputy, tracks, time):
    """Exact clock-free observations, every ambiguity zero, of the
    satellites in ``tracks`` (GPS id -> (chief, deputy) track), each at a
    synthetic position of its own."""
    gps = {g: 26560e3 * np.array([math.cos(0.7 * g), math.sin(0.7 * g), 0.5])
           for g in tracks}
    zeros = dict.fromkeys(tracks, 0.0)
    return build_exact_epoch(chief, deputy, gps, zeros, zeros, clocks=(0.0, 0.0),
                             time=time, tracks=tracks)


def truth_filter_state(chief, deputy, gps_positions, n_zd, n_sd,
                       tuning, clocks=TRUE_CLOCKS, biases=TRUE_BIASES):
    """Filter state whose mean equals the truth exactly."""
    state = initialize_filter(chief, deputy, tuning)
    allocate_channels(state, build_exact_epoch(chief, deputy, gps_positions,
                                               n_zd, n_sd), tuning)
    state.x[CHIEF_CLOCK] = clocks[0]
    state.x[DEPUTY_CLOCK] = clocks[1]
    for gid in gps_positions:
        slot = slot_of(state, gid)
        state.x[AMB_ZD.start + slot] = n_zd[gid]
        state.x[AMB_SD.start + slot] = n_sd[gid]
    state.x[BIASES] = biases
    return state


N_ZD = {0: 11254.0, 1: -8731.0, 2: 2048.0, 3: -115.0, 4: 9999.0, 5: 312.0}
N_SD = {0: 14.0, 1: -7.0, 2: 3.0, 3: 0.0, 4: -22.0, 5: 5.0}


def fix_channels(state, slots, values):
    """Condition the single-difference floats of ``slots`` on ``values``
    with unit rows, then flag the slots fixed."""
    rows = np.zeros((len(slots), N_STATES))
    rows[np.arange(len(slots)), AMB_SD.start + np.asarray(slots)] = 1.0
    return apply_fixes(constrain_linear(state, rows, values), slots)


# ---------------------------------------------------------------------------
# Layout and initialization
# ---------------------------------------------------------------------------

def test_state_layout_dimensions():
    assert N_STATES == 71
    assert N_CHANNELS == 24
    assert AMB_ZD == slice(20, 44)
    assert AMB_SD == slice(44, 68)
    assert BIASES == slice(68, 71)
    chief, deputy = make_truth()
    st = initialize_filter(chief, deputy, FilterTuning())
    assert st.x.shape == (71,)
    assert st.covariance.shape == (71, 71)
    assert np.allclose(st.x[CHIEF_POS], chief.position)
    assert np.allclose(st.x[DEPUTY_VEL], deputy.velocity)
    assert np.all(st.channel_ids == -1)
    assert not np.any(st.fixed_mask)


def test_initial_covariance_matches_tuning():
    tuning = FilterTuning()
    chief, deputy = make_truth()
    st = initialize_filter(chief, deputy, tuning)
    d = np.diag(st.covariance)
    assert np.allclose(d[CHIEF_POS], tuning.init_pos ** 2)
    assert np.allclose(d[DEPUTY_VEL], tuning.init_vel ** 2)
    assert np.allclose(d[6:9], np.square(tuning.init_accel))
    assert d[CHIEF_CLOCK] == pytest.approx(tuning.init_clock ** 2)
    assert np.allclose(d[AMB_ZD], tuning.init_amb ** 2)
    assert d[BIASES.start] == pytest.approx(tuning.init_range_bias ** 2)
    assert d[BIASES.start + 1] == pytest.approx(tuning.init_angle_bias ** 2)
    # Strictly block diagonal at start
    off = st.covariance - np.diag(d)
    assert np.max(np.abs(off)) == 0.0


def test_channel_allocation_and_eviction():
    tuning = FilterTuning()
    chief, deputy = make_truth()
    st = initialize_filter(chief, deputy, tuning)
    mapping = allocate_channels(
        st, tracked_epoch(chief, deputy, one_track(range(24)), 0.0), tuning)
    assert len(mapping) == 24
    assert sorted(mapping.values()) == list(range(24))

    # Age the slots, then bring in a new satellite: the stalest slot goes.
    st.last_seen[:] = np.arange(24, dtype=float)
    st.covariance[AMB_SD.start + 0, AMB_SD.start + 0] = 1.0  # converged channel
    st.covariance[AMB_SD.start, CHIEF_POS] = 0.2
    st.x[AMB_SD.start] = 5.0
    mapping = allocate_channels(
        st, tracked_epoch(chief, deputy, one_track([99]), 100.0), tuning)
    assert mapping[99] == 0  # slot 0 was least recently seen
    assert st.channel_ids[0] == 99
    # Reset to initialization variance, correlations cleared, and the float
    # warm-started from the epoch (whose ambiguities are zero).
    assert st.covariance[AMB_SD.start, AMB_SD.start] == tuning.init_amb ** 2
    assert np.count_nonzero(st.covariance[AMB_SD.start]) == 1
    assert st.x[AMB_SD.start] == pytest.approx(0.0, abs=1e-6)
    # Persisting satellite keeps its slot
    slot_5 = slot_of(st, 5)
    mapping = allocate_channels(
        st, tracked_epoch(chief, deputy, one_track([5]), 200.0), tuning)
    assert mapping[5] == slot_5


def test_channel_age_counts_epochs_on_one_track():
    tuning = FilterTuning()
    chief, deputy = make_truth()
    st = initialize_filter(chief, deputy, tuning)
    tracks = one_track(range(N_CHANNELS))
    for n in (1, 2, 3):
        allocate_channels(st, tracked_epoch(chief, deputy, tracks, 30.0 * n),
                          tuning)
        assert np.all(st.age == n)

    # Satellite 0 sets and satellite 99 takes over its slot: the slot
    # restarts at age 1, the others keep counting.
    del tracks[0]
    tracks[99] = (100, 100)
    mapping = allocate_channels(
        st, tracked_epoch(chief, deputy, tracks, 120.0), tuning)
    assert mapping[99] == 0
    assert st.age[0] == 1
    assert all(st.age[mapping[g]] == 4 for g in range(1, N_CHANNELS))

    # A slot whose satellite is not tracked this epoch reads 0.
    del tracks[5]
    allocate_channels(st, tracked_epoch(chief, deputy, tracks, 150.0), tuning)
    assert st.age[slot_of(st, 5)] == 0
    assert st.age[0] == 2


def test_more_satellites_than_channels_drops_the_extra_id():
    # An epoch with one common id more than there are channels: the extra
    # id gets no slot, no slot held by an id of the epoch is evicted for
    # it, and the update builds rows for the held ids only.
    tuning = FilterTuning()
    chief, deputy = make_truth()
    st = initialize_filter(chief, deputy, tuning)
    mapping = allocate_channels(
        st, tracked_epoch(chief, deputy, one_track(range(N_CHANNELS + 1)),
                          0.0), tuning)
    assert sorted(mapping) == list(range(N_CHANNELS))
    held = dict(mapping)

    # Ids 1 ... 25: id 24 takes the slot of id 0, the only held id not in
    # the epoch; id 25 finds no slot left.
    tracks = one_track(range(1, N_CHANNELS + 2))
    epoch = tracked_epoch(chief, deputy, tracks, 30.0)
    assert len(epoch.gps_ids) == N_CHANNELS + 1
    mapping = allocate_channels(st, epoch, tuning)
    assert len(mapping) == N_CHANNELS
    assert N_CHANNELS + 1 not in mapping
    assert mapping[N_CHANNELS] == held[0]
    assert all(mapping[g] == held[g] for g in range(1, N_CHANNELS))
    assert sorted(st.channel_ids) == list(range(1, N_CHANNELS + 1))

    # The update reads the same rows as one from an epoch without the
    # extra id.
    del tracks[N_CHANNELS + 1]
    without = tracked_epoch(chief, deputy, tracks, 30.0)
    out, report = measurement_update(st, epoch, tuning, use_external=False)
    ref, ref_report = measurement_update(st, without, tuning,
                                         use_external=False)
    assert report.n_rows == 3 * N_CHANNELS
    assert np.array_equal(report.innovations, ref_report.innovations)
    assert np.array_equal(out.x, ref.x)
    assert np.array_equal(out.covariance, ref.covariance)


def test_reacquisition_restarts_and_warm_starts_the_slot():
    # A satellite that keeps its slot but comes back on a new track carries
    # a new ambiguity: its slot restarts unfixed at the initialization
    # variance, aged 1, with floats warm-started from the epoch.
    tuning = FilterTuning()
    chief, deputy = make_truth()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    tracks = one_track(gps)
    slots = allocate_channels(st, build_exact_epoch(chief, deputy, gps, N_ZD,
                                                    N_SD, time=30.0,
                                                    tracks=tracks), tuning)
    slot = slots[2]
    zd = AMB_ZD.start + slot
    st.covariance[zd, CHIEF_POS] = st.covariance[CHIEF_POS, zd] = 0.3
    st = fix_channels(st, [slot], [N_SD[2]])
    before = st.copy()

    # The chief re-acquires satellite 2 with an ambiguity 17 cycles over.
    tracks[2] = (50, tracks[2][1])
    n_zd = {g: N_ZD[g] + (17 if g == 2 else 0) for g in N_ZD}
    n_sd = {g: N_SD[g] + (17 if g == 2 else 0) for g in N_SD}
    epoch = build_exact_epoch(chief, deputy, gps, n_zd, n_sd, time=60.0,
                              tracks=tracks)
    assert allocate_channels(st, epoch, tuning) == slots

    assert not st.fixed_mask[slot]
    assert st.age[slot] == 1
    assert all(st.age[s] == 3 for g, s in slots.items() if g != 2)
    assert tuple(st.track[slot]) == tracks[2]
    for idx in (AMB_ZD.start + slot, AMB_SD.start + slot):
        assert st.covariance[idx, idx] == tuning.init_amb ** 2
        assert np.count_nonzero(st.covariance[idx]) == 1
        assert np.count_nonzero(st.covariance[:, idx]) == 1
    assert st.x[AMB_ZD.start + slot] == pytest.approx(n_zd[2], abs=1e-6)
    assert st.x[AMB_SD.start + slot] == pytest.approx(n_sd[2], abs=1e-6)
    others = [i for i in range(N_STATES)
              if i not in (AMB_ZD.start + slot, AMB_SD.start + slot)]
    np.testing.assert_array_equal(st.x[others], before.x[others])


# ---------------------------------------------------------------------------
# Time update
# ---------------------------------------------------------------------------

def test_time_update_mean_matches_truth_propagator():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    acc = np.array([3e-7, -2e-7, 1e-7])
    st.x[6:9] = acc
    out = time_update(st, tuning, 30.0)
    # The filter mean runs through the truth integrator itself.
    ref = propagate(chief, 30.0, empirical_accel_rtn=acc)
    np.testing.assert_array_equal(out.x[CHIEF_POS], ref.position)
    np.testing.assert_array_equal(out.x[CHIEF_VEL], ref.velocity)
    ref_d = propagate(deputy, 30.0)
    np.testing.assert_array_equal(out.x[DEPUTY_POS], ref_d.position)
    np.testing.assert_array_equal(out.x[DEPUTY_VEL], ref_d.velocity)
    assert out.epoch == pytest.approx(30.0)


def test_time_update_rejects_descending_craft():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    # The deputy estimate drops straight at the Earth from 50 km up.
    st.x[DEPUTY_POS] = [R_EARTH + 50e3, 0.0, 0.0]
    st.x[DEPUTY_VEL] = [-3000.0, 500.0, 0.0]
    with pytest.raises(RuntimeError):
        time_update(st, tuning, 30.0)


def test_time_update_gauss_markov_decay():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    st.x[6:9] = [1e-6, 1e-6, 1e-6]
    out = time_update(st, tuning, tuning.tau_accel)
    assert np.allclose(out.x[6:9], np.exp(-1.0) * 1e-6, rtol=1e-12)
    # The random-walk clocks keep their means.
    assert out.x[CHIEF_CLOCK] == TRUE_CLOCKS[0]
    assert out.x[DEPUTY_CLOCK] == TRUE_CLOCKS[1]


def test_time_update_process_noise_and_fixed_channels():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    st = fix_channels(st, [2], [N_SD[2]])
    before_amb = np.diag(st.covariance)[AMB_SD].copy()
    out = time_update(st, tuning, 30.0)
    after_amb = np.diag(out.covariance)[AMB_SD]
    q = tuning.proc_amb ** 2
    # Unfixed channels gained one step of noise; the fixed one gained none.
    assert after_amb[0] == pytest.approx(before_amb[0] + q, rel=1e-9)
    assert before_amb[2] < 1e-9
    assert after_amb[2] == before_amb[2]
    assert np.trace(out.covariance) > np.trace(st.covariance)
    # Scaling: half the step, half the variance gain
    out_half = time_update(st, tuning, 15.0)
    gain_full = np.diag(out.covariance)[AMB_SD.start] - before_amb[0]
    gain_half = np.diag(out_half.covariance)[AMB_SD.start] - before_amb[0]
    assert gain_half == pytest.approx(0.5 * gain_full, rel=1e-6)


def test_time_update_transition_consistency():
    """The finite-difference transition must map small perturbations the
    same way the nonlinear propagation does."""
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    dt = 30.0
    base = time_update(st, tuning, dt)

    delta = np.zeros(N_STATES)
    delta[CHIEF_POS] = [4.0, -3.0, 2.0]
    delta[CHIEF_VEL] = [0.004, 0.002, -0.003]
    delta[6:9] = [2e-7, -1e-7, 1e-7]
    st_p = st.copy()
    st_p.x = st.x + delta
    moved = time_update(st_p, tuning, dt)
    nonlinear = moved.x - base.x

    # Recover the transition matrix column action via the covariance map:
    # instead, rebuild phi by finite differencing time_update itself.
    # Cheaper: compare against the propagated perturbation directly.
    ref_plus = propagate(OrbitState(st.x[CHIEF_POS] + delta[CHIEF_POS],
                                    st.x[CHIEF_VEL] + delta[CHIEF_VEL]),
                         dt, empirical_accel_rtn=delta[6:9])
    assert np.allclose(moved.x[CHIEF_POS], ref_plus.position, atol=1e-6)
    # Deputy untouched by the chief perturbation
    assert np.allclose(nonlinear[DEPUTY_POS], 0.0, atol=1e-9)
    # And the mapped perturbation is nontrivial in position
    assert np.linalg.norm(nonlinear[CHIEF_POS]) > 1.0


def test_time_update_covariance_psd_and_growth():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    out = time_update(st, tuning, 30.0)
    eig = np.linalg.eigvalsh(out.covariance)
    assert eig.min() >= -1e-6 * eig.max()
    assert np.all(np.diag(out.covariance)[AMB_ZD]
                  > np.diag(st.covariance)[AMB_ZD])
    with pytest.raises(ValueError):
        time_update(st, tuning, 0.0)


def _dense_time_update_covariance(st, tuning, dt):
    """``phi P phi^T + diag(q)``, symmetrized, with the dense 71 x 71
    central-difference transition rebuilt from one 38-row propagation."""
    steps = np.array([1.0] * 3 + [1.0e-3] * 3 + [1.0e-8] * 3)
    offsets = np.zeros((19, 9))
    offsets[1::2] = np.diag(steps)
    offsets[2::2] = -np.diag(steps)
    rows = np.concatenate([st.x[0:9] + offsets, st.x[10:19] + offsets])
    end = propagate(OrbitState(rows[:, :3], rows[:, 3:6]), dt, rows[:, 6:])
    ends = np.concatenate([end.position, end.velocity], axis=1).reshape(2, 19, 6)
    decay_acc = math.exp(-dt / tuning.tau_accel)
    scale = dt / REFERENCE_STEP
    phi = np.eye(N_STATES)
    q = np.zeros(N_STATES)
    for c, y in zip((0, 10), ends):
        phi[c:c + 6, c:c + 9] = ((y[1::2] - y[2::2]) / (2.0 * steps[:, None])).T
        phi[c + 6:c + 9, c + 6:c + 9] = decay_acc * np.eye(3)
        q[c:c + 3] = tuning.proc_pos ** 2 * scale
        q[c + 3:c + 6] = tuning.proc_vel ** 2 * scale
        q[c + 6:c + 9] = np.square(tuning.proc_accel) * scale
        q[c + 9] = tuning.proc_clock ** 2 * scale
    q[AMB_ZD] = tuning.proc_amb ** 2 * scale
    q[AMB_SD] = np.where(st.fixed_mask, 0.0, tuning.proc_amb ** 2 * scale)
    cov = phi @ st.covariance @ phi.T + np.diag(q)
    return 0.5 * (cov + cov.T)


def test_time_update_covariance_equals_dense_reference_bit_for_bit():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    st.x[6:9] = [3e-7, -2e-7, 1e-7]
    st.x[16:19] = [-1e-7, 2e-7, 5e-8]
    # A correlated prior: every pair of states correlates.
    rng = np.random.default_rng(7)
    g = rng.normal(size=(N_STATES, N_STATES))
    corr = g @ g.T
    sd = np.sqrt(np.diag(st.covariance) / np.diag(corr))
    st.covariance = sd[:, None] * corr * sd[None, :]
    st = fix_channels(st, [2], [N_SD[2]])
    for dt in (30.0, 10.0, 25.0):
        out = time_update(st, tuning, dt)
        ref = _dense_time_update_covariance(st, tuning, dt)
        np.testing.assert_array_equal(out.covariance, ref)
        assert out.covariance.tobytes() == ref.tobytes()  # signed zeros too
        assert np.all(np.abs(out.covariance[:20, :20]) > 0.0)


# ---------------------------------------------------------------------------
# Measurement rows: finite-difference Jacobian checks
# ---------------------------------------------------------------------------

def _fd_row(fun, state, h_analytic, atol=1e-8):
    """Central-difference check of a prediction function's gradient."""
    base_idx = np.nonzero(np.abs(h_analytic) > 0)[0]
    for idx in base_idx:
        # Predictions are O(1e7) m, so steps below ~0.5 drown in rounding.
        step = max(0.5, 1e-7 * abs(state.x[idx]))
        sp = state.copy()
        sp.x = state.x.copy()
        sp.x[idx] += step
        sm = state.copy()
        sm.x = state.x.copy()
        sm.x[idx] -= step
        grad = (fun(sp) - fun(sm)) / (2.0 * step)
        assert grad == pytest.approx(h_analytic[idx], rel=1e-6, abs=atol)


def _all_gps_rows(state, gps, kind):
    """The ``kind`` block ("chief", "deputy" or "sdcp") of the GPS rows of
    every satellite in ``gps``."""
    gids = sorted(gps)
    pred, h = _gps_rows(state.x, np.array([gps[g] for g in gids]),
                        np.array([slot_of(state, g) for g in gids]))
    k = len(gids)
    i = ("chief", "deputy", "sdcp").index(kind) * k
    return pred[i:i + k], h[i:i + k]


def test_graphic_row_jacobian():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    for receiver in ("chief", "deputy"):
        pred, h = _all_gps_rows(st, gps, receiver)
        assert pred.shape == (len(gps),) and h.shape == (len(gps), N_STATES)
        for i, gid in enumerate(sorted(gps)):
            _fd_row(lambda s, i=i: _all_gps_rows(s, gps, receiver)[0][i],
                    st, h[i])
            # Prediction equals the independent model
            if receiver == "chief":
                expect = true_graphic(chief.position, TRUE_CLOCKS[0], gps[gid],
                                      N_ZD[gid])
            else:
                expect = true_graphic(deputy.position, TRUE_CLOCKS[1],
                                      gps[gid], N_ZD[gid] - N_SD[gid])
            assert pred[i] == pytest.approx(expect, abs=1e-9)
            # The row sees its own slot and no other.
            amb = np.flatnonzero(h[i, AMB_ZD.start:AMB_SD.stop])
            slot = slot_of(st, gid)
            assert amb.tolist() == ([slot] if receiver == "chief" else
                                    [slot, N_CHANNELS + slot])


def test_sdcp_row_jacobian_and_prediction():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    pred, h = _all_gps_rows(st, gps, "sdcp")
    for i, gid in enumerate(sorted(gps)):
        _fd_row(lambda s, i=i: _all_gps_rows(s, gps, "sdcp")[0][i], st, h[i])
        expect_m = true_sdcp_cycles(chief.position, deputy.position,
                                    *TRUE_CLOCKS, gps[gid],
                                    N_SD[gid]) * L1_WAVELENGTH
        assert pred[i] == pytest.approx(expect_m, abs=1e-9)
        slot = slot_of(st, gid)
        assert np.flatnonzero(h[i, AMB_ZD.start:AMB_SD.stop]).tolist() == [
            N_CHANNELS + slot]
        assert h[i, AMB_SD.start + slot] == pytest.approx(L1_WAVELENGTH)
        assert h[i, CHIEF_CLOCK] == 1.0 and h[i, DEPUTY_CLOCK] == -1.0


def test_external_rows_jacobian_and_bias_partials():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    # Non-trivial attitude
    c, s = math.cos(0.3), math.sin(0.3)
    att = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    preds, rows = _external_rows(st, att)
    for i in range(3):
        _fd_row(lambda st_, i_=i: _external_rows(st_, att)[0][i_], st, rows[i],
                atol=1e-7)
        assert rows[i, BIASES.start + i] == 1.0
    # Bias enters the prediction additively
    st2 = st.copy()
    st2.x[BIASES.start] += 0.5
    preds2, _ = _external_rows(st2, att)
    assert preds2[0] - preds[0] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Measurement update behavior
# ---------------------------------------------------------------------------

def test_update_fixed_point_at_truth():
    """Exact measurements at the true state leave the mean in place and
    shrink variance along every observed direction."""
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    epoch = build_exact_epoch(chief, deputy, gps, N_ZD, N_SD)
    out, report = measurement_update(st, epoch, tuning)
    assert report.n_rows == 21  # 12 GRAPHIC + 6 SDCP + 3 external
    assert report.n_rejected == 0
    assert np.max(np.abs(report.innovations)) < 1e-6
    assert np.allclose(out.x, st.x, atol=1e-6)
    assert np.trace(out.covariance) < np.trace(st.covariance)
    eig = np.linalg.eigvalsh(out.covariance)
    assert eig.min() >= -1e-6 * eig.max()


def test_update_variance_never_grows_on_observed_directions():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    epoch = build_exact_epoch(chief, deputy, gps, N_ZD, N_SD)
    out, report = measurement_update(st, epoch, tuning)
    # Reconstruct each accepted row and compare projected variances.
    assert report.n_rejected == 0
    for kind in ("chief", "deputy", "sdcp"):
        _, h = _all_gps_rows(st, gps, kind)
        before = np.sum((h @ st.covariance) * h, axis=1)
        after = np.sum((h @ out.covariance) * h, axis=1)
        assert np.all(after <= before * (1.0 + 1e-9))


def _reference_update(state, epoch, tuning, drop=()):
    """Row-by-row update: each GPS row built on its own with a linear slot
    scan, the gate's variances from a three-operand einsum.  Also returns
    each row's key, (kind, GPS id) or the external observable's name; rows
    whose key is in ``drop`` are left out."""
    x, wavelength = state.x, L1_WAVELENGTH
    half = 0.5 * wavelength

    def slot(gid):
        hits = np.nonzero(state.channel_ids == gid)[0]
        return int(hits[0]) if hits.size else -1

    preds, rows, values, variances, keys = [], [], [], [], []

    def add(key, pred, h, value, variance):
        if key not in drop:
            preds.append(pred)
            rows.append(h)
            values.append(value)
            variances.append(variance)
            keys.append(key)

    for col, receiver in enumerate(("chief", "deputy")):
        pos_sl, clk = ((CHIEF_POS, CHIEF_CLOCK) if receiver == "chief"
                       else (DEPUTY_POS, DEPUTY_CLOCK))
        for i, gid in enumerate(epoch.gps_ids):
            k = slot(gid)
            if k < 0:
                continue
            los = epoch.gps_positions[i] - x[pos_sl]
            rng = float(np.linalg.norm(los))
            los = los / rng
            h = np.zeros(N_STATES)
            pred = rng + x[clk]
            h[pos_sl] = -los
            h[clk] = 1.0
            zd, sd = AMB_ZD.start + k, AMB_SD.start + k
            h[zd] = half
            if receiver == "chief":
                pred += half * x[zd]
            else:
                pred += half * (x[zd] - x[sd])
                h[sd] = -half
            add((receiver, gid), pred, h, epoch.graphic[receiver][i],
                tuning.meas_code ** 2 + epoch.extra_variance[i, col])
    for i, gid in enumerate(epoch.gps_ids):
        k = slot(gid)
        if k < 0:
            continue
        los_c = epoch.gps_positions[i] - x[CHIEF_POS]
        rng_c = float(np.linalg.norm(los_c))
        los_c = los_c / rng_c
        los_d = epoch.gps_positions[i] - x[DEPUTY_POS]
        rng_d = float(np.linalg.norm(los_d))
        los_d = los_d / rng_d
        sd = AMB_SD.start + k
        h = np.zeros(N_STATES)
        h[CHIEF_POS] = -los_c
        h[DEPUTY_POS] = los_d
        h[CHIEF_CLOCK] = 1.0
        h[DEPUTY_CLOCK] = -1.0
        h[sd] = wavelength
        add(("sdcp", gid),
            (rng_c - rng_d) + (x[CHIEF_CLOCK] - x[DEPUTY_CLOCK])
            + wavelength * x[sd], h, wavelength * epoch.sdcp[i],
            tuning.meas_carrier ** 2 + epoch.extra_variance[i, 2])
    ext_pred, ext_rows = _external_rows(state, epoch.attitude)
    for i, (name, value, var) in enumerate((
            ("range", epoch.range_obs, tuning.meas_range ** 2),
            ("azimuth", epoch.bearing_obs[0], tuning.meas_angle ** 2),
            ("elevation", epoch.bearing_obs[1], tuning.meas_angle ** 2))):
        add(name, ext_pred[i], ext_rows[i], value, var)

    h_all = np.vstack(rows)
    innov = np.asarray(values) - np.asarray(preds)
    r_all = np.asarray(variances)
    p = state.covariance
    s_diag = np.einsum("ij,jk,ik->i", h_all, p, h_all) + r_all
    gate = np.abs(innov) <= tuning.gate_sigma * np.sqrt(s_diag)
    x_new, cov_new = _joint_update(x, p, h_all[gate], innov[gate], r_all[gate])
    return x_new, cov_new, innov, gate, keys


def _add_satellite(epoch, gid, position, graphic, sdcp, track):
    """Append one satellite's observations to an epoch whose ids are all
    below ``gid``, keeping every GPS field aligned."""
    epoch.gps_ids = epoch.gps_ids + [gid]
    epoch.graphic = {rx: epoch.graphic[rx] + [graphic] for rx in epoch.graphic}
    epoch.sdcp = epoch.sdcp + [sdcp]
    epoch.tracks = epoch.tracks + [track]
    epoch.gps_positions = np.vstack([epoch.gps_positions, position])
    epoch.extra_variance = np.vstack([epoch.extra_variance, np.zeros(3)])


def test_update_matches_row_by_row_reference_bit_for_bit():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    # A correlated prior tight enough for the gate to bite, and a mean off
    # the truth so that every innovation is nonzero.
    st.covariance = np.eye(N_STATES)
    st.covariance = time_update(st, tuning, 30.0).covariance
    rng = np.random.default_rng(31)
    st.x = st.x + rng.normal(scale=0.3, size=N_STATES)
    c, s = math.cos(0.7), math.sin(0.7)
    att = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    epoch = build_exact_epoch(chief, deputy, gps, N_ZD, N_SD, attitude=att,
                              time=30.0)
    # Satellite 9 has a position and observations but no slot; satellite
    # 3's SDCP is spiked; the deputy GRAPHIC of satellite 1 and the SDCP of
    # satellite 5 carry extra variance.
    _add_satellite(epoch, 9, 26560e3 * np.array([0.0, -0.6, 0.8]),
                   2.0e7, 1.0, (10, 10))
    epoch.sdcp[3] += 1e5
    epoch.extra_variance[1, 1] = 0.3
    epoch.extra_variance[5, 2] = 1e-4

    out, report = measurement_update(st, epoch, tuning)
    x_ref, cov_ref, innov_ref, gate_ref, keys = _reference_update(
        st, epoch, tuning)
    assert report.n_rows == len(keys) == 3 * 6 + 3
    assert not any(key[1] == 9 for key in keys[:-3])
    # Bit-equal innovations check the row order too.
    np.testing.assert_array_equal(report.innovations, innov_ref)
    np.testing.assert_array_equal(report.gate_flags, gate_ref)
    assert report.n_rejected == 1 and not gate_ref[keys.index(("sdcp", 3))]
    np.testing.assert_array_equal(out.x, x_ref)
    np.testing.assert_array_equal(out.covariance, cov_ref)
    # The extra variances entered: without them the update differs.
    epoch.extra_variance[:] = 0.0
    plain, _ = measurement_update(st, epoch, tuning)
    assert not np.array_equal(plain.covariance, out.covariance)


def test_use_external_switches_the_range_and_bearing_rows():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    epoch = build_exact_epoch(chief, deputy, gps, N_ZD, N_SD)
    assert epoch.range_obs is not None and epoch.bearing_obs is not None

    _, off = measurement_update(st, epoch, tuning, use_external=False)
    assert off.n_rows == 3 * len(gps)
    _, on = measurement_update(st, epoch, tuning, use_external=True)
    assert on.n_rows == 3 * len(gps) + 3
    # The GPS rows come first, then range, azimuth and elevation.
    np.testing.assert_array_equal(on.innovations[:off.n_rows],
                                  off.innovations)
    ext_pred, _ = _external_rows(st, epoch.attitude)
    np.testing.assert_array_equal(
        on.innovations[off.n_rows:],
        np.array([epoch.range_obs, *epoch.bearing_obs]) - ext_pred)


def test_update_without_rows_is_identity():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    epoch = MeasurementEpoch(time=0.0)
    out, report = measurement_update(st, epoch, tuning)
    assert report.n_rows == 0
    assert np.array_equal(out.x, st.x)
    assert np.array_equal(out.covariance, st.covariance)


def test_innovation_gate_rejects_spike():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    # Tighten the prior so the gate has teeth
    st.covariance = np.diag(np.full(N_STATES, 1.0))
    epoch = build_exact_epoch(chief, deputy, gps, N_ZD, N_SD)
    spiked = build_exact_epoch(chief, deputy, gps, N_ZD, N_SD)
    spiked.sdcp[3] += 5000.0
    out_sp, report = measurement_update(st, spiked, tuning)
    assert report.n_rejected == 1
    # Rows: chief GRAPHIC, deputy GRAPHIC, then SDCP, each in id order.
    bad = 2 * len(gps) + spiked.gps_ids.index(3)
    assert not report.gate_flags[bad]
    assert abs(report.innovations[bad]) > 1000.0 * L1_WAVELENGTH

    # Dropping the row entirely must give the same answer.
    x_cl, cov_cl, _, gate_cl, _ = _reference_update(
        st, epoch, tuning, drop={("sdcp", 3)})
    assert gate_cl.all()
    assert np.allclose(out_sp.x, x_cl, atol=1e-9)
    assert np.allclose(out_sp.covariance, cov_cl, atol=1e-9)


def test_all_rows_rejected_leaves_state_untouched():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = {0: make_gps_positions()[0]}
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    st.covariance = np.eye(N_STATES) * 1e-4
    epoch = build_exact_epoch(chief, deputy, gps, N_ZD, N_SD,
                              with_external=False)
    epoch.graphic = {rx: [v + 1e5] for rx, (v,) in epoch.graphic.items()}
    epoch.sdcp = [1e7]
    out, report = measurement_update(st, epoch, tuning)
    assert report.n_rows == 3 and report.n_rejected == 3
    assert np.array_equal(out.x, st.x)


def test_joint_update_equals_sequential_on_linear_problem():
    """On a purely linear problem the stacked update and one-row-at-a-time
    updates agree to tight tolerance (order irrelevant)."""
    rng = np.random.default_rng(7)
    n, m = 8, 5
    a = rng.normal(size=(n, n))
    p0 = a @ a.T + n * np.eye(n)
    x0 = rng.normal(size=n)
    h = rng.normal(size=(m, n))
    r = rng.uniform(0.5, 2.0, size=m)
    z = h @ rng.normal(size=n) + rng.normal(size=m)

    xj, pj = _joint_update(x0, p0, h, z - h @ x0, r)

    xs, ps = x0.copy(), p0.copy()
    for i in range(m):
        xs, ps = _joint_update(xs, ps, h[i:i + 1], np.array([z[i] - h[i] @ xs]),
                               r[i:i + 1])
    assert np.allclose(xj, xs, atol=1e-8)
    assert np.allclose(pj, ps, atol=1e-8)


# ---------------------------------------------------------------------------
# Fix application
# ---------------------------------------------------------------------------

def test_apply_fixes_flags_without_touching_the_state():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    st.x[AMB_SD.start + 1] = -6.7  # a float, not an integer
    out = apply_fixes(st, [1, 4])
    assert out.fixed_mask[1] and out.fixed_mask[4]
    assert np.count_nonzero(out.fixed_mask) == 2
    np.testing.assert_array_equal(out.x, st.x)
    np.testing.assert_array_equal(out.covariance, st.covariance)
    # Input untouched
    assert not st.fixed_mask.any()
    # Empty fix set is the identity
    same = apply_fixes(st, [])
    assert not same.fixed_mask.any()
    assert np.array_equal(same.x, st.x)


def test_refixing_raises():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    out = fix_channels(st, [3], [0.0])
    with pytest.raises(ValueError):
        apply_fixes(out, [3])
    with pytest.raises(ValueError):
        apply_fixes(out, [2, 3])
    assert not out.fixed_mask[2]


def test_fixed_channel_tightens_baseline_through_sdcp():
    """A fixed ambiguity turns its SDCP row into a baseline constraint:
    posterior relative-position variance must beat the float counterpart."""
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()
    st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
    # Moderate prior: position uncertain, ambiguities somewhat converged
    d = np.full(N_STATES, 1e-6)
    d[CHIEF_POS] = 25.0
    d[DEPUTY_POS] = 25.0
    d[AMB_SD] = 0.25
    st.covariance = np.diag(d)

    epoch = build_exact_epoch(chief, deputy, gps, N_ZD, N_SD, with_external=False)

    float_out, _ = measurement_update(st, epoch, tuning)
    fixed = fix_channels(st, list(range(6)), [N_SD[g] for g in range(6)])
    fixed_out, _ = measurement_update(fixed, epoch, tuning)

    def rel_var(s):
        p = s.covariance
        block = (p[CHIEF_POS, CHIEF_POS] + p[DEPUTY_POS, DEPUTY_POS]
                 - p[CHIEF_POS, DEPUTY_POS] - p[DEPUTY_POS, CHIEF_POS])
        return np.trace(block)

    assert rel_var(fixed_out) < rel_var(float_out) * 0.9


def test_constrain_linear_enforces_exactly():
    chief, deputy = make_truth()
    tuning = FilterTuning()
    st = truth_filter_state(chief, deputy, make_gps_positions(), N_ZD, N_SD, tuning)
    rows = np.zeros((2, N_STATES))
    rows[0, AMB_SD.start] = 1.0
    rows[0, AMB_SD.start + 1] = -2.0
    rows[1, AMB_SD.start + 2] = 1.0
    vals = np.array([3.0, 7.0])
    out = constrain_linear(st, rows, vals)
    assert np.allclose(rows @ out.x, vals, atol=1e-8)
    s_post = rows @ out.covariance @ rows.T
    assert np.max(np.abs(s_post)) < 1e-6
    # Uncorrelated directions keep their variance
    assert out.covariance[CHIEF_POS.start, CHIEF_POS.start] == pytest.approx(
        st.covariance[CHIEF_POS.start, CHIEF_POS.start], rel=1e-9)
    eig = np.linalg.eigvalsh(out.covariance)
    assert eig.min() >= -1e-6 * eig.max()


# ---------------------------------------------------------------------------
# Sensor ablation on a short repeated-geometry run
# ---------------------------------------------------------------------------

def test_external_sensors_tighten_relative_state():
    """GPS-plus-sensors beats GPS-only in relative position variance and
    in single-difference ambiguity variance, all else equal."""
    chief, deputy = make_truth()
    tuning = FilterTuning()
    gps = make_gps_positions()

    def run(with_external):
        st = truth_filter_state(chief, deputy, gps, N_ZD, N_SD, tuning)
        c, d = chief, deputy
        for k in range(8):
            st = time_update(st, tuning, 30.0)
            c = propagate(c, 30.0)
            d = propagate(d, 30.0)
            epoch = build_exact_epoch(c, d, gps, N_ZD, N_SD, time=st.epoch,
                                      with_external=with_external)
            st, rep = measurement_update(st, epoch, tuning)
            assert rep.n_rejected == 0
        return st

    gps_only = run(False)
    loose = run(True)

    def rel_trace(s):
        p = s.covariance
        block = (p[CHIEF_POS, CHIEF_POS] + p[DEPUTY_POS, DEPUTY_POS]
                 - p[CHIEF_POS, DEPUTY_POS] - p[DEPUTY_POS, CHIEF_POS])
        return np.trace(block)

    assert rel_trace(loose) < rel_trace(gps_only)
    amb_gps = np.diag(gps_only.covariance)[AMB_SD][:6]
    amb_loose = np.diag(loose.covariance)[AMB_SD][:6]
    assert np.all(amb_loose <= amb_gps * (1.0 + 1e-9))
    assert np.mean(amb_loose) < np.mean(amb_gps)


# ---------------------------------------------------------------------------
# Steady-state Riccati analysis
# ---------------------------------------------------------------------------

def test_dare_steady_state_is_a_fixed_point_of_the_recursion():
    # One measurement update (C = lambda * I, R = r I) then one prediction
    # (+ q I) maps the steady-state variances onto themselves.
    n = 10
    c = L1_WAVELENGTH * np.eye(n)
    for q, r in ((1e-3, 0.25), (1e-3, 0.025), (1e-4, 0.3), (1e-2, 0.01)):
        res = dare_steady_state(q, r, n=n)
        assert res.converged and res.diag.shape == (n,)
        p = np.diag(res.diag)
        k = p @ c.T @ np.linalg.inv(c @ p @ c.T + r * np.eye(n))
        p_next = (np.eye(n) - k @ c) @ p + q * np.eye(n)
        np.testing.assert_allclose(np.diag(p_next), res.diag, rtol=1e-12)


def test_dare_success_probabilities_track_reference_row():
    """Variance sweep reproduces the published acceptance-statistic row to
    a couple of points: ~28%, ~52%, ~95% for the three noise settings."""
    q = 1e-3
    expected = {0.25: 0.2817, 0.125: 0.5179, 0.025: 0.9541}
    got = {}
    for r, ref in expected.items():
        res = dare_steady_state(q, r, n=10)
        p = success_rate(np.sqrt(res.diag))
        got[r] = p
        assert p == pytest.approx(ref, abs=0.02)
    assert got[0.25] < got[0.125] < got[0.025]


def test_dare_zero_process_noise_collapses():
    res = dare_steady_state(0.0, 0.25, n=4)
    assert res.converged
    assert np.allclose(res.diag, 0.0)


def test_dare_input_validation():
    with pytest.raises(ValueError):
        dare_steady_state(-1e-3, 0.25)
    with pytest.raises(ValueError):
        dare_steady_state(1e-3, 0.0)

