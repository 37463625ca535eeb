"""Scenario tests: truth trajectories, measurement synthesis against
independent observable models, integer-resolution attempts, report
reproducibility, and the coupling-mode ablation."""

import dataclasses
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from cdgps import scenario
from cdgps.cli import main as cli_main
from cdgps.constants import L1_WAVELENGTH, MU_EARTH, R_EARTH
from cdgps.errors import TRACKING_THRESHOLD, LinkBudget, carrier_to_noise
from cdgps.measurements import MeasurementEpoch
from cdgps.navfilter import (
    AMB_SD,
    CHIEF_POS,
    DEPUTY_POS,
    N_STATES,
    FilterTuning,
    allocate_channels,
    apply_fixes,
    constrain_linear,
    initialize_filter,
)
from cdgps.orbits import OrbitState, default_constellation
from cdgps.scenario import (
    CHI2_999,
    IAR_MAX_SEARCH,
    IAR_MIN_TRACK,
    RECORD_FIELDS,
    NoiseConfig,
    ScenarioConfig,
    generate_truth,
    geo_preset,
    leo_preset,
    load_preset,
    _attempt_fix,
    _summarize,
    run_scenario,
    synthesize_measurements,
)


def _noise_off():
    """Every stochastic corruption off (noise-free synthesis): the two
    switches off and every amplitude 0."""
    return NoiseConfig(thermal=False, ionosphere=False,
                       multipath_amp_code=0.0, multipath_amp_phase=0.0,
                       clock_sigma=0.0, ephemeris_rms=0.0,
                       windup_amplitude=0.0)


def _leo_elements():
    return {"a": R_EARTH + 370e3, "e": 1e-4, "inc": math.radians(51.6),
            "raan": 0.6, "argp": 0.0, "mean_anomaly": 0.0}


def _short_leo(duration=1500.0, noise=None, seed=3,
               impulses=((300.0, (0.0, 0.01, 0.0)),), **kw):
    """Small LEO run that keeps the test suite fast."""
    return ScenarioConfig(
        chief_elements=_leo_elements(),
        name="leo-short",
        duration=duration,
        external_enable_time=300.0,
        iar_warmup=600.0,
        impulses=[(t, tuple(dv)) for t, dv in impulses],
        seed=seed,
        noise=NoiseConfig() if noise is None else noise,
        tuning=FilterTuning(),
        **kw)


@pytest.fixture(scope="module")
def leo_short_run(tmp_path_factory):
    cfg = _short_leo()
    out = tmp_path_factory.mktemp("leo-short")
    report = run_scenario(cfg, output_dir=out)
    return cfg, report, out


# ---------------------------------------------------------------------------
# Configuration and presets
# ---------------------------------------------------------------------------

def test_presets_validate_and_resolve():
    leo = leo_preset()
    geo = geo_preset()
    leo.validate()
    geo.validate()
    assert leo.visibility_mode == "mainlobe"
    assert geo.visibility_mode == "sidelobe"
    assert load_preset("leo").to_json() == leo.to_json()
    assert load_preset("geo").to_json() == geo.to_json()
    with pytest.raises(ValueError, match="unknown preset"):
        load_preset("molniya")


def test_config_json_roundtrip(tmp_path):
    cfg = _short_leo()
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    again = ScenarioConfig.from_json(path)
    assert again == cfg
    assert again.to_json() == path.read_text()


@pytest.mark.parametrize("mangle, match", [
    (dict(coupling_mode="tight"), "coupling mode"),
    (dict(duration=1001.0), "multiple of truth_step"),
    (dict(impulses=[(305.0, (0.0, 0.01, 0.0))]), "truth grid"),
    (dict(impulses=[(300.0, (0.0, 0.01))]), "3-vector"),
    (dict(separation=-5.0), "separation"),
    (dict(chief_elements={**_leo_elements(), "e": 1.2}), "eccentricity"),
])
def test_config_validation_rejects(mangle, match):
    cfg = _short_leo()
    for key, val in mangle.items():
        setattr(cfg, key, val)
    with pytest.raises(ValueError, match=match):
        cfg.validate()


def _set_setting(cfg, path, value):
    """Set the numeric setting that ``validate`` labels ``path``."""
    if path == "impulse time":
        cfg.impulses = [(value, (0.0, 0.01, 0.0))]
    elif path == "impulse delta-v":
        cfg.impulses = [(300.0, (0.0, value, 0.0))]
    elif path.startswith("chief_elements."):
        cfg.chief_elements[path.split(".")[1]] = value
    else:
        owner, _, name = path.rpartition(".")
        setattr(getattr(cfg, owner) if owner else cfg, name, value)


@pytest.mark.parametrize("path, value", [
    ("duration", math.inf),
    ("duration", math.nan),
    ("tuning.tau_accel", math.inf),
    ("separation", math.nan),
    ("iar_warmup", math.nan),
    ("external_enable_time", math.inf),
    ("init_pos_error", math.nan),
    ("init_vel_error", -math.inf),
    ("chief_elements.a", math.inf),
    ("chief_elements.raan", math.nan),
    ("noise.multipath_amp_phase", math.nan),
    ("sensors.range_noise", math.inf),
    ("tuning.meas_carrier", math.nan),
    ("tuning.gate_sigma", math.nan),
    ("tuning.proc_amb", -math.inf),
    ("tuning.init_accel", (1e-6, math.nan, 1e-6)),
    ("impulse time", math.nan),
    ("impulse delta-v", math.inf),
])
def test_config_validation_rejects_non_finite(path, value):
    cfg = _short_leo()
    _set_setting(cfg, path, value)
    with pytest.raises(ValueError, match="must be finite"):
        cfg.validate()


@pytest.mark.parametrize("path, value, match", [
    ("duration", "900", "duration must be a number"),
    ("separation", None, "separation must be a number"),
    ("iar_warmup", True, "iar_warmup must be a number"),
    ("chief_elements.a", "6.7e6", "chief_elements.a must be a number"),
    ("noise.multipath_amp_phase", False, "must be a number"),
    ("sensors.range_noise", "0.005", "must be a number"),
    ("tuning.meas_carrier", None, "must be a number"),
    ("tuning.init_accel", (1e-6, "2e-6", 1e-6), "must be a number"),
    ("seed", True, "seed must be a number"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", 1.0, "seed must be an integer"),
    ("noise.thermal", "no", "noise.thermal must be a bool"),
    ("noise.ionosphere", 1, "noise.ionosphere must be a bool"),
])
def test_config_validation_rejects_wrong_types(path, value, match):
    cfg = _short_leo()
    _set_setting(cfg, path, value)
    with pytest.raises(ValueError, match=match):
        cfg.validate()


@pytest.mark.parametrize("path, value", [
    # Times, standard deviations, amplitudes, initial and process sigmas:
    # >= 0.
    ("external_enable_time", -10.0),
    ("iar_warmup", -30.0),
    ("init_pos_error", -1.0),
    ("init_vel_error", -1e-3),
    ("init_clock_error", -1.0),
    ("noise.multipath_amp_code", -1.0),
    ("noise.multipath_amp_phase", -0.01),
    ("noise.clock_sigma", -1.0),
    ("noise.ephemeris_rms", -1.5),
    ("noise.windup_amplitude", -0.01),
    ("sensors.range_noise", -0.01),
    ("sensors.angle_noise", -1e-4),
    ("tuning.init_pos", -1.0),
    ("tuning.init_vel", -1.0),
    ("tuning.init_accel", (1e-6, -2e-6, 0.75e-6)),
    ("tuning.init_clock", -1.0),
    ("tuning.init_range_bias", -0.1),
    ("tuning.init_angle_bias", -1e-3),
    ("tuning.proc_pos", -1e-6),
    ("tuning.proc_vel", -1e-9),
    ("tuning.proc_accel", (1e-6, 1e-6, -0.5e-6)),
    ("tuning.proc_clock", -5.0),
    ("tuning.proc_amb", -0.03),
    # Values that scale or divide: > 0.
    ("duration", -1500.0),
    ("separation", 0.0),
    ("noise.multipath_size", 0.0),
    ("tuning.meas_code", 0.0),
    ("tuning.meas_carrier", -0.015),
    ("tuning.meas_range", 0.0),
    ("tuning.meas_angle", 0.0),
    ("tuning.tau_accel", 0.0),
    ("tuning.gate_sigma", -5.0),
    ("tuning.init_amb", 0.0),
])
def test_config_validation_rejects_negative_and_zero_scales(tmp_path, path,
                                                             value):
    # Not a runtime failure deep in the run, and not a silent run with the
    # filter or the noise switched off: a validation error naming the
    # setting, which the CLI turns into exit 1 before any output.
    cfg = _short_leo()
    _set_setting(cfg, path, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)} must be "):
        cfg.validate()
    config = tmp_path / "bad.json"
    config.write_text(cfg.to_json())
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config),
                     "--output", str(out)]) == 1
    assert not out.exists()


def test_config_validation_accepts_numpy_numbers():
    cfg = _short_leo(seed=np.int64(3))
    cfg.separation = np.float64(900.0)
    cfg.noise.thermal = np.bool_(False)
    cfg.validate()
    echoed = json.loads(cfg.to_json())
    assert echoed["seed"] == 3 and echoed["noise"]["thermal"] is False


# ---------------------------------------------------------------------------
# Truth trajectories
# ---------------------------------------------------------------------------

def test_truth_holds_separation_without_maneuvers():
    cfg = _short_leo(duration=5520.0, impulses=[])
    truth = generate_truth(cfg)
    sep = np.linalg.norm(truth.deputy_pos - truth.chief_pos, axis=1)
    assert abs(sep[0] - cfg.separation) < 1.0
    # co-orbital spacing holds to well under a percent over a revolution
    assert np.all(np.abs(sep - cfg.separation) < 0.01 * cfg.separation)
    assert truth.events == []


def test_truth_prograde_burn_drifts_deputy_back():
    # an along-track burn raises the deputy orbit; one revolution later the
    # lead has shrunk by roughly 3*pi*delta_a = 6*pi*dv/n
    a = _leo_elements()["a"]
    n = math.sqrt(MU_EARTH / a ** 3)
    period = 2.0 * math.pi / n
    dv = 0.02
    t_burn = 600.0
    t_check = t_burn + round(period / 10.0) * 10.0
    cfg = _short_leo(duration=t_check + 300.0,
                     impulses=[(t_burn, (0.0, dv, 0.0))])
    truth = generate_truth(cfg)
    sep = np.linalg.norm(truth.deputy_pos - truth.chief_pos, axis=1)
    expected_drop = 6.0 * math.pi * dv / n
    drop = sep[truth.index_of(t_burn)] - sep[truth.index_of(t_check)]
    assert 0.5 * expected_drop < drop < 1.5 * expected_drop
    kinds = [e["kind"] for e in truth.events]
    assert kinds.count("impulse") == 1


def test_truth_grid_lookup_rejects_off_grid_times():
    truth = generate_truth(_short_leo(duration=300.0, impulses=[]))
    assert truth.index_of(120.0) == 12
    with pytest.raises(ValueError, match="truth grid"):
        truth.index_of(125.0)


def test_truth_collision_warning_once():
    cfg = _short_leo(duration=60.0, impulses=[], separation=0.5)
    truth = generate_truth(cfg)
    warnings = [e for e in truth.events if e["kind"] == "collision-warning"]
    assert len(warnings) == 1 and warnings[0]["time"] == 0.0


# ---------------------------------------------------------------------------
# Measurement synthesis
# ---------------------------------------------------------------------------

def test_zero_noise_synthesis_matches_observable_models():
    cfg = _short_leo(duration=300.0, impulses=[], noise=_noise_off(),
                     seed=5)
    truth = generate_truth(cfg)
    epochs, aux = synthesize_measurements(cfg, truth)
    const = default_constellation()
    lam = L1_WAVELENGTH
    zd_chief = {}
    checked = 0
    for ep in epochs:
        if not ep.sdcp:
            continue
        i = truth.index_of(ep.time)
        tsd = aux.true_sd[ep.time]
        for row, gid in enumerate(ep.gps_ids):
            spos = const.state_at(gid, ep.time).position
            # ephemeris corruption is off: broadcast equals truth
            assert np.allclose(ep.gps_positions[row], spos, atol=1e-6)
            rng_c = np.linalg.norm(spos - truth.chief_pos[i])
            rng_d = np.linalg.norm(spos - truth.deputy_pos[i])
            assert ep.sdcp[row] - (rng_c - rng_d) / lam == pytest.approx(
                tsd[gid], abs=1e-6)
            # GRAPHIC sits half a wavelength-integer above the range
            half = 2.0 * (ep.graphic["chief"][row] - rng_c) / lam
            assert half == pytest.approx(round(half), abs=1e-6)
            zd_chief.setdefault(gid, []).append(
                (ep.tracks[row][0], round(half)))
            checked += 1
    assert checked > 20
    # the undifferenced integer is constant over each continuous track
    for gid, rows in zd_chief.items():
        per_track = {}
        for track, n_int in rows:
            per_track.setdefault(track, set()).add(n_int)
        assert all(len(s) == 1 for s in per_track.values())


def test_synthesis_is_deterministic():
    cfg = _short_leo(duration=600.0)
    truth = generate_truth(cfg)
    e1, a1 = synthesize_measurements(cfg, truth)
    e2, a2 = synthesize_measurements(cfg, truth)
    assert len(e1) == len(e2)
    for x, y in zip(e1, e2):
        assert x.time == y.time and x.sdcp == y.sdcp
        assert x.gps_ids == y.gps_ids and x.tracks == y.tracks
        assert x.graphic == y.graphic
        assert x.range_obs == y.range_obs and x.bearing_obs == y.bearing_obs
    assert a1.true_sd == a2.true_sd


def _bits(obj):
    """A synthesis product as nested plain data, floats by their bits."""
    if dataclasses.is_dataclass(obj):
        return _bits(vars(obj))
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


@pytest.mark.parametrize("block", [1, 7])
def test_synthesis_does_not_depend_on_the_block_size(monkeypatch, block):
    # 3600 s holds 121 GPS epochs: several blocks at every size tried.
    cfg = leo_preset()
    cfg.duration = 3600.0
    truth = generate_truth(cfg)
    want = _bits(synthesize_measurements(cfg, truth))
    assert scenario.SYNTHESIS_BLOCK < 121
    monkeypatch.setattr(scenario, "SYNTHESIS_BLOCK", block)
    assert _bits(synthesize_measurements(cfg, truth)) == want


def _assert_aligned_layout(ep):
    """One GPS epoch's layout: ascending ids, every field aligned to them,
    and non-negative extra variances."""
    k = len(ep.gps_ids)
    assert all(a < b for a, b in zip(ep.gps_ids, ep.gps_ids[1:]))
    assert sorted(ep.graphic) == ["chief", "deputy"]
    assert all(len(v) == k for v in ep.graphic.values())
    assert isinstance(ep.sdcp, list) and len(ep.sdcp) == k
    assert len(ep.tracks) == k
    assert ep.gps_positions.shape == (k, 3)
    assert ep.extra_variance.shape == (k, 3)
    assert np.all(ep.extra_variance >= 0.0)


def test_noise_inflation_reflects_multipath_map():
    cfg = _short_leo(duration=120.0, impulses=[])
    truth = generate_truth(cfg)
    epochs, _ = synthesize_measurements(cfg, truth)
    gps = [e for e in epochs if e.sdcp]
    assert gps
    for ep in gps:
        _assert_aligned_layout(ep)
        # Chief GRAPHIC, deputy GRAPHIC and SDCP rows all carry multipath.
        assert np.all(ep.extra_variance > 0.0)

    # Both multipath amplitudes at 0 turn multipath off, whatever else
    # stays on.
    cfg.noise = NoiseConfig(multipath_amp_code=0.0, multipath_amp_phase=0.0)
    quiet, _ = synthesize_measurements(cfg, truth)
    quiet_gps = [e for e in quiet if e.sdcp]
    assert quiet_gps
    for ep in quiet_gps:
        _assert_aligned_layout(ep)
        assert not np.any(ep.extra_variance)


def test_zero_amplitudes_turn_ephemeris_and_clock_errors_off():
    # An ephemeris_rms of 0 broadcasts the true GPS positions, bit for bit,
    # and a clock_sigma of 0 keeps both receiver clocks at 0, while the
    # other sources stay on; the preset amplitudes corrupt both.
    cfg = _short_leo(duration=300.0, impulses=[])
    truth = generate_truth(cfg)
    const = default_constellation()

    def broadcast_is_true(epochs):
        return [np.array_equal(ep.gps_positions,
                               const.state_at(ep.gps_ids, ep.time).position)
                for ep in epochs if ep.sdcp]

    epochs, aux = synthesize_measurements(cfg, truth)
    assert not any(broadcast_is_true(epochs))
    assert np.all(aux.clock_chief[1:]) and np.all(aux.clock_deputy[1:])

    cfg.noise = NoiseConfig(ephemeris_rms=0.0, clock_sigma=0.0)
    epochs, aux = synthesize_measurements(cfg, truth)
    checked = broadcast_is_true(epochs)
    assert checked and all(checked)
    assert not np.any(aux.clock_chief) and not np.any(aux.clock_deputy)


def test_geo_sidelobe_geometry_and_link():
    cfg = geo_preset()
    cfg.duration = 900.0
    truth = generate_truth(cfg)
    epochs, _ = synthesize_measurements(cfg, truth)
    budget = LinkBudget.geo_sidelobe()
    import dataclasses as dc
    n_common = []
    for ep in epochs:
        if not ep.sdcp:
            continue
        _assert_aligned_layout(ep)
        i = truth.index_of(ep.time)
        n_common.append(len(ep.sdcp))
        for gps_pos in ep.gps_positions:
            slant = np.linalg.norm(gps_pos - truth.deputy_pos[i])
            # sidelobe reception only works across the limb: every tracked
            # transmitter sits on the far side of the Earth
            assert slant > 3.5e7
            c_n0 = carrier_to_noise(
                dc.replace(budget, slant_range=slant / 1e3))
            assert c_n0 >= TRACKING_THRESHOLD
    # enough common transmitters survive the sidelobe link to do carrier work
    assert n_common and min(n_common) >= 4


# ---------------------------------------------------------------------------
# Integer-resolution attempt
# ---------------------------------------------------------------------------

def _fix_ready_state(ages, variances=None):
    """Filter whose single-difference floats sit 0.01 cycles from the true
    integers with tight independent variances, by default lowest for the
    lowest GPS id; ``ages`` maps GPS id -> epochs on its track, and
    ``variances`` GPS id -> variance [cycles^2]."""
    tuning = FilterTuning()
    r = R_EARTH + 400e3
    chief = OrbitState(np.array([r, 0.0, 0.0]), np.array([0.0, 7670.0, 0.0]))
    deputy = OrbitState(chief.position + [0.0, 100.0, 0.0], chief.velocity)
    state = initialize_filter(chief, deputy, tuning)
    gids = sorted(ages)
    epoch = MeasurementEpoch(
        time=900.0, gps_ids=gids,
        graphic={"chief": [0.0] * len(gids), "deputy": [0.0] * len(gids)},
        sdcp=[0.0] * len(gids), tracks=[(1, 1)] * len(gids),
        gps_positions=np.array([26560e3 * np.array([math.cos(g), math.sin(g),
                                                    0.5]) for g in gids]),
        extra_variance=np.zeros((len(gids), 3)))
    slots = allocate_channels(state, epoch, tuning)
    true_sd = {g: 10 * g for g in ages}
    for g, slot in slots.items():
        i = AMB_SD.start + slot
        state.x[i] = true_sd[g] + 0.01
        state.covariance[i, i] = (1e-4 * (1 + g) if variances is None
                                  else variances[g])
        state.age[slot] = ages[g]
    return state, epoch, slots, {epoch.time: true_sd}


def test_attempt_fix_waits_for_mature_tracks():
    config = _short_leo(coupling_mode="loose")
    ages = {0: IAR_MIN_TRACK, 1: IAR_MIN_TRACK, 2: IAR_MIN_TRACK,
            3: IAR_MIN_TRACK - 1}
    state, epoch, slots, true_sd = _fix_ready_state(ages)
    _, _, fix = _attempt_fix(state, epoch, config, true_sd, slots)
    assert fix["reference"] == 0
    assert fix["channels"] == [1, 2]

    state.age[slots[3]] = IAR_MIN_TRACK
    fixed, _, fix = _attempt_fix(state, epoch, config, true_sd, slots)
    assert fix["channels"] == [1, 2, 3]
    assert fix["full"] and fix["wrong"] == 0
    assert fixed.fixed_mask[list(slots.values())].all()


def test_full_fix_leaves_an_unsearched_channel_at_its_conditional_mean():
    # A full fix against a float reference conditions the filter on the
    # accepted DD integers and on nothing else.  The DD float of a tracked
    # channel that was too young to be searched must land on its
    # conditional mean given those integers; rounding the reference's own
    # float would shift it by the rounding offset.
    config = _short_leo(coupling_mode="loose")
    ids = range(5)
    ages = {g: IAR_MIN_TRACK for g in ids}
    ages[4] = IAR_MIN_TRACK - 1
    state, epoch, slots, true_sd = _fix_ready_state(ages)
    truth = true_sd[epoch.time]
    idx = [AMB_SD.start + slots[g] for g in ids]
    state.x[idx] += [0.013, -0.021, 0.017, 0.006, -0.028]
    mix = np.random.default_rng(5).normal(size=(5, 5))
    state.covariance[np.ix_(idx, idx)] += 2e-5 * (mix @ mix.T)
    x, p = state.x[idx], state.covariance[np.ix_(idx, idx)]

    fixed, _, fix = _attempt_fix(state, epoch, config, true_sd, slots)
    assert fix["full"] and fix["wrong"] == 0
    ref, searched = fix["reference"], fix["channels"]
    assert sorted(searched + [ref]) == [0, 1, 2, 3]

    # DD operator: the searched channels, then the unsearched one, each
    # minus the reference.
    k = len(searched)
    tmat = np.zeros((k + 1, 5))
    for row, g in enumerate(searched + [4]):
        tmat[row, g] = 1.0
        tmat[row, ref] = -1.0
    mean, cov = tmat @ x, tmat @ p @ tmat.T
    accepted = np.array([truth[g] - truth[ref] for g in searched], dtype=float)
    want = mean[k] + cov[k, :k] @ np.linalg.solve(cov[:k, :k],
                                                   accepted - mean[:k])
    got = tmat @ fixed.x[idx]
    np.testing.assert_allclose(got[:k], accepted, rtol=0.0, atol=1e-9)
    assert got[k] == pytest.approx(want, rel=0.0, abs=1e-9)
    assert fixed.fixed_mask[[slots[g] for g in range(4)]].all()
    assert not fixed.fixed_mask[slots[4]]


def test_veto_quantiles_equal_scipy_bit_for_bit():
    # One entry per searchable size: a larger IAR_MAX_SEARCH fails here
    # until the table is extended.
    from scipy.stats import chi2

    assert len(CHI2_999) == IAR_MAX_SEARCH
    for k in range(1, IAR_MAX_SEARCH + 1):
        assert CHI2_999[k - 1].hex() == float(chi2.ppf(0.999, k)).hex(), k


# A fresh interpreter that cannot import SciPy runs the CLI on the LEO
# preset just past the IAR warm-up, with the veto's table replaced by one
# that records its lookups.
_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(name + " is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
import cdgps.cli
from cdgps import scenario

lookups = []

class Recorded(tuple):
    def __getitem__(self, k):
        lookups.append(k)
        return super().__getitem__(k)

scenario.CHI2_999 = Recorded(scenario.CHI2_999)
code = cdgps.cli.main(["run", "--preset", "leo", "--coupling", "full",
                       "--duration", "1900", "--output", sys.argv[1]])
print(json.dumps({"code": code, "lookups": lookups,
                  "scipy": "scipy" in sys.modules}))
"""


def test_runtime_runs_without_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["lookups"]  # at least one fix attempt reached the veto
    assert not result["scipy"]


def test_attempt_fix_searches_the_tightest_floats_in_variance_order():
    # Twelve mature float channels whose variance order is not their id
    # order: the tightest is the reference, the next IAR_MAX_SEARCH are
    # searched tightest first, and the loosest stays out.
    config = _short_leo(coupling_mode="loose")
    rank = [7, 2, 11, 0, 5, 9, 1, 10, 3, 6, 8, 4]
    ids = range(len(rank))
    state, epoch, slots, true_sd = _fix_ready_state(
        {g: IAR_MIN_TRACK for g in ids},
        variances={g: 1e-4 * (1 + rank[g]) for g in ids})
    _, _, fix = _attempt_fix(state, epoch, config, true_sd, slots)
    by_variance = sorted(ids, key=lambda g: rank[g])
    assert fix["reference"] == by_variance[0]
    assert fix["channels"] == by_variance[1:1 + IAR_MAX_SEARCH]
    assert fix["wrong"] == 0


def _with_sensor_epoch(state, epoch, true_sd):
    """Give ``epoch`` SDCP, range and bearing consistent with the filter's
    positions, the true integers and zero sensor biases."""
    chief, deputy = state.x[CHIEF_POS], state.x[DEPUTY_POS]
    epoch.sdcp = [(np.linalg.norm(gp - chief) - np.linalg.norm(gp - deputy))
                  / L1_WAVELENGTH + true_sd[g]
                  for g, gp in zip(epoch.gps_ids, epoch.gps_positions)]
    # Boresight from the deputy at the chief: the chief sits at zero azimuth
    # and elevation.
    z = (chief - deputy) / np.linalg.norm(chief - deputy)
    x = np.cross([0.0, 0.0, 1.0], z)
    x /= np.linalg.norm(x)
    epoch.attitude = np.array([x, np.cross(z, x), z])
    epoch.range_obs = float(np.linalg.norm(chief - deputy))
    epoch.bearing_obs = (0.0, 0.0)
    return epoch


@pytest.mark.parametrize("n_sats, constrained", [(3, False), (4, True)])
def test_full_mode_search_needs_three_independent_dd_rows(n_sats,
                                                         constrained):
    # Three satellites give two DD rows, too few to triangulate a baseline,
    # so the sensor-constrained search gives way to the classical one; four
    # give three independent rows and the constrained search runs.
    config = _short_leo(coupling_mode="full")
    state, epoch, slots, true_sd = _fix_ready_state(
        {g: IAR_MIN_TRACK for g in range(n_sats)})
    epoch = _with_sensor_epoch(state, epoch, true_sd[epoch.time])
    fixed, _, fix = _attempt_fix(state, epoch, config, true_sd, slots)
    assert fix["constrained"] is constrained
    assert fix["n_searched"] == n_sats - 1
    assert fix["full"] and fix["wrong"] == 0
    assert fixed.fixed_mask[list(slots.values())].all()


@pytest.mark.parametrize("n_sats, n_fixed, constrained",
                         [(3, 1, False), (4, 2, True)])
def test_fixed_channels_enter_the_sensor_context(n_sats, n_fixed,
                                                 constrained):
    # Every fix after the first searches against a fixed reference.  Other
    # fixed channels add known DD rows to the sensor context: with three
    # satellites the two searched rows stay too few for the constrained
    # search, while four satellites make three rows only with the known one.
    config = _short_leo(coupling_mode="full")
    state, epoch, slots, true_sd = _fix_ready_state(
        {g: IAR_MIN_TRACK for g in range(n_sats)})
    truth = true_sd[epoch.time]
    fixed_slots = [slots[g] for g in range(n_fixed)]
    rows = np.zeros((n_fixed, N_STATES))
    rows[np.arange(n_fixed), AMB_SD.start + np.array(fixed_slots)] = 1.0
    state = apply_fixes(constrain_linear(
        state, rows, [truth[g] for g in range(n_fixed)]), fixed_slots)
    epoch = _with_sensor_epoch(state, epoch, truth)
    fixed, _, fix = _attempt_fix(state, epoch, config, true_sd, slots)
    assert fix["reference"] == 0
    assert fix["channels"] == list(range(n_fixed, n_sats))
    assert fix["constrained"] is constrained
    assert fix["full"] and fix["wrong"] == 0
    assert fixed.fixed_mask[list(slots.values())].all()


# ---------------------------------------------------------------------------
# Run summary
# ---------------------------------------------------------------------------

def _summary(pos, vel, first_fix_index=None, fixes=()):
    """``_summarize`` over one record per row of the relative position and
    velocity errors (RTN), other record fields zero, and one fix event per
    (subset, wrong) pair of ``fixes``."""
    records = []
    for i, (p, v) in enumerate(zip(pos, vel)):
        record = dict.fromkeys(RECORD_FIELDS, 0)
        record.update(zip(("err_r", "err_t", "err_n"), p), time=float(i))
        record.update(zip(("verr_r", "verr_t", "verr_n"), v))
        records.append(record)
    events = [{"time": 0.0, "full": True, "subset": n, "wrong": w}
              for n, w in fixes]
    return _summarize(_short_leo(), records, events, first_fix_index,
                      n_attempt_epochs=len(records), n_skipped=0)


def test_summary_of_a_zero_error_history():
    m = _summary(np.zeros((10, 3)), np.zeros((10, 3)))
    assert m["rms_pos_total"] == 0.0
    assert m["rms_vel_total"] == 0.0
    assert m["wrong_fix_rate"] == 0.0
    assert m["n_fix_events"] == 0


def test_summary_of_a_constant_radial_offset():
    pos = np.zeros((20, 3))
    pos[:, 0] = 0.01
    m = _summary(pos, np.zeros((20, 3)))
    assert m["rms_pos_total"] == pytest.approx(0.01, rel=1e-12)
    assert m["rms_vel_total"] == 0.0


def test_summary_wrong_fix_rate_and_split():
    pos = np.ones((10, 3)) * 0.02
    pos[5:] = 0.001
    m = _summary(pos, np.zeros((10, 3)), first_fix_index=5,
                 fixes=[(9, 0), (1, 1)])
    assert m["n_fixed_integers"] == 10
    assert m["wrong_fix_rate"] == pytest.approx(0.1)
    assert m["rms_pos_pre_fix"] == pytest.approx(0.02 * math.sqrt(3), rel=1e-9)
    assert m["rms_pos_post_fix"] == pytest.approx(0.001 * math.sqrt(3), rel=1e-9)
    assert m["first_fix_index"] == 5


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def test_run_products_and_summary(leo_short_run):
    cfg, report, out = leo_short_run
    assert not report.degraded
    assert report.summary["n_skipped"] == 0
    assert report.summary["scenario"] == cfg.name
    for key in ("rms_pos_total", "rms_pos_pre_fix", "rms_pos_post_fix",
                "wrong_fix_rate", "first_fix_time", "n_fix_events",
                "mean_fixed_fraction", "final_fixed_channels"):
        assert key in report.summary

    csv = (out / "history.csv").read_text()
    assert csv.splitlines()[0] == ",".join(RECORD_FIELDS)
    assert len(csv.splitlines()) == len(report.records) + 1
    payload = json.loads((out / "report.json").read_text())
    assert payload["summary"]["n_epochs"] == len(report.records)
    echoed = ScenarioConfig.from_json(out / "config.json")
    assert echoed == cfg


def test_fixed_counts_only_tracked_channels(leo_short_run):
    # A fixed slot keeps its satellite after it sets; such slots must not
    # count as fixed channels.
    cfg, report, _ = leo_short_run
    epochs, _ = synthesize_measurements(cfg, generate_truth(cfg))
    n_tracked = {e.time: len(e.sdcp) for e in epochs if e.sdcp}
    gps = [r for r in report.records if r["time"] in n_tracked]
    assert len(gps) == len(n_tracked)
    assert any(r["n_fixed"] > 0 for r in gps)
    for r in gps:
        assert r["n_fixed"] <= n_tracked[r["time"]], r["time"]
        assert 0.0 <= r["fixed_fraction"] <= 1.0
    assert report.summary["final_fixed_channels"] == report.records[-1]["n_fixed"]


def test_run_is_byte_reproducible(leo_short_run):
    cfg, report, _ = leo_short_run
    again = run_scenario(cfg)
    assert again.to_csv() == report.to_csv()
    assert again.to_json() == report.to_json()


def test_impulse_feeds_through_without_divergence(leo_short_run):
    cfg, report, _ = leo_short_run
    t_burn = cfg.impulses[0][0]
    after = [r for r in report.records if t_burn < r["time"] <= t_burn + 120]
    assert after
    # commanded maneuver is known to the filter: no post-burn blowup
    assert all(abs(r["err_t"]) < 5.0 for r in after)


def test_a_burn_between_measurement_epochs_reaches_the_filter():
    # 250 s is neither a GPS epoch (every 30 s) nor a sensor epoch (every
    # 10 s from 300 s on), so the loop has only the burn to apply there.
    # The filter gets the commanded along-track 5 cm/s at once: without it
    # the velocity error would be of that size until GPS pulled it in.
    cfg = _short_leo(duration=600.0, impulses=((250.0, (0.0, 0.05, 0.0)),))
    report = run_scenario(cfg)
    times = [r["time"] for r in report.records]
    assert 240.0 in times and 250.0 not in times
    after = [r for r in report.records if 250.0 < r["time"] <= 350.0]
    assert after
    assert max(abs(r["verr_t"]) for r in after) < 5e-3


def test_zero_noise_run_fixes_cleanly():
    cfg = _short_leo(noise=_noise_off(), seed=11)
    report = run_scenario(cfg)
    s = report.summary
    assert s["n_fix_events"] >= 1
    assert s["n_wrong_fix_events"] == 0
    assert s["wrong_fix_rate"] == 0.0
    assert s["final_fixed_channels"] > 0
    assert s["rms_pos_post_fix"] < 0.02
    assert all(e["wrong"] == 0 for e in report.fix_events)


def test_coupling_none_never_attempts_integers():
    cfg = _short_leo(duration=900.0, coupling_mode="none")
    report = run_scenario(cfg)
    assert report.fix_events == []
    assert report.summary["n_fix_events"] == 0
    assert report.summary["first_fix_time"] is None
    assert all(r["n_fixed"] == 0 for r in report.records)


# Seeds fixed in advance; 107 is the seed that once made four wrong fixes.
INTEGRITY_SEEDS = tuple(range(30)) + (107,)


def test_leo_full_runs_make_no_wrong_fix():
    """Integrity gate: LEO ``full`` over 3600 s on every seed of
    ``INTEGRITY_SEEDS`` accepts no wrong integer.

    The 31 runs make 311 fix events.  Zero wrong in n events bounds the
    per-event wrong-fix probability below 3/n at 95 % (rule of three):
    3/311 = 9.6e-3.  A gate that fixes too little says nothing, so the runs
    must make at least 300 events, which keeps that bound under 1e-2.
    """
    n_events = 0
    wrong = {}
    for seed in INTEGRITY_SEEDS:
        cfg = leo_preset()
        cfg.seed = seed
        cfg.duration = 3600.0
        s = run_scenario(cfg).summary
        n_events += s["n_fix_events"]
        if s["n_wrong_fix_events"]:
            wrong[seed] = s["n_wrong_fix_events"]
    assert wrong == {}
    assert n_events >= 300
