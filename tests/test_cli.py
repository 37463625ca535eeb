"""Command-line interface tests: exit codes, analysis tables, report
plumbing, and reproducibility of the written artifacts."""

import json
import re
from pathlib import Path

import pytest

from cdgps.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, pin", [
    (("dare",), "cli_dare.txt"),
    (("dare", "--d", "0.289", "--n", "3"), "cli_dare_d0.289_n3.txt"),
    (("link-budget",), "cli_link_budget.txt"),
    (("link-budget", "--json"), "cli_link_budget.json"),
    (("multipath-map",), "cli_multipath_map.csv"),
])
def test_analysis_output_matches_pin(capsys, argv, pin):
    # The analysis commands print the link budget, the thermal sigmas and
    # the multipath map byte for byte as pinned in tests/data/.
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (DATA / pin).read_text()


# ---------------------------------------------------------------------------
# dare
# ---------------------------------------------------------------------------

def test_dare_table_spans_reference_row(capsys):
    code, out, _ = _run(capsys, "dare")
    assert code == 0
    rows = re.findall(r"lambda/\d+\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)", out)
    assert len(rows) == 3
    sigmas = [float(r[0]) for r in rows]
    rates = [float(r[1]) for r in rows]
    refs = [float(r[2]) for r in rows]
    # tighter measurements, tighter variances, better odds
    assert sigmas[0] > sigmas[1] > sigmas[2]
    assert rates[0] < rates[1] < rates[2]
    assert refs == [28.17, 51.79, 95.41]
    # spans the reference row qualitatively
    assert abs(rates[0] - refs[0]) < 5.0
    assert abs(rates[1] - refs[1]) < 5.0
    assert abs(rates[2] - refs[2]) < 5.0
    # the configuration is stated next to the numbers
    assert "Q = 1.000e-03" in out and "n = 10" in out


def test_dare_direct_mode(capsys):
    code, out, _ = _run(capsys, "dare", "--n", "1", "--d", "0.289")
    assert code == 0
    m = re.search(r"per-ambiguity success rate ([\d.]+)", out)
    assert m and float(m.group(1)) == pytest.approx(0.881, abs=0.001)


@pytest.mark.parametrize("argv", [
    ("dare", "--r", "0"),
    ("dare", "--r", "-1.0"),
    ("dare", "--d", "0.0"),
    ("dare", "--n", "0"),
])
def test_dare_rejects_degenerate_input(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert json.loads(err)["error"] == "validation"


# ---------------------------------------------------------------------------
# link-budget
# ---------------------------------------------------------------------------

def test_link_budget_matches_reference(capsys):
    code, out, _ = _run(capsys, "link-budget", "--json")
    assert code == 0
    payload = json.loads(out)
    for name in ("leo", "geo"):
        col = payload["columns"][name]
        ref = payload["reference"][name]
        for key in ("gps_eirp_dbw", "free_space_path_loss_db",
                    "carrier_power_dbw", "c_n0_dbhz"):
            assert col[key] == pytest.approx(ref[key], abs=0.2)
        assert payload["flags"][name] == []
    assert payload["columns"]["leo"]["c_n0_dbhz"] == pytest.approx(45.0,
                                                                   abs=0.2)
    assert payload["columns"]["geo"]["c_n0_dbhz"] == pytest.approx(16.45,
                                                                   abs=0.2)


def test_link_budget_table_output(capsys):
    code, out, _ = _run(capsys, "link-budget")
    assert code == 0
    assert "Free-space path loss" in out
    assert "all dB rows within 0.2 dB of the reference" in out


def test_link_budget_rx_gain_shifts_cn0_exactly(capsys):
    _, base_out, _ = _run(capsys, "link-budget", "--scenario", "leo", "--json")
    code, out, _ = _run(capsys, "link-budget", "--scenario", "leo",
                        "--json", "--rx-gain", "3")
    assert code == 0
    base = json.loads(base_out)["columns"]["leo"]
    bumped = json.loads(out)["columns"]["leo"]
    assert bumped["c_n0_dbhz"] - base["c_n0_dbhz"] == pytest.approx(3.0,
                                                                    abs=1e-12)
    flags = json.loads(out)["flags"]["leo"]
    assert "c_n0_dbhz" in flags  # deviation from the reference is called out


def test_link_budget_slant_range_monotone(capsys):
    code, out, _ = _run(capsys, "link-budget", "--scenario", "leo",
                        "--json", "--slant-range", "40000")
    assert code == 0
    fspl = json.loads(out)["columns"]["leo"]["free_space_path_loss_db"]
    assert -194.460 < fspl < -182.419


def test_link_budget_rejects_bad_range(capsys):
    code, _, err = _run(capsys, "link-budget", "--slant-range", "-5")
    assert code == 1
    assert json.loads(err)["error"] == "validation"


# ---------------------------------------------------------------------------
# multipath-map
# ---------------------------------------------------------------------------

def test_multipath_map_csv(capsys):
    n = 5
    code, out, _ = _run(capsys, "multipath-map", "--grid", str(n))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "azimuth_deg,elevation_deg,sigma_code_m,sigma_phase_m"
    assert len(lines) == 1 + n * (2 * n - 1)
    sigmas = [tuple(map(float, ln.split(",")[2:])) for ln in lines[1:]]
    assert all(sc >= 0.0 and sp >= 0.0 for sc, sp in sigmas)
    # worst case sits along the reflector axis at the default amplitudes
    assert max(sc for sc, _ in sigmas) == pytest.approx(5.0, rel=0.05)
    assert max(sp for _, sp in sigmas) == pytest.approx(0.05, rel=0.05)


# ---------------------------------------------------------------------------
# run / sweep plumbing
# ---------------------------------------------------------------------------

RUN_FLAGS = ("run", "--preset", "leo", "--duration", "1200", "--seed", "9")


def test_run_writes_reports_and_is_reproducible(capsys, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, out, _ = _run(capsys, *RUN_FLAGS, "--output", str(out_a))
    assert code == 0
    assert "scenario leo-iss" in out and "seed 9" in out
    for fname in ("history.csv", "report.json", "config.json"):
        assert (out_a / fname).is_file()

    code, _, _ = _run(capsys, *RUN_FLAGS, "--output", str(out_b))
    assert code == 0
    for fname in ("history.csv", "report.json", "config.json"):
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()

    echoed = json.loads((out_a / "config.json").read_text())
    assert echoed["seed"] == 9 and echoed["duration"] == 1200.0


def test_run_coupling_none_reports_zero_fixes(capsys, tmp_path):
    code, out, _ = _run(capsys, "run", "--preset", "leo", "--duration",
                        "2400", "--coupling", "none",
                        "--output", str(tmp_path / "none"))
    assert code == 0
    assert "fix events 0" in out


def test_run_missing_config_no_partial_outputs(capsys, tmp_path):
    target = tmp_path / "ghost"
    code, _, err = _run(capsys, "run", "--config", str(tmp_path / "no.json"),
                        "--output", str(target))
    assert code == 1
    assert json.loads(err)["error"] == "validation"
    assert not target.exists()


def test_run_unreadable_config_exits_one(capsys, tmp_path):
    # A directory exists but is no config file.
    code, _, err = _run(capsys, "run", "--config", str(tmp_path),
                        "--output", str(tmp_path / "out"))
    assert code == 1
    assert json.loads(err)["error"] == "validation"
    assert not (tmp_path / "out").exists()


def test_run_rejects_bad_override(capsys, tmp_path):
    code, _, err = _run(capsys, "run", "--preset", "leo", "--duration",
                        "1005", "--output", str(tmp_path / "x"))
    assert code == 1
    assert "truth_step" in json.loads(err)["detail"]
    assert not (tmp_path / "x").exists()


def test_run_accepts_config_file(capsys, tmp_path):
    from cdgps.scenario import leo_preset
    cfg = leo_preset()
    cfg.duration = 900.0
    cfg.coupling_mode = "none"
    path = tmp_path / "custom.json"
    path.write_text(cfg.to_json())
    code, out, _ = _run(capsys, "run", "--config", str(path),
                        "--output", str(tmp_path / "out"))
    assert code == 0
    assert "epochs" in out


@pytest.mark.parametrize("key, literal", [("duration", "Infinity"),
                                          ("iar_warmup", "NaN")])
def test_run_rejects_non_finite_config_file(capsys, tmp_path, key, literal):
    from cdgps.scenario import leo_preset
    cfg = json.loads(leo_preset().to_json())
    cfg[key] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal))
    code, out, err = _run(capsys, "run", "--config", str(path),
                          "--output", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "validation"
    assert "must be finite" in json.loads(err)["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("duration", "900", "duration must be a number"),
    ("separation", None, "separation must be a number"),
    ("iar_warmup", True, "iar_warmup must be a number"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", -1, "seed must be non-negative"),
])
def test_run_rejects_wrongly_typed_config_file(capsys, tmp_path, key, value,
                                               message):
    from cdgps.scenario import leo_preset
    cfg = json.loads(leo_preset().to_json())
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "run", "--config", str(path),
                          "--output", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "validation"
    assert message in json.loads(err)["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [("run", "--seed", "-1"),
                                  ("sweep", "--seeds", "1", "-2")])
def test_negative_seed_is_a_validation_error(capsys, tmp_path, argv):
    # Not a runtime failure from the RNG, and rejected before any run or
    # table output starts.
    code, out, err = _run(capsys, *argv, "--duration", "900",
                          "--output", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "validation",
                               "detail": f"seed must be non-negative, got "
                                         f"{argv[-1]}"}
    assert not (tmp_path / "out").exists()


def test_run_rejects_non_bool_noise_switch(capsys, tmp_path):
    from cdgps.scenario import leo_preset
    cfg = json.loads(leo_preset().to_json())
    cfg["noise"]["thermal"] = "no"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "run", "--config", str(path),
                          "--output", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "validation"
    assert "noise.thermal must be a bool" in json.loads(err)["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("coupling", ["none", "loose", "full"])
@pytest.mark.parametrize("preset", ["leo", "geo"])
def test_echoed_config_reproduces_the_run(capsys, tmp_path, preset, coupling):
    first, second = tmp_path / "first", tmp_path / "second"
    code, _, _ = _run(capsys, "run", "--preset", preset, "--duration", "2700",
                      "--coupling", coupling, "--output", str(first))
    assert code == 0
    code, _, _ = _run(capsys, "run", "--config", str(first / "config.json"),
                      "--output", str(second))
    assert code == 0
    for fname in ("report.json", "history.csv", "config.json"):
        assert (first / fname).read_bytes() == (second / fname).read_bytes()


def test_run_uses_env_output_dir(capsys, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("CDGPS_OUTPUT_DIR", str(target))
    code, _, _ = _run(capsys, "run", "--preset", "leo", "--duration", "900",
                      "--coupling", "none")
    assert code == 0
    assert (target / "report.json").is_file()


def test_sweep_aggregates(capsys, tmp_path):
    out = tmp_path / "sw"
    code, text, _ = _run(capsys, "sweep", "--preset", "leo", "--duration",
                         "1200", "--coupling", "none", "--seeds", "1", "2",
                         "--output", str(out))
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["aggregate"]["seeds"] == [1, 2]
    assert payload["aggregate"]["n_fix_events"] == 0
    assert set(payload["per_seed"]) == {"1", "2"}
    assert (out / "seed-1" / "history.csv").is_file()
    assert (out / "seed-2" / "report.json").is_file()
    assert "aggregate:" in text


def test_sweep_rejects_seed_flag(capsys, tmp_path):
    # Every sweep run takes its seed from --seeds; --seed is not silently
    # ignored, nor read as an abbreviation of --seeds.
    out = tmp_path / "sw"
    code, text, err = _run(capsys, "sweep", "--seed", "5", "--seeds", "1",
                           "--duration", "900", "--coupling", "none",
                           "--output", str(out))
    assert code == 1
    assert text == ""
    assert json.loads(err) == {"error": "validation",
                               "detail": "unrecognized arguments: --seed 5"}
    assert not (out / "sweep.json").exists()


def test_sweep_rejects_duplicate_seeds(capsys, tmp_path):
    code, _, err = _run(capsys, "sweep", "--preset", "leo", "--seeds", "1",
                        "1", "--output", str(tmp_path / "dup"))
    assert code == 1
    assert "duplicate" in json.loads(err)["detail"]


# ---------------------------------------------------------------------------
# invocation errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("dare", "--q", "-1"),
    ("dare", "--q", "nan"),
    ("dare", "--r", "nan"),
    ("dare", "--d", "nan"),
    ("link-budget", "--slant-range", "nan"),
    ("link-budget", "--rx-gain", "nan"),
    ("multipath-map", "--size", "0"),
    ("multipath-map", "--amplitude-code", "-1"),
    ("multipath-map", "--target-range", "-5"),
    ("run", "--duration", "inf"),
])
def test_invalid_float_flag_exits_one(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("CDGPS_OUTPUT_DIR", str(tmp_path / "out"))
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "validation"
    assert not (tmp_path / "out").exists()


def test_unknown_flag_exits_one(capsys):
    code, _, err = _run(capsys, "run", "--warp-speed")
    assert code == 1
    assert json.loads(err)["error"] == "validation"


def test_missing_command_exits_one(capsys):
    code, _, _ = _run(capsys)
    assert code == 1


def test_conflicting_config_sources(capsys, tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("{}")
    code, _, err = _run(capsys, "run", "--preset", "leo",
                        "--config", str(cfg_path))
    assert code == 1
    assert "not both" in json.loads(err)["detail"]
