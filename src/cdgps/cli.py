"""Command-line front end.

Subcommands
-----------
run
    Simulate one rendezvous scenario and write its report files.
sweep
    Fan a scenario out over several seeds and aggregate the summaries.
dare
    Steady-state ambiguity-variance analysis: the back-of-the-envelope
    integer success-rate table, printed beside the published reference row.
link-budget
    The space-to-space GPS L1 link budget chain in dB, checked against the
    embedded reference columns.
multipath-map
    Plot-ready CSV of the direction-dependent multipath sigma map.

Exit codes: 0 success, 1 validation error, 2 runtime failure.  Validation
and runtime errors print one machine-readable JSON line to stderr.  Output
files land only inside the output directory (``--output``, else
``$CDGPS_OUTPUT_DIR``, else ``./cdgps-output``); the analysis commands only
print to stdout.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .constants import L1_WAVELENGTH
from .errors import (
    PLL_BANDWIDTH,
    LinkBudget,
    LossOfLockError,
    MultipathParams,
    carrier_to_noise,
    multipath_sigma,
    thermal_noise_sigmas,
)
from .iar import success_rate
from .navfilter import dare_steady_state
from .scenario import (PRESET_NAMES, ScenarioConfig, _jsonable, load_preset,
                       run_scenario)

__all__ = ["main"]

ENV_OUTPUT_DIR = "CDGPS_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "cdgps-output"


class CliError(Exception):
    """Bad invocation or bad configuration (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is that
    # every validation problem exits 1, so route errors through CliError.
    def error(self, message):
        raise CliError(message)


def _finite(text):
    """argparse type for float flags: NaN and infinities exit 1."""
    value = float(text)
    if math.isfinite(value):
        return value
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _g(value):
    """Human-facing number: 4 significant figures, n/a for missing."""
    if value is None:
        return "n/a"
    v = float(value)
    if math.isnan(v):
        return "n/a"
    return format(v, ".4g")


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------

def _resolve_config(args):
    if args.config is not None and args.preset is not None:
        raise CliError("give either --config or --preset, not both")
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config not found: {path}")
        load, source = ScenarioConfig.from_json, str(path)
    else:
        load = load_preset
        source = args.preset if args.preset is not None else "leo"
    try:
        cfg = load(source)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot load config {source!r}: {exc}") from exc

    if args.seed is not None:
        cfg.seed = args.seed
    if args.coupling is not None:
        cfg.coupling_mode = args.coupling
    if args.duration is not None:
        cfg.duration = args.duration
    try:
        cfg.validate()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return cfg


def _output_dir(args) -> Path:
    if args.output is not None:
        return Path(args.output)
    return Path(os.environ.get(ENV_OUTPUT_DIR, DEFAULT_OUTPUT_DIR))


def _print_run_summary(report):
    s = report.summary
    print(f"scenario {s['scenario']}  seed {s['seed']}  "
          f"coupling {s['coupling_mode']}")
    print(f"epochs {s['n_epochs']}  skipped {s['n_skipped']}"
          + ("  DEGRADED" if report.degraded else ""))
    print(f"fix events {s['n_fix_events']}  wrong-fix rate "
          f"{_g(s['wrong_fix_rate'])}  first fix [s] {_g(s['first_fix_time'])}")
    print(f"rms position [m]: total {_g(s['rms_pos_total'])}  "
          f"pre-fix {_g(s['rms_pos_pre_fix'])}  "
          f"post-fix {_g(s['rms_pos_post_fix'])}")
    print(f"rms velocity [m/s]: total {_g(s['rms_vel_total'])}  "
          f"post-fix {_g(s['rms_vel_post_fix'])}")


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = _output_dir(args)
    report = run_scenario(cfg, output_dir=out)
    _print_run_summary(report)
    print(f"report files: {out / 'history.csv'}, {out / 'report.json'}, "
          f"{out / 'config.json'}")
    return 0


def cmd_sweep(args) -> int:
    if len(set(args.seeds)) != len(args.seeds):
        raise CliError("duplicate seeds in --seeds")
    # Every seed's config is validated before the first run starts.
    configs = []
    for seed in args.seeds:
        args.seed = seed
        configs.append(_resolve_config(args))
    out = _output_dir(args)

    per_seed = {}
    print("seed  fixes  wrong  pre-fix[m]  post-fix[m]  first[s]")
    for cfg in configs:
        report = run_scenario(cfg, output_dir=out / f"seed-{cfg.seed}")
        s = report.summary
        per_seed[str(cfg.seed)] = s
        print(f"{cfg.seed:4d}  {s['n_fix_events']:5d}  "
              f"{s['n_wrong_fix_events']:5d}  {_g(s['rms_pos_pre_fix']):>10s}  "
              f"{_g(s['rms_pos_post_fix']):>11s}  {_g(s['first_fix_time']):>8s}")

    n_fix = sum(s["n_fix_events"] for s in per_seed.values())
    n_wrong = sum(s["n_wrong_fix_events"] for s in per_seed.values())
    posts = [s["rms_pos_post_fix"] for s in per_seed.values()
             if s["rms_pos_post_fix"] is not None
             and not math.isnan(s["rms_pos_post_fix"])]
    aggregate = {
        "scenario": configs[0].name,
        "coupling_mode": configs[0].coupling_mode,
        "seeds": list(args.seeds),
        "n_fix_events": n_fix,
        "n_wrong_fix_events": n_wrong,
        "wrong_fix_event_rate": (n_wrong / n_fix) if n_fix else 0.0,
        "runs_with_fixes": sum(1 for s in per_seed.values()
                               if s["n_fix_events"] > 0),
        "mean_rms_pos_post_fix": float(np.mean(posts)) if posts else None,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(
        json.dumps(_jsonable({"aggregate": aggregate, "per_seed": per_seed}),
                   indent=2, sort_keys=True) + "\n")
    print(f"aggregate: {n_fix} fixes, {n_wrong} wrong "
          f"({_g(100.0 * aggregate['wrong_fix_event_rate'])}% of events), "
          f"mean post-fix rms {_g(aggregate['mean_rms_pos_post_fix'])} m")
    print(f"wrote {out / 'sweep.json'}")
    return 0


# ---------------------------------------------------------------------------
# dare
# ---------------------------------------------------------------------------

# Published back-of-the-envelope row: 10 channels, Q = 1e-3 cy^2/step,
# R labelled as quarter/eighth/fortieth wavelength.  Reproducing those
# percentages requires reading the R labels as bare numeric fractions in
# m^2 (1/4, 1/8, 1/40) -- a units quirk of the reference -- so that is the
# default configuration here, stated in the output.
DARE_REFERENCE = (("lambda/4", 0.25, 28.17),
                  ("lambda/8", 0.125, 51.79),
                  ("lambda/40", 0.025, 95.41))


def cmd_dare(args) -> int:
    if args.n < 1 or args.q < 0.0:
        raise CliError("--n must be at least 1 and --q non-negative")

    if args.d is not None:
        # Direct mode: evaluate the success test at a given conditional
        # sigma without solving the Riccati recursion.
        if args.d <= 0.0:
            raise CliError("--d must be a positive conditional sigma [cy]")
        per = success_rate([args.d])
        total = success_rate(np.full(args.n, args.d))
        print(f"conditional sigma {_g(args.d)} cy: per-ambiguity success "
              f"rate {_g(per)}")
        if args.n > 1:
            print(f"{args.n} independent ambiguities: {_g(total)}")
        return 0

    if args.r is not None:
        rows = [(f"{r:g}", float(r), None) for r in args.r]
    else:
        rows = list(DARE_REFERENCE)
    for _, r, _ in rows:
        if r <= 0.0:
            raise CliError("--r must be a positive measurement variance")

    print("steady-state ambiguity variance analysis (per-channel DARE)")
    print(f"config: A = I, C = lambda*I, Q = {args.q:.3e} cy^2/step, "
          f"n = {args.n}, lambda = {_g(L1_WAVELENGTH)} m")
    print("R read as a bare numeric wavelength fraction [m^2] "
          "(the reference row's reading)")
    print(f"{'R':>10s}  {'sigma_inf [cy]':>14s}  {'success [%]':>11s}  "
          f"{'reference [%]':>13s}")
    for label, r, ref in rows:
        res = dare_steady_state(args.q, r, n=args.n)
        sigma = math.sqrt(float(res.diag[0]))
        pct = 100.0 * res.success_probability()
        ref_txt = f"{ref:13.2f}" if ref is not None else f"{'-':>13s}"
        print(f"{label:>10s}  {sigma:14.4f}  {pct:11.2f}  {ref_txt}")
    return 0


# ---------------------------------------------------------------------------
# link-budget
# ---------------------------------------------------------------------------

# Embedded reference columns (dB rows and resulting sigmas).
LINK_REFERENCE = {
    "leo": {"gps_eirp_dbw": 26.5, "free_space_path_loss_db": -182.419,
            "carrier_power_dbw": -124.919, "c_n0_dbhz": 45.0,
            "code_sigma_m": 0.20, "phase_sigma_mm": 2.0},
    "geo": {"gps_eirp_dbw": 10.0, "free_space_path_loss_db": -194.460,
            "carrier_power_dbw": -153.460, "c_n0_dbhz": 16.45,
            "code_sigma_m": 2.673, "phase_sigma_mm": 21.274},
}

_LINK_ROWS = (
    ("frequency_mhz", "Frequency", "MHz", False),
    ("pll_bandwidth_hz", "PLL bandwidth", "Hz", False),
    ("rx_antenna_gain_db", "RX antenna gain", "dB", True),
    ("rx_circuit_loss_db", "RX circuit loss", "dB", True),
    ("rx_polarization_loss_db", "RX polarization loss", "dB", True),
    ("gps_antenna_gain_db", "GPS antenna gain", "dB", True),
    ("gps_transmit_power_dbw", "GPS transmit power", "dBW", True),
    ("gps_transmit_loss_db", "GPS transmit loss", "dB", True),
    ("gps_eirp_dbw", "GPS EIRP", "dBW", True),
    ("slant_range_km", "Slant range", "km", False),
    ("free_space_path_loss_db", "Free-space path loss", "dB", True),
    ("atmospheric_loss_db", "Atmospheric loss", "dB", True),
    ("noise_spectral_density_dbw_hz", "Noise spectral density", "dBW/Hz", True),
    ("carrier_power_dbw", "Carrier power C", "dBW", True),
    ("c_n0_dbhz", "C/N0", "dB-Hz", True),
    ("code_sigma_m", "Code thermal sigma", "m", False),
    ("phase_sigma_mm", "Carrier thermal sigma", "mm", False),
)


def _budget_column(budget: LinkBudget) -> dict:
    col = {
        "frequency_mhz": budget.frequency,
        "pll_bandwidth_hz": PLL_BANDWIDTH,
        "rx_antenna_gain_db": budget.rx_antenna_gain,
        "rx_circuit_loss_db": budget.rx_circuit_loss,
        "rx_polarization_loss_db": budget.rx_polarization_loss,
        "gps_antenna_gain_db": budget.gps_antenna_gain,
        "gps_transmit_power_dbw": budget.gps_transmit_power,
        "gps_transmit_loss_db": budget.gps_transmit_loss,
        "gps_eirp_dbw": budget.gps_eirp,
        "slant_range_km": budget.slant_range,
        "free_space_path_loss_db": budget.path_loss,
        "atmospheric_loss_db": budget.atmospheric_loss,
        "noise_spectral_density_dbw_hz": budget.noise_spectral_density,
        "carrier_power_dbw": budget.carrier_power,
        "c_n0_dbhz": carrier_to_noise(budget),
    }
    try:
        code, phase = thermal_noise_sigmas(col["c_n0_dbhz"])
        col["code_sigma_m"] = code
        col["phase_sigma_mm"] = phase * 1e3
    except LossOfLockError:
        col["code_sigma_m"] = None
        col["phase_sigma_mm"] = None
    return col


def cmd_link_budget(args) -> int:
    names = ("leo", "geo") if args.scenario == "both" else (args.scenario,)
    columns = {}
    flags = {}
    for name in names:
        budget = (LinkBudget.leo_mainlobe() if name == "leo"
                  else LinkBudget.geo_sidelobe())
        if args.slant_range is not None:
            if args.slant_range <= 0.0:
                raise CliError("--slant-range must be positive [km]")
            budget.slant_range = args.slant_range
        if args.rx_gain is not None:
            budget.rx_antenna_gain += args.rx_gain
        col = _budget_column(budget)
        columns[name] = col
        # flag dB rows that stray from the embedded reference
        flags[name] = sorted(
            key for key, label, unit, is_db in _LINK_ROWS
            if is_db and col[key] is not None
            and abs(col[key] - LINK_REFERENCE[name].get(key, col[key])) > 0.2)

    if args.json:
        print(json.dumps(_jsonable(
            {"columns": columns, "flags": flags,
             "reference": {n: LINK_REFERENCE[n] for n in names}}),
            indent=2, sort_keys=True))
        return 0

    header = f"{'Parameter':<24s}{'Units':<8s}" + "".join(
        f"{n.upper():>12s}" for n in names)
    print(header)
    print("-" * len(header))
    for key, label, unit, is_db in _LINK_ROWS:
        cells = []
        for name in names:
            v = columns[name][key]
            txt = "no lock" if v is None else f"{v:.3f}"
            if key in flags[name]:
                txt += " !"
            cells.append(f"{txt:>12s}")
        print(f"{label:<24s}{unit:<8s}" + "".join(cells))
    flagged = {n: f for n, f in flags.items() if f}
    if flagged:
        print(f"rows deviating > 0.2 dB from the reference: {flagged}")
    else:
        print("all dB rows within 0.2 dB of the reference")
    return 0


# ---------------------------------------------------------------------------
# multipath-map
# ---------------------------------------------------------------------------

def cmd_multipath_map(args) -> int:
    if args.grid < 2:
        raise CliError("--grid needs at least 2 points per axis")
    if args.size <= 0.0 or min(args.amplitude_code, args.amplitude_phase,
                               args.target_range) < 0.0:
        raise CliError("--size must be positive, the amplitudes and "
                       "--target-range non-negative")
    params = MultipathParams(
        amplitude_code=args.amplitude_code,
        amplitude_phase=args.amplitude_phase,
        size_factor=args.size,
        target_range=args.target_range)
    azs = np.linspace(-math.pi, math.pi, 2 * args.grid - 1)
    els = np.linspace(-math.pi / 2.0, math.pi / 2.0, args.grid)
    print("azimuth_deg,elevation_deg,sigma_code_m,sigma_phase_m")
    for el in els:
        for az in azs:
            sc = multipath_sigma(params, az, el, "code")
            sp = multipath_sigma(params, az, el, "phase")
            print(f"{math.degrees(az):.1f},{math.degrees(el):.1f},"
                  f"{sc:.6e},{sp:.6e}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_scenario_flags(sub):
    sub.add_argument("--config", help="scenario config JSON path")
    sub.add_argument("--preset", choices=PRESET_NAMES,
                     help="built-in scenario (default: leo)")
    sub.add_argument("--coupling", choices=("none", "loose", "full"),
                     help="override the sensor coupling mode")
    sub.add_argument("--duration", type=_finite,
                     help="override the run duration [s]")
    sub.add_argument("--output", help="output directory (default: "
                     f"${ENV_OUTPUT_DIR} or ./{DEFAULT_OUTPUT_DIR})")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cdgps",
                     description="carrier-phase differential GPS relative "
                                 "navigation simulator")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p_run = subs.add_parser("run", help="simulate one scenario")
    _add_scenario_flags(p_run)
    p_run.add_argument("--seed", type=int, help="override the RNG seed")
    p_run.set_defaults(func=cmd_run)

    # Seeds come from --seeds only; no abbreviations, or --seed would be one.
    p_sweep = subs.add_parser("sweep", help="run several seeds and aggregate",
                              allow_abbrev=False)
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--seeds", type=int, nargs="+",
                         default=[1, 2, 3, 4, 5])
    p_sweep.set_defaults(func=cmd_sweep)

    p_dare = subs.add_parser(
        "dare", help="steady-state integer success-rate table")
    p_dare.add_argument("--q", type=_finite, default=1e-3,
                        help="per-step ambiguity process noise [cy^2]")
    p_dare.add_argument("--n", type=int, default=10,
                        help="number of float ambiguities")
    p_dare.add_argument("--r", type=_finite, nargs="+",
                        help="measurement noise variances (default: the "
                             "reference row's three wavelength fractions)")
    p_dare.add_argument("--d", type=_finite,
                        help="direct mode: conditional sigma [cy], skip "
                             "the Riccati solve")
    p_dare.set_defaults(func=cmd_dare)

    p_link = subs.add_parser("link-budget", help="L1 link budget chain")
    p_link.add_argument("--scenario", choices=("leo", "geo", "both"),
                        default="both")
    p_link.add_argument("--slant-range", type=_finite,
                        help="override the slant range [km]")
    p_link.add_argument("--rx-gain", type=_finite,
                        help="offset on the receiver antenna gain [dB]")
    p_link.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p_link.set_defaults(func=cmd_link_budget)

    p_map = subs.add_parser("multipath-map",
                            help="direction-dependent multipath sigmas (CSV)")
    p_map.add_argument("--amplitude-code", type=_finite, default=5.0,
                       help="near-field code amplitude [m]")
    p_map.add_argument("--amplitude-phase", type=_finite, default=0.05,
                       help="near-field carrier amplitude [m]")
    p_map.add_argument("--size", type=_finite, default=5.0,
                       help="reflector footprint size factor")
    p_map.add_argument("--target-range", type=_finite, default=1000.0,
                       help="reflector (partner) range [m]")
    p_map.add_argument("--grid", type=int, default=7,
                       help="elevation grid points (azimuth uses 2n-1)")
    p_map.set_defaults(func=cmd_multipath_map)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}),
              file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}),
              file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 -- report, don't crash
        print(json.dumps({"error": "runtime", "detail": str(exc),
                          "type": type(exc).__name__}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
