"""Scenario report bytes pinned against committed digests.

Four runs in ``full`` coupling over the first 3600 s, which include the
first fixes, are written, and the sha256 of each run's ``history.csv`` and
``report.json`` must equal the digests in ``tests/data/report_pin.json``.
Three are LEO runs:

* seed 1, where every fix is a full fix with evidence factor S = 1;
* seed 107, another ten full fixes at S = 1, none wrong (it once made four
  wrong-fix events, when a full fix rounded its float reference);
* seed 0 with phase multipath raised to 0.10 m, whose 12 fix events include
  two partial fixes.

The fourth is the GEO preset at seed 1, with three fix events and 15
integers: sidelobe visibility, the GEO link budget and synthesis with the
ionosphere off, which no LEO run takes.

No pinned run has a fix event at S < 1 or a wrong fix.  Each run's fix
counts and post-fix RMS are pinned beside its digests and checked first, so
a regenerated pin's diff shows which numbers moved.

Acceptance criterion 11 checks that a run repeats its own bytes; this pin
checks that a change to the code keeps the bytes an earlier version wrote,
so "byte-identical across versions" is a check and not a claim.

The digests hold on the platform that wrote them (x86-64, NumPy with
OpenBLAS, one BLAS thread); another BLAS may round the filter differently.
Regenerate (only when the numbers change on purpose, saying which moved
and why) with

    PYTHONPATH=src python tests/test_report_pin.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from cdgps.scenario import load_preset, run_scenario

DATA = Path(__file__).parent / "data" / "report_pin.json"
DURATION = 3600.0
FILES = ("history.csv", "report.json")
SUMMARY = ("n_fix_events", "n_fixed_integers", "n_wrong_fix_events",
           "rms_pos_post_fix")
# (preset, seed, phase multipath amplitude [m] or None for the preset's).
RUNS = (("leo", 1, None), ("leo", 107, None), ("leo", 0, 0.10),
        ("geo", 1, None))


def digests(preset, seed, multipath_amp_phase):
    """One pinned run's configuration, summary numbers and the sha256 of
    its report files."""
    cfg = load_preset(preset)
    cfg.seed = seed
    cfg.duration = DURATION
    if multipath_amp_phase is not None:
        cfg.noise.multipath_amp_phase = multipath_amp_phase
    with tempfile.TemporaryDirectory() as out:
        report = run_scenario(cfg, output_dir=out)
        files = {name: hashlib.sha256((Path(out) / name).read_bytes())
                 .hexdigest() for name in FILES}
    return {"preset": cfg.name, "coupling": cfg.coupling_mode,
            "seed": seed, "duration": DURATION,
            "multipath_amp_phase": cfg.noise.multipath_amp_phase,
            "summary": {key: report.summary[key] for key in SUMMARY},
            "sha256": files}


def _check_runs_of(preset):
    pins = json.loads(DATA.read_text())
    assert len(pins) == len(RUNS)
    for want, run in zip(pins, RUNS):
        if run[0] != preset:
            continue
        got = digests(*run)
        for key in ("preset", "coupling", "seed", "duration",
                    "multipath_amp_phase"):
            assert got[key] == want[key], (run, key)
        for key in SUMMARY:
            assert got["summary"][key] == want["summary"][key], (run, key)
        for name in FILES:
            assert got["sha256"][name] == want["sha256"][name], (run, name)


def test_leo_full_report_bytes_match_the_pin():
    _check_runs_of("leo")


def test_geo_full_report_bytes_match_the_pin():
    _check_runs_of("geo")


if __name__ == "__main__":
    DATA.write_text(json.dumps([digests(*run) for run in RUNS], indent=1)
                    + "\n")
    print(f"wrote {DATA}")
