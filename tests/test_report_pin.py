"""Scenario report bytes pinned against a committed digest.

One LEO run in ``full`` coupling (seed 1, first 3600 s, which include the
first fixes) is written, and the sha256 of its ``history.csv`` and
``report.json`` must equal the digests in ``tests/data/report_pin.json``.
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

from cdgps.scenario import leo_preset, run_scenario

DATA = Path(__file__).parent / "data" / "report_pin.json"
SEED = 1
DURATION = 3600.0
FILES = ("history.csv", "report.json")


def digests():
    """The pinned run's configuration and the sha256 of its report files."""
    cfg = leo_preset()
    cfg.seed = SEED
    cfg.duration = DURATION
    with tempfile.TemporaryDirectory() as out:
        run_scenario(cfg, output_dir=out)
        files = {name: hashlib.sha256((Path(out) / name).read_bytes())
                 .hexdigest() for name in FILES}
    return {"preset": cfg.name, "coupling": cfg.coupling_mode,
            "seed": SEED, "duration": DURATION, "sha256": files}


def test_leo_full_report_bytes_match_the_pin():
    want = json.loads(DATA.read_text())
    got = digests()
    for key in ("preset", "coupling", "seed", "duration"):
        assert got[key] == want[key], key
    for name in FILES:
        assert got["sha256"][name] == want["sha256"][name], name


if __name__ == "__main__":
    DATA.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {DATA}")
