"""Synthesis regression: the measurement stream of a short LEO and a short
GEO span, pinned against a committed snapshot.

The snapshot holds every epoch in the layout synthesis hands the run loop:
the GPS fields aligned to ``gps_ids`` (GRAPHIC per receiver, SDCP, the
receivers' track ids, broadcast positions and extra row variances), the
range and bearing observations, the true single-difference integers and
the receiver clocks.  It fixes the per-epoch draw order of every random
substream: discrete content (tracked satellites, track ids, ambiguity
integers, which rows carry extra variance) must match exactly, and every
float to 1e-9 relative, so last-bit rounding differences on another BLAS
pass and a shifted draw does not.  SDCP is the difference of two carrier
phases of ~1e8 cycles, so rounding shows in it at ~1e-8 cycles whatever
its own size; it also passes within 1e-6 cycles, four orders below one
carrier noise draw.

The file is what the script below writes, bit for bit, on the platform
that wrote it (x86-64, NumPy with OpenBLAS).  Regenerate (only when the
numbers change on purpose, saying which moved and why) with

    PYTHONPATH=src python tests/test_synthesis_regression.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cdgps.scenario import generate_truth, load_preset, synthesize_measurements

DATA = Path(__file__).parent / "data" / "synthesis_seed3.json"
SPANS = {"leo": 1800.0, "geo": 3600.0}
SEED = 3
RTOL = 1e-9
SDCP_ATOL = 1e-6   # cycles


def snapshot(preset, duration, seed=SEED):
    """Everything synthesis hands the run loop, as plain JSON data."""
    config = load_preset(preset)
    config.duration = duration
    config.seed = seed
    epochs, aux = synthesize_measurements(config, generate_truth(config))
    out = [{
        "time": e.time,
        "gps_ids": [int(g) for g in e.gps_ids],
        "graphic": {rx: [float(v) for v in rows]
                    for rx, rows in sorted(e.graphic.items())},
        "sdcp": [float(v) for v in e.sdcp],
        "tracks": [[int(c), int(d)] for c, d in e.tracks],
        "gps_positions": e.gps_positions.tolist(),
        "extra_variance": e.extra_variance.tolist(),
        "range_obs": e.range_obs,
        "bearing_obs": (None if e.bearing_obs is None
                        else [float(c) for c in e.bearing_obs]),
    } for e in epochs]
    return {
        "epochs": out,
        "true_sd": {repr(t): {str(g): int(n) for g, n in sorted(m.items())}
                    for t, m in aux.true_sd.items()},
        "clock_chief": aux.clock_chief.tolist(),
        "clock_deputy": aux.clock_deputy.tolist(),
    }


def _close(a, b, atol=0.0):
    return np.allclose(np.asarray(a, float), np.asarray(b, float),
                       rtol=RTOL, atol=atol)


def compare(got, want):
    """Differences between two snapshots, as readable messages."""
    problems = []
    if got["true_sd"] != want["true_sd"]:
        problems.append("true_sd differs")
    for key in ("clock_chief", "clock_deputy"):
        if not _close(got[key], want[key]):
            problems.append(f"{key} differs")
    if len(got["epochs"]) != len(want["epochs"]):
        return problems + ["epoch count differs"]
    for g, w in zip(got["epochs"], want["epochs"]):
        t = w["time"]
        if g["time"] != t:
            problems.append(f"epoch time {g['time']} != {t}")
            continue
        if g["gps_ids"] != w["gps_ids"]:
            problems.append(f"t={t}: satellites differ")
            continue
        if g["tracks"] != w["tracks"]:
            problems.append(f"t={t}: tracks differ")
        if sorted(g["graphic"]) != sorted(w["graphic"]):
            problems.append(f"t={t}: GRAPHIC receivers differ")
        elif not all(_close(g["graphic"][rx], w["graphic"][rx])
                     for rx in w["graphic"]):
            problems.append(f"t={t}: GRAPHIC differs")
        if not _close(g["sdcp"], w["sdcp"], SDCP_ATOL):
            problems.append(f"t={t}: SDCP differs")
        if not _close(g["gps_positions"], w["gps_positions"]):
            problems.append(f"t={t}: gps_positions differ")
        if (np.asarray(g["extra_variance"]) > 0.0).tolist() != (
                np.asarray(w["extra_variance"]) > 0.0).tolist():
            problems.append(f"t={t}: extra_variance rows differ")
        elif not _close(g["extra_variance"], w["extra_variance"]):
            problems.append(f"t={t}: extra_variance differs")
        for key in ("range_obs", "bearing_obs"):
            if (g[key] is None) != (w[key] is None):
                problems.append(f"t={t}: {key} presence differs")
            elif w[key] is not None and not _close(g[key], w[key]):
                problems.append(f"t={t}: {key} differs")
    return problems


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("preset", sorted(SPANS))
def test_synthesis_matches_pinned_snapshot(pinned, preset):
    want = pinned[preset]
    got = json.loads(json.dumps(snapshot(preset, SPANS[preset])))
    assert want["epochs"], "empty snapshot"
    assert any(e["sdcp"] for e in want["epochs"])
    assert compare(got, want) == []


def test_compare_catches_a_shifted_draw(pinned):
    """The tolerance is far below one noise draw: moving one SDCP value by
    2e-3 cycles, a fraction of one carrier noise draw, is reported."""
    want = pinned["leo"]
    got = json.loads(json.dumps(want))
    epoch = next(e for e in got["epochs"] if len(e["sdcp"]) >= 2)
    epoch["sdcp"][0] += 2e-3
    assert compare(got, want) == [f"t={epoch['time']}: SDCP differs"]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({p: snapshot(p, d) for p, d in SPANS.items()},
                               separators=(",", ":")) + "\n")
    print(f"wrote {DATA}")
