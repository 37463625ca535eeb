"""Synthesis regression: the measurement stream of a short LEO and a short
GEO span, pinned against a committed snapshot.

The snapshot fixes the per-epoch draw order of every random substream:
discrete content (tracked satellites, track ids, ambiguity integers, the
noise-inflation rows) must match exactly, and every float observable to
1e-9 relative, so last-bit rounding differences pass and a shifted draw
does not.  SDCP is the difference of two carrier phases of ~1e8 cycles,
so rounding shows in it at ~1e-8 cycles whatever its own size; it also
passes within 1e-6 cycles, four orders below one carrier noise draw.

Regenerate the snapshot (only when the draw order changes on purpose) with

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
    # The snapshot keeps the shape it was written in: (id, value) pairs,
    # positions keyed by id, the extra variances keyed by row label where
    # they are > 0, and the track ids of every GPS epoch as "pair_ids".
    out = []
    pair_ids = {}
    for e in epochs:
        ids = [int(g) for g in e.gps_ids]
        inflation = {}
        for row, g in enumerate(ids):
            for col, key in enumerate((f"graphic:chief:{g}",
                                       f"graphic:deputy:{g}", f"sdcp:{g}")):
                if e.extra_variance[row, col] > 0.0:
                    inflation[key] = float(e.extra_variance[row, col])
        out.append({
            "time": e.time,
            "graphic": {rx: [[g, float(v)] for g, v in zip(ids, rows)]
                        for rx, rows in sorted(e.graphic.items())},
            "sdcp": [[g, float(v)] for g, v in zip(ids, e.sdcp)],
            "gps_positions": {str(g): [float(c) for c in p]
                              for g, p in zip(ids, e.gps_positions)},
            "noise_inflation": dict(sorted(inflation.items())),
            "range_obs": e.range_obs,
            "bearing_obs": (None if e.bearing_obs is None
                            else [float(c) for c in e.bearing_obs]),
        })
        if e.time in aux.true_sd:  # a GPS epoch
            pair_ids[repr(e.time)] = {str(g): [int(c), int(d)]
                                      for g, (c, d) in zip(ids, e.tracks)}
    return {
        "epochs": out,
        "true_sd": {repr(t): {str(g): int(n) for g, n in sorted(m.items())}
                    for t, m in aux.true_sd.items()},
        "pair_ids": pair_ids,
        "clock_chief": aux.clock_chief.tolist(),
        "clock_deputy": aux.clock_deputy.tolist(),
    }


def _close(a, b, atol=0.0):
    return np.allclose(np.asarray(a, float), np.asarray(b, float),
                       rtol=RTOL, atol=atol)


def compare(got, want):
    """Differences between two snapshots, as readable messages."""
    problems = []
    for key in ("true_sd", "pair_ids"):
        if got[key] != want[key]:
            problems.append(f"{key} differs")
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
        for rx in set(g["graphic"]) | set(w["graphic"]):
            gr, wr = g["graphic"].get(rx, []), w["graphic"].get(rx, [])
            if [r[0] for r in gr] != [r[0] for r in wr]:
                problems.append(f"t={t}: {rx} satellites differ")
            elif not _close([r[1] for r in gr], [r[1] for r in wr]):
                problems.append(f"t={t}: {rx} GRAPHIC differs")
        if [r[0] for r in g["sdcp"]] != [r[0] for r in w["sdcp"]]:
            problems.append(f"t={t}: SDCP satellites differ")
        elif not _close([r[1] for r in g["sdcp"]], [r[1] for r in w["sdcp"]],
                        SDCP_ATOL):
            problems.append(f"t={t}: SDCP differs")
        for key in ("gps_positions", "noise_inflation"):
            if sorted(g[key]) != sorted(w[key]):
                problems.append(f"t={t}: {key} keys differ")
            elif not _close([g[key][k] for k in sorted(w[key])],
                            [w[key][k] for k in sorted(w[key])]):
                problems.append(f"t={t}: {key} values differ")
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
    (g0, v0), (g1, v1) = epoch["sdcp"][:2]
    epoch["sdcp"][:2] = [[g0, v0 + 2e-3], [g1, v1]]
    assert compare(got, want) == [f"t={epoch['time']}: SDCP differs"]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({p: snapshot(p, d) for p, d in SPANS.items()},
                               separators=(",", ":")) + "\n")
    print(f"wrote {DATA}")
