"""Span tracer that wraps the public functions of each cdgps layer.

A wrapped call records ``(name, start, end, parent)`` in memory, where
``parent`` is the index of the innermost wrapped call it ran inside (``-1``
at top level).  Wrappers replace module attributes where the caller looks
them up (``cdgps.scenario.time_update``, ``cdgps.iar.candidate_baseline``)
and methods on their class (``GpsConstellation.state_at``); ``close``
puts the originals back.
"""

import time
from collections import Counter, defaultdict

import cdgps.iar
import cdgps.scenario
from cdgps.orbits import GpsConstellation
from cdgps.scenario import RunReport


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._originals = []

    def wrap(self, owner, attr, name, count=None):
        """Record a span named ``name`` around every call of ``owner.attr``;
        ``count(counts, args, result)`` may add counters after the call."""
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, fn))

    def close(self):
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child_time[idx]
        return calls, incl, own

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


# ---------------------------------------------------------------------------
# Which calls belong to which layer
# ---------------------------------------------------------------------------

def _count_observables(counts, _args, result):
    epochs, _aux = result
    for e in epochs:
        counts["observables"] += (sum(len(v) for v in (e.graphic or {}).values())
                                  + len(e.sdcp or ())
                                  + (e.range_obs is not None)
                                  + 2 * (e.bearing_obs is not None))


def _count_rows(counts, _args, result):
    _state, report = result
    counts["rows"] += report.n_rows
    counts["rows_gated"] += report.n_rejected


def _count_fix(counts, args, result):
    counts["searched"] += args[0].size
    counts["accepted"] += result.subset_size


SCENARIO_SPANS = (
    # (owner, attribute, span name, counter)
    (cdgps.scenario, "run_scenario", "scenario.run", None),
    (cdgps.scenario, "synthesize_measurements", "scenario.synthesize",
     _count_observables),
    (RunReport, "write", "scenario.write", None),
    (cdgps.scenario, "propagate", "orbits.propagate", None),
    (cdgps.scenario, "visibility", "orbits.visibility", None),
    (GpsConstellation, "state_at", "orbits.gps_state", None),
    (cdgps.scenario, "klobuchar_delay", "errors.klobuchar", None),
    (cdgps.scenario, "multipath_sigma", "errors.multipath", None),
    (cdgps.scenario, "carrier_to_noise", "errors.link_noise", None),
    (cdgps.scenario, "thermal_noise_sigmas", "errors.link_noise", None),
    (cdgps.scenario, "calibrate_roe", "errors.ephemeris", None),
    (cdgps.scenario, "inject_roe_error", "errors.ephemeris", None),
    (cdgps.scenario, "time_update", "navfilter.time_update", None),
    (cdgps.scenario, "measurement_update", "navfilter.measurement_update",
     _count_rows),
    (cdgps.scenario, "allocate_channels", "navfilter.allocate", None),
    (cdgps.scenario, "constrain_linear", "navfilter.fix_feedback", None),
    (cdgps.scenario, "apply_fixes", "navfilter.fix_feedback", None),
)

IAR_SPANS = tuple(
    (module, attr, name, count)
    for module in (cdgps.scenario, cdgps.iar)
    for attr, name, count in (
        ("decorrelate", "iar.decorrelate", None),
        ("constrained_search", "iar.constrained_search", None),
        ("classical_ils_search", "iar.classical_search", None),
        ("partial_resolve", "iar.partial_resolve", _count_fix),
    )) + ((cdgps.iar, "candidate_baseline", "iar.cost_eval", None),)


def sandwich(op):
    """Run ``op`` untraced, traced, then untraced again; ``op`` returns
    ``(result, seconds)``.  Returns the first untraced result, the traced
    result, the tracer, and the traced time minus the mean untraced time."""
    plain, t_before = op()
    tracer = Tracer()
    for owner, attr, name, count in SCENARIO_SPANS + IAR_SPANS:
        tracer.wrap(owner, attr, name, count)
    try:
        traced, t_traced = op()
    finally:
        tracer.close()
    _, t_after = op()
    return plain, traced, tracer, t_traced - 0.5 * (t_before + t_after)


def layer_metrics(tracer, report_bytes, overhead_s):
    """Every per-layer metric; a layer the workload does not exercise reads 0."""
    calls, incl, own = tracer.totals()
    c = tracer.counts

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    searches = calls["iar.constrained_search"] + calls["iar.classical_search"]
    values = {
        "orbits.propagate_s": incl["orbits.propagate"],
        "orbits.propagate_calls": calls["orbits.propagate"],
        "orbits.visibility_s": incl["orbits.visibility"],
        "orbits.visibility_calls": calls["orbits.visibility"],
        "orbits.gps_state_s": incl["orbits.gps_state"],
        "errors.klobuchar_s": incl["errors.klobuchar"],
        "errors.klobuchar_calls": calls["errors.klobuchar"],
        "errors.multipath_s": incl["errors.multipath"],
        "errors.link_noise_s": incl["errors.link_noise"],
        "errors.ephemeris_s": incl["errors.ephemeris"],
        "scenario.synthesize_s": incl["scenario.synthesize"],
        "scenario.observables": c["observables"],
        "scenario.synthesize_us_per_observable": per(
            incl["scenario.synthesize"], c["observables"], 1e6),
        "scenario.run_self_s": own["scenario.run"],
        "scenario.write_s": incl["scenario.write"],
        "scenario.report_bytes": report_bytes,
        "navfilter.time_update_s": incl["navfilter.time_update"],
        "navfilter.time_update_calls": calls["navfilter.time_update"],
        "navfilter.time_update_ms": per(incl["navfilter.time_update"],
                                        calls["navfilter.time_update"], 1e3),
        "navfilter.measurement_update_s": incl["navfilter.measurement_update"],
        "navfilter.rows": c["rows"],
        "navfilter.rows_gated": c["rows_gated"],
        "navfilter.us_per_row": per(incl["navfilter.measurement_update"],
                                    c["rows"], 1e6),
        "navfilter.allocate_s": incl["navfilter.allocate"],
        "navfilter.fix_feedback_s": incl["navfilter.fix_feedback"],
        "iar.decorrelate_s": incl["iar.decorrelate"],
        "iar.constrained_search_s": incl["iar.constrained_search"],
        "iar.classical_search_s": incl["iar.classical_search"],
        "iar.partial_resolve_s": incl["iar.partial_resolve"],
        "iar.searches": searches,
        "iar.cost_evals": calls["iar.cost_eval"],
        "iar.cost_evals_per_search": per(calls["iar.cost_eval"],
                                         calls["iar.constrained_search"]),
        "iar.fix_yield": per(c["accepted"], c["searched"]),
        "trace.overhead_s": overhead_s,
    }
    return values
