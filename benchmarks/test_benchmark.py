"""Self-tests of the benchmark: each oracle passes today's program and rejects
a planted fault.  Run with ``python3 -m pytest benchmarks``."""

import dataclasses
import types

import numpy as np
import pytest

import oracles
import problems
import run
import tracing
from cdgps.scenario import generate_truth, leo_preset, run_scenario


@pytest.fixture(scope="module")
def short_leo():
    """A LEO run long enough for the burn at 600 s and a first fix at 1800 s."""
    config = leo_preset()
    config.duration = 2400.0
    return config, run_scenario(config)


def test_truth_oracle_rejects_a_perturbed_sample(short_leo):
    config, _ = short_leo
    truth = generate_truth(config)
    assert oracles.check_truth(config, truth, 0.2) == []
    truth.deputy_pos[100, 1] += 1.0
    assert oracles.check_truth(config, truth, 0.2)


def test_scenario_oracle_rejects_a_wrong_fix_and_a_skipped_epoch(short_leo):
    _, report = short_leo
    assert report.fix_events and oracles.check_scenario(report) == []
    wrong = dataclasses.replace(
        report, fix_events=[dict(report.fix_events[0], wrong=1)])
    assert oracles.check_scenario(wrong)
    skipped = dataclasses.replace(
        report, summary=dict(report.summary, n_skipped=1))
    assert oracles.check_scenario(skipped)


def _solved(n, kind, seed=3):
    p = problems.make_problem(np.random.default_rng(seed), n, 0.4,
                              problems.sky_pattern(seed))
    ctx = p.ctx if kind == "constrained" else None
    dist_z, result, fix = run.solve(p.dist, ctx)
    return p, oracles.Objective(p.dist, dist_z.z_matrix, ctx), dist_z, result, fix


@pytest.mark.parametrize("kind", run.KINDS)
@pytest.mark.parametrize("n", [2, 5, 10])
def test_enumeration_oracle_rejects_a_non_minimal_vector(kind, n):
    _, objective, _, result, _ = _solved(n, kind)
    failures, counted = oracles.check_search(objective, result.best,
                                             result.cost_best, kind)
    assert failures == [] and counted
    worse = result.best.copy()
    worse[0] += 1
    cost = float(objective(worse)[0])
    assert cost > result.cost_best
    assert oracles.check_search(objective, worse, cost, kind)[0]
    # The right vector with a misreported cost is caught as well.
    assert oracles.check_search(objective, result.best, cost, kind)[0]


@pytest.mark.parametrize("kind", run.KINDS)
def test_truth_scoring_rejects_a_wrong_accepted_integer(kind):
    p, _, dist_z, _, fix = _solved(6, kind)
    assert fix.subset_size > 0
    assert oracles.check_accepted(dist_z.z_matrix, p.true_integers,
                                  fix.indices, fix.values, kind) == []
    bad = fix.values.copy()
    bad[-1] += 1
    assert oracles.check_accepted(dist_z.z_matrix, p.true_integers,
                                  fix.indices, bad, kind)


def test_unimodular_check():
    _, _, dist_z, _, _ = _solved(6, "classical")
    assert oracles.is_unimodular(dist_z.z_matrix)
    assert not oracles.is_unimodular(2 * np.eye(3, dtype=np.int64))
    assert not oracles.is_unimodular(np.eye(3))


def test_problem_set_is_seeded():
    a, b = problems.make_problem_set(7, groups=1), problems.make_problem_set(
        7, groups=1)
    c = problems.make_problem_set(8, groups=1)
    assert [p.dist.size for p in a] == list(problems.GROUP_SIZES)
    assert all(np.array_equal(x.dist.floats, y.dist.floats) for x, y in zip(a, b))
    assert not np.array_equal(a[0].dist.floats, c[0].dist.floats)


def test_tracer_records_nesting_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    tracer = tracing.Tracer()
    tracer.wrap(mod, "inner", "inner", lambda c, args, res: c.update(n=res))
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer(1) == 4
    tracer.close()
    assert (mod.inner, mod.outer) == originals
    (i_name, _, _, i_parent), (o_name, o_start, o_end, o_parent) = sorted(
        tracer.spans, key=lambda s: s[0])
    assert (i_name, o_name, o_parent) == ("inner", "outer", -1)
    assert tracer.spans[i_parent][0] == "outer" and tracer.counts["n"] == 2
    calls, incl, own = tracer.totals()
    assert calls == {"inner": 1, "outer": 1}
    assert own["outer"] == pytest.approx(incl["outer"] - incl["inner"])
