"""Calibration of the integer search's predicted success probability.

``success_prob`` is written to ``history.csv`` and to every fix event, and
the partial fix accepts a subset on it, so it has to predict what happens.
Here it is checked against outcomes: for each problem of the ``iar-resolve``
benchmark's problem sets 0-2 (144 problems, imported read-only), floats are
drawn from N(Z^T a, Q_z) around the true decorrelated integers, each draw is
fixed by conditional rounding (bootstrapping) in the decorrelated space, and
the share of draws fixed to the true vector is the empirical success rate.
The prediction may not exceed that rate by more than three binomial
standard errors.

Fixed in advance: the problem sets, ``DRAWS`` draws per problem, the draw
seed, and the standard-error floor (the empirical rate is clamped to
[1/DRAWS, 1 - 1/DRAWS] before its standard error is taken, so a problem
that never or always succeeds still gets one).
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from cdgps.iar import classical_ils_search, decorrelate

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
PROBLEM_SETS = (0, 1, 2)
DRAWS = 400
DRAW_SEED = 20261020
MAX_EXCESS_SE = 3.0


def bootstrap_successes(dist, true_z, draws, rng):
    """How many of ``draws`` floats from N(true_z, Q) conditional rounding
    fixes to ``true_z``; an oracle independent of ``iar.bootstrap``."""
    cond = rng.multivariate_normal(true_z.astype(float), dist.covariance,
                                   size=draws, method="cholesky")
    fixed = np.empty_like(cond)
    for i in range(dist.size):
        fixed[:, i] = np.round(cond[:, i])
        cond[:, i + 1:] -= np.outer(cond[:, i] - fixed[:, i],
                                    dist.lower[i + 1:, i])
    return int(np.sum(np.all(fixed == true_z, axis=1)))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: success_rate is fed conditional variances where it "
    "needs standard deviations, so the classical prediction overstates the "
    "bootstrap success; the units fix must remove this marker"))
def test_classical_success_prob_does_not_exceed_bootstrap_outcomes(
        monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    problems = importlib.import_module("problems")
    rng = np.random.default_rng(DRAW_SEED)
    n_problems, violations = 0, []
    for s in PROBLEM_SETS:
        for k, problem in enumerate(problems.make_problem_set(s)):
            n_problems += 1
            dist = decorrelate(problem.dist)
            predicted = classical_ils_search(dist).success_prob
            true_z = dist.z_matrix.T @ problem.true_integers
            rate = bootstrap_successes(dist, true_z, DRAWS, rng) / DRAWS
            clamped = min(max(rate, 1.0 / DRAWS), 1.0 - 1.0 / DRAWS)
            se = math.sqrt(clamped * (1.0 - clamped) / DRAWS)
            if predicted - rate > MAX_EXCESS_SE * se:
                violations.append((s, k, predicted, rate))
    assert n_problems == 144
    assert violations == []
