"""Integer ambiguity resolution for double-differenced carrier phase.

Float ambiguity estimates pulled from a navigation filter are decorrelated
with a unimodular integer transform, bootstrapped by conditional rounding,
searched for the best and the runner-up integer vectors, screened with
success-rate and discrimination tests, and finally resolved partially: the
largest well-determined subset is fixed while the remainder stays float.

One integer least-squares search serves both coupling modes.  It ranks
candidates by their covariance-weighted distance from the floats plus a
non-negative penalty: none for ``classical_ils_search``, the misfit to
external range/bearing observations for ``constrained_search``.  One
depth-first Schnorr-Euchner pass over the conditional tree starts with an
infinite bound, keeps the two best total costs and from then on prunes the
distance at the runner-up's total, so the best vector and the runner-up are
both exact unless the pass stops at the leaf budget the two modes share.
It prices each in-bound leaf once, when it reaches it, and returns the
totals it ranked by.  ``constraint_context`` builds the external evidence
from the double-difference geometry and phases, and ``candidate_baseline``
turns a candidate back into the baseline that evidence is compared against.

The penalty does its per-search work once: it checks the geometry and
writes a candidate's sensor-frame baseline, which is linear in the
candidate, as an anchor baseline and a 3 x n matrix, both Python lists, so
that pricing a candidate takes a few scalar operations.  Scalars are
rounded with ``math.floor``/``math.ceil``; ``round_half_away`` serves
arrays.

The stages around the search work on Python scalars as well: the swap loop
of ``decorrelate``, ``bootstrap``, ``success_rate`` and ``partial_resolve``,
which scores every subset size from one ordering, with a running product of
success terms and subset distances from one Cholesky factor.

All ambiguities are in units of carrier cycles; covariances in cycles^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import L1_WAVELENGTH

__all__ = [
    "AmbiguityDistribution",
    "IntegerSearchResult",
    "ConstraintContext",
    "PartialFix",
    "SingularGeometryError",
    "ldl_decompose",
    "decorrelate",
    "bootstrap",
    "round_half_away",
    "classical_ils_search",
    "constrained_search",
    "penalty_cost",
    "candidate_baseline",
    "constraint_context",
    "success_rate",
    "discrimination_test",
    "partial_resolve",
]

# Acceptance thresholds: minimum bootstrap success probability and minimum
# second-best/best cost ratio for a fix to be trusted.
KAPPA_SUCCESS = 0.99
KAPPA_DISCRIMINATION = 3.0


class SingularGeometryError(ValueError):
    """Raised when fewer than three independent lines of sight are available."""


def round_half_away(x):
    """Round to nearest integer with ties away from zero (not banker's)."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0.0, np.floor(x + 0.5), np.ceil(x - 0.5))
    return out.astype(np.int64)


def _round_scalar(x):
    """``round_half_away`` of one float, without the array round trip."""
    return math.floor(x + 0.5) if x >= 0.0 else math.ceil(x - 0.5)


@dataclass
class AmbiguityDistribution:
    """Gaussian description of a float ambiguity vector.

    Attributes
    ----------
    floats : ndarray, shape (n,)
        Float ambiguity estimates [cycles].
    covariance : ndarray, shape (n, n)
        Symmetric positive definite covariance [cycles^2].
    z_matrix : ndarray of int, shape (n, n)
        Unimodular transform already applied to this distribution; the
        decorrelated floats are ``z_matrix.T @ original_floats``.  Identity
        for an untransformed distribution.
    lower : ndarray, shape (n, n)
        Unit lower-triangular factor of ``covariance = L diag(d) L^T``.
    diag : ndarray, shape (n,)
        Conditional variances ``d`` of the factorization [cycles^2].

    Raises
    ------
    ValueError
        If the shapes disagree, or ``floats`` or ``covariance`` holds a NaN
        or an infinity (the message names the field).
    """

    floats: np.ndarray
    covariance: np.ndarray
    z_matrix: np.ndarray = None
    lower: np.ndarray = None
    diag: np.ndarray = None

    def __post_init__(self):
        self.floats = np.atleast_1d(np.asarray(self.floats, dtype=float))
        self.covariance = np.asarray(self.covariance, dtype=float)
        n = self.floats.size
        if self.covariance.shape != (n, n):
            raise ValueError("covariance shape does not match float vector")
        for name in ("floats", "covariance"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.z_matrix is None:
            self.z_matrix = np.eye(n, dtype=np.int64)
        if self.lower is None or self.diag is None:
            self.lower, self.diag = ldl_decompose(self.covariance)

    @property
    def size(self) -> int:
        return self.floats.size

    def mahalanobis(self, candidate):
        """Squared covariance-weighted distance of ``candidate`` from the
        floats."""
        r = np.asarray(candidate, dtype=float) - self.floats
        # Solve L y = r, then chi = sum(y_i^2 / d_i); avoids forming Q^-1.
        y = np.linalg.solve(self.lower, r)
        return float(np.sum(y * y / self.diag))


@dataclass
class IntegerSearchResult:
    """Outcome of an integer candidate search.

    ``best``/``second_best`` are two distinct vectors in the same space as
    the distribution that was searched (decorrelated space if the
    distribution carried a non-trivial ``z_matrix``).  Every cost is a total,
    distance plus penalty, as the search ranked it: ``cost_best <=
    cost_second``, and ``cost_init`` is the total of the first leaf the
    search reached, the bootstrapped vector.  ``budget_exhausted`` is set
    when the search stopped at its leaf budget with candidates left
    unvisited, so the two vectors may not be the two best.
    """

    best: np.ndarray
    second_best: np.ndarray
    cost_best: float
    cost_second: float
    cost_init: float
    success_prob: float
    discrimination_ratio: float
    budget_exhausted: bool = False


@dataclass
class ConstraintContext:
    """External sensor evidence used to steer the integer search.

    Attributes
    ----------
    observed_range : float
        Measured inter-satellite range [m] (ignored if range disabled).
    observed_azimuth, observed_elevation : float
        Measured bearing angles [rad] in the sensor frame (ignored when the
        bearing sensor is disabled).
    sigma_range, sigma_azimuth, sigma_elevation : float
        One-sigma accuracies of the three observables [m, rad, rad].
    geometry : ndarray, shape (k, 3)
        Double-difference line-of-sight geometry rows (ECI).
    ddcp_phases : ndarray, shape (k,)
        Double-differenced carrier phases [cycles].  Rows beyond the searched
        set (``free_rows``) must already have their known integers removed.
    dcm_eci_to_sensor : ndarray, shape (3, 3)
        Attitude rotation taking ECI vectors into the sensor frame.
    wavelength : float
        Carrier wavelength [m]; L1 unless given.
    range_enabled, bearing_enabled : bool
        Which external observables participate in the penalty.
    free_rows : ndarray of int or None
        Indices of geometry rows whose ambiguities are being searched; the
        remaining rows are treated as known (integer already subtracted).
        ``None`` means every row is searched.
    """

    observed_range: float = 0.0
    observed_azimuth: float = 0.0
    observed_elevation: float = 0.0
    sigma_range: float = 1.0
    sigma_azimuth: float = 1.0
    sigma_elevation: float = 1.0
    geometry: np.ndarray = None
    ddcp_phases: np.ndarray = None
    dcm_eci_to_sensor: np.ndarray = None
    wavelength: float = L1_WAVELENGTH
    range_enabled: bool = True
    bearing_enabled: bool = True
    free_rows: np.ndarray = None

    @property
    def any_enabled(self) -> bool:
        return bool(self.range_enabled or self.bearing_enabled)


@dataclass
class PartialFix:
    """Subset of decorrelated ambiguities accepted for fixing."""

    indices: np.ndarray          # indices into the decorrelated vector
    values: np.ndarray           # integers for those indices
    subset_size: int
    success_prob: float
    shrink_factor: float         # cost-ratio evidence factor in (0, 1]


# ---------------------------------------------------------------------------
# Factorization and decorrelation
# ---------------------------------------------------------------------------

def ldl_decompose(cov):
    """Factor a symmetric positive definite matrix as ``L diag(d) L^T``.

    Parameters
    ----------
    cov : ndarray, shape (n, n)

    Returns
    -------
    lower : ndarray, shape (n, n)
        Unit lower-triangular factor.
    diag : ndarray, shape (n,)
        Strictly positive conditional variances.

    Raises
    ------
    np.linalg.LinAlgError
        If the matrix is not positive definite.
    """
    cov = np.asarray(cov, dtype=float)
    chol = np.linalg.cholesky(0.5 * (cov + cov.T))
    s = chol.diagonal()
    return chol / s, s * s


def _gauss_reduce(rows, zt, floats, swap=None):
    """Make all strictly-lower entries of the factor at most 1/2 in magnitude.

    ``rows`` are the rows of the unit lower-triangular factor, ``zt`` the
    rows of the accumulated transform ``Z^T`` and ``floats`` the float
    vector, all Python lists, updated in place.  Applies integer row
    combinations, ``row[k] - mu * row_j[k]``, and mirrors them on ``zt`` and
    ``floats``.  Returns True if it left an entry that still rounds to
    nonzero: an exact half, which every later screen flips again.

    An entry ``x`` rounds to zero exactly when ``x + 0.5 < 1`` and
    ``x - 0.5 > -1``, the additions ``_round_scalar`` itself makes
    (``abs(x) < 0.5`` is not the same test: 0.49999999999999994 rounds
    to 1), so such entries are skipped without rounding.  Integer updates
    are exact; the caller's conversion to a fixed-width integer array
    raises ``OverflowError`` where an array update would have wrapped.

    With ``swap = j`` the factor must have been reduced, with nothing left
    to flip, before a swap of components ``j`` and ``j + 1``.  Only the
    entries that the swap rewrote can then round to nonzero: entry
    ``(j + 1, j)`` and columns ``j`` and ``j + 1`` of the rows below it.
    Those are screened, plus the rest of any row a reduction touched, in
    the order of the full screen, which would change nothing else.
    """
    first, top, floor = (1, len(rows), 0) if swap is None else (
        swap + 1, swap + 1, swap)
    tied = False
    for i in range(first, len(rows)):
        row = rows[i]
        touched = False
        for j in range(min(i - 1, top), -1, -1):
            if j < floor and not touched:
                break
            x = row[j]
            if x + 0.5 < 1.0 and x - 0.5 > -1.0:
                continue
            mu = _round_scalar(x)
            row[:j + 1] = [a - mu * b for a, b in zip(row, rows[j][:j + 1])]
            zt[i] = [a - mu * b for a, b in zip(zt[i], zt[j])]
            floats[i] -= mu * floats[j]
            touched = True
            x = row[j]
            tied = tied or not (x + 0.5 < 1.0 and x - 0.5 > -1.0)
    return tied


def decorrelate(dist: AmbiguityDistribution) -> AmbiguityDistribution:
    """Apply an integer unimodular transform that nearly diagonalizes the
    ambiguity covariance.

    Alternates integer Gauss reductions of the lower factor with symmetric
    swaps of adjacent components whenever the swap lowers the leading
    conditional variance of the pair, until no swap helps.  The returned
    distribution satisfies ``floats_z = Z^T floats`` and
    ``cov_z = Z^T cov Z`` and never has a larger worst-case off-diagonal
    correlation than the input.

    A swap updates ``L`` and ``d`` in O(n) (LAMBDA, de Jonge & Tiberius
    1996; Chang, Yang & Zhou 2005): it changes the pair's two conditional
    variances, the pair's two rows left of the pair and the pair's two
    columns below it.  ``Z`` and the decorrelated floats follow from exact
    integer row operations and from the swap and rounding decisions, so
    they are what re-factoring ``L diag(d) L^T`` after each swap gives,
    unless a decision lies within rounding of its tie (an entry built from
    exact halves can land on one).  ``L``, ``d`` and the covariance agree
    with that re-factorization to rounding only, and lie closer to the
    exact factor.  After the first screen of every lower entry, a swap at
    ``j`` tests the entries it rewrote as it writes them and screens only
    those, and only if one of them rounds to nonzero (a full screen while
    an exact half is left, as that flips on every screen); the next swap
    test starts at pair ``j - 1``, since the pairs before it did not
    change.  ``_gauss_reduce`` skips, without rounding, the entries that
    round to zero, which are most of them.  The factor lives in Python
    lists, which beat array calls at these sizes, and becomes arrays once,
    at the end.

    Parameters
    ----------
    dist : AmbiguityDistribution

    Returns
    -------
    AmbiguityDistribution
        Transformed distribution with ``z_matrix`` recording the accumulated
        transform (composed with any transform already present on input).

    Raises
    ------
    OverflowError
        If an entry of the accumulated transform leaves the int64 range.
    """
    n = dist.size
    rows = dist.lower.tolist()
    d = dist.diag.tolist()
    floats = dist.floats.tolist()
    # Rows of `zt` accumulate Z^T so that floats_z = zt @ floats_original.
    zt = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]

    tied = _gauss_reduce(rows, zt, floats)
    start = 0
    max_sweeps = 10000
    for _ in range(max_sweeps):
        # Find the first adjacent pair whose swap lowers the pair's leading
        # conditional variance: new_d[j] = d[j+1] + l^2 d[j] < d[j].
        for j in range(start, n - 1):
            lj = rows[j + 1][j]
            d_lead = d[j + 1] + lj * lj * d[j]
            if d_lead < d[j] * (1.0 - 1e-12):
                break
        else:
            break
        first, second = rows[j], rows[j + 1]
        l_new = lj * d[j] / d_lead
        eta = d[j + 1] / d_lead
        d[j], d[j + 1] = d_lead, eta * d[j]
        first[:j], second[:j] = second[:j], first[:j]
        second[j] = l_new
        # Whether every entry the swap rewrote rounds to zero, by the test
        # `_gauss_reduce` screens with.
        reduced = l_new + 0.5 < 1.0 and l_new - 0.5 > -1.0
        for row in rows[j + 2:]:
            a, b = row[j], row[j + 1]
            row[j] = x = l_new * a + eta * b
            row[j + 1] = y = a - lj * b
            reduced = (reduced and x + 0.5 < 1.0 and x - 0.5 > -1.0
                       and y + 0.5 < 1.0 and y - 0.5 > -1.0)
        zt[j], zt[j + 1] = zt[j + 1], zt[j]
        floats[j], floats[j + 1] = floats[j + 1], floats[j]
        if tied or not reduced:
            tied = _gauss_reduce(rows, zt, floats, None if tied else j)
        start = max(j - 1, 0)
    else:  # pragma: no cover - safety stop
        raise RuntimeError("decorrelation did not converge")

    # Compose with any prior transform.
    z_total = (np.array(zt, dtype=np.int64) @ dist.z_matrix.T).T
    lower, diag = np.array(rows), np.array(d)
    cov_z = (lower * diag) @ lower.T
    return AmbiguityDistribution(
        floats=np.array(floats),
        covariance=0.5 * (cov_z + cov_z.T),
        z_matrix=z_total,
        lower=lower,
        diag=diag,
    )


def _integer_inverse(z_matrix):
    """Integer matrix mapping decorrelated integers back to the original
    space.

    The transform is unimodular, so the inverse is exactly integer and
    unique; the float inverse is rounded and checked exactly in integers.
    """
    zt = np.asarray(z_matrix, dtype=np.int64).T
    inv_int = np.rint(np.linalg.inv(zt.astype(float))).astype(np.int64)
    if not np.array_equal(inv_int @ zt, np.eye(len(zt), dtype=np.int64)):
        raise ValueError("transform is not unimodular")
    return inv_int


def inverse_transform(z_matrix, vector):
    """Map integers from decorrelated space back to the original space."""
    return _integer_inverse(z_matrix) @ np.asarray(vector, dtype=np.int64)


# ---------------------------------------------------------------------------
# Bootstrapping and acceptance statistics
# ---------------------------------------------------------------------------

def bootstrap(dist: AmbiguityDistribution) -> np.ndarray:
    """Fix ambiguities by sequential conditional rounding.

    The first component is rounded outright; every later component is first
    corrected for the already-committed residuals through the lower factor,
    then rounded.

    Returns
    -------
    ndarray of int, shape (n,)
    """
    n = dist.size
    cond = dist.floats.tolist()
    lower = dist.lower.tolist()
    fixed = []
    for i in range(n):
        fixed.append(_round_scalar(cond[i]))
        resid = cond[i] - fixed[i]
        for k in range(i + 1, n):
            cond[k] -= lower[k][i] * resid
    return np.array(fixed, dtype=np.int64)


def success_rate(diag, subset_size=None, s_coefficient=1.0, gamma=1.0) -> float:
    """Probability that conditional rounding of the leading subset is correct.

    Evaluates ``prod_i sqrt(1 - exp(-S**gamma / (8 d_i**2)))`` over the first
    ``subset_size`` conditional variances.  With ``s_coefficient = 1`` this is
    the plain bootstrap success probability; an external-evidence factor
    ``S < 1`` widens each effective ``d_i`` to ``d_i / S**(gamma/2)`` and
    so lowers the probability, scaled by ``gamma`` (typically ``1/m`` for a
    subset of size ``m``).

    Parameters
    ----------
    diag : array_like
        Conditional variances [cycles^2]; the caller is responsible for any
        desired ordering (ascending for partial resolution).
    subset_size : int, optional
        Number of leading entries to include (default: all).
    s_coefficient : float
        Evidence factor in (0, 1].  Values outside are clamped.
    gamma : float
        Exponent applied to ``s_coefficient``.

    Returns
    -------
    float in [0, 1]
    """
    numer = min(max(float(s_coefficient), 1e-300), 1.0) ** gamma
    prob = 1.0
    for di in np.asarray(diag, dtype=float)[:subset_size].tolist():
        prob *= _success_term(numer, di)
    return prob


def _success_term(numer, d):
    """One factor ``sqrt(1 - exp(-numer / (8 d**2)))`` of
    :func:`success_rate`, with ``numer = S**gamma``."""
    if d <= 0.0:
        return 1.0  # already-exact component contributes certainty
    return math.sqrt(max(1.0 - math.exp(-numer / (8.0 * d * d)), 0.0))


def discrimination_test(cost_best, cost_second) -> bool:
    """True when the runner-up candidate is sufficiently worse than the best.

    The ratio ``cost_second / cost_best`` must exceed
    ``KAPPA_DISCRIMINATION``.  A degenerate tie at zero cost (both candidates
    sit exactly on the floats) cannot be discriminated and is rejected.
    """
    if cost_best < 0.0 or cost_second < cost_best:
        raise ValueError("costs must satisfy 0 <= cost_best <= cost_second")
    if cost_best == 0.0:
        return cost_second > 0.0 and not math.isclose(cost_second, 0.0)
    return (cost_second / cost_best) > KAPPA_DISCRIMINATION


# ---------------------------------------------------------------------------
# External-sensor penalty
# ---------------------------------------------------------------------------

def _normal_matrix(geometry):
    """Geometry rows as floats and their normal matrix ``G^T G``; raises
    ``SingularGeometryError`` if the rows span fewer than three directions."""
    g = np.asarray(geometry, dtype=float)
    if g.ndim != 2 or g.shape[1] != 3:
        raise ValueError("geometry must be (k, 3)")
    gram = g.T @ g
    if g.shape[0] < 3 or np.linalg.matrix_rank(gram, tol=1e-10 * max(np.trace(gram), 1e-30)) < 3:
        raise SingularGeometryError("need three independent lines of sight")
    return g, gram


def candidate_baseline(geometry, ddcp_phases, candidate, wavelength):
    """Relative position implied by a double-difference integer candidate.

    Solves the overdetermined linear system ``G rho = lambda (phi - N)`` in
    the least-squares sense.

    Parameters
    ----------
    geometry : ndarray, shape (k, 3)
        Differenced line-of-sight rows (ECI).
    ddcp_phases : ndarray, shape (k,)
        Double-differenced phases [cycles].
    candidate : ndarray, shape (k,)
        Integer ambiguities for each row [cycles].
    wavelength : float
        Carrier wavelength [m].

    Returns
    -------
    ndarray, shape (3,)
        Baseline vector in the geometry frame [m].

    Raises
    ------
    SingularGeometryError
        If the rows span fewer than three directions.
    """
    g, gram = _normal_matrix(geometry)
    rhs = float(wavelength) * (np.asarray(ddcp_phases, dtype=float) - np.asarray(candidate, dtype=float))
    return np.linalg.solve(gram, g.T @ rhs)


def constraint_context(geometry, ddcp_phases, dd_variance, baseline, observed,
                       variances, dcm_eci_to_sensor, wavelength, n_free):
    """External range/bearing evidence for a search over the first
    ``n_free`` rows of a double-difference problem.

    ``geometry`` (k, 3) holds DD line-of-sight rows (ECI) that resolve the
    chief-minus-deputy ``baseline`` estimate [m], ``ddcp_phases`` (k,) the
    DD phases [cycles] with the known integers of the rows from ``n_free``
    on already taken out, and ``dd_variance`` the variance of each phase row
    [m^2].  ``observed`` is the bias-corrected (range [m], azimuth,
    elevation [rad]) and ``variances`` their variances before the blur.

    The candidate baseline is triangulated from the phases, so their noise
    blurs it; that blur widens the gates, or they would veto and pull
    candidates on what is really phase noise.  Of the baseline covariance
    ``H diag(dd_variance) H^T``, with ``H = (G^T G)^-1 G^T``, the part along
    ``baseline`` adds to the range variance and half the perpendicular part,
    over the squared range, to each angle variance.  Fewer than three rows,
    or a singular ``G^T G``, add no blur.
    """
    g = np.asarray(geometry, dtype=float)
    blur_range = blur_angle = 0.0
    if len(g) >= 3:
        try:
            h = np.linalg.solve(g.T @ g, g.T)
            cov_b = (h * dd_variance) @ h.T
            rng = float(np.linalg.norm(baseline))
            u = baseline / rng
            blur_range = float(u @ cov_b @ u)
            var_perp = max(float(np.trace(cov_b)) - blur_range, 0.0)
            blur_angle = 0.5 * var_perp / rng ** 2
        except np.linalg.LinAlgError:
            pass
    sigmas = [math.sqrt(v + blur) for v, blur in
              zip(variances, (blur_range, blur_angle, blur_angle))]
    return ConstraintContext(
        *observed, *sigmas, geometry=g,
        ddcp_phases=np.asarray(ddcp_phases, dtype=float),
        dcm_eci_to_sensor=dcm_eci_to_sensor, wavelength=wavelength,
        free_rows=np.arange(n_free))


def penalty_cost(computed_range, computed_azimuth, computed_elevation,
                 ctx: ConstraintContext) -> float:
    """Cost of violating the external range/bearing observations.

    Angle residuals are weighted by the inter-satellite range so that the
    angular terms compare on a length-like footing; the range residual is
    weighted by its own variance only.  Disabled observables contribute
    nothing; when ranging is disabled the angles are weighted by the
    computed range instead.
    """
    cost = 0.0
    if ctx.range_enabled:
        weight_range = max(ctx.observed_range, 1e-9)
        dr = ctx.observed_range - computed_range
        cost += dr * dr / (ctx.sigma_range ** 2)
    else:
        weight_range = max(computed_range, 1e-9)
    if ctx.bearing_enabled:
        da = ctx.observed_azimuth - computed_azimuth
        de = ctx.observed_elevation - computed_elevation
        cost += da * da / (weight_range * ctx.sigma_azimuth ** 2)
        cost += de * de / (weight_range * ctx.sigma_elevation ** 2)
    return cost


def _constraint_cost(ctx, dist):
    """Penalty of one decorrelated candidate of ``dist`` (a sequence of n
    integers), as a function returning a float, or None when no penalty
    is enabled.

    The geometry check (``SingularGeometryError`` when a penalty is
    enabled) and all work shared by the candidates are done here once.  A
    candidate's sensor-frame baseline is linear in the candidate, ``rho(c)
    = rho(r) - A (c - r)`` with ``A = lambda dcm (G^T G)^-1 G^T[:, free]
    Z^-1``, anchored at the rounded floats ``r``, whose baseline is solved
    with the arithmetic of :func:`candidate_baseline`.  The anchor keeps
    the terms of the sum small: double-difference ambiguities reach 1e5
    cycles, and ``rho(0) - A c`` would cancel terms of about 2e4 m.
    """
    if ctx is None or not ctx.any_enabled:
        return None
    z_inverse = _integer_inverse(dist.z_matrix)
    g, gram = _normal_matrix(ctx.geometry)
    lam = float(ctx.wavelength)
    phases = np.asarray(ctx.ddcp_phases, dtype=float)
    free = slice(None) if ctx.free_rows is None else np.asarray(ctx.free_rows)
    anchor = [_round_scalar(x) for x in dist.floats.tolist()]
    # Known rows hold phases with their integers already removed.
    integers = np.zeros(len(phases))
    integers[free] = z_inverse @ np.array(anchor, dtype=np.int64)
    dcm = ctx.dcm_eci_to_sensor
    rho_anchor = (dcm @ np.linalg.solve(
        gram, g.T @ (lam * (phases - integers)))).tolist()
    rows = (lam * (dcm @ np.linalg.solve(gram, g.T))[:, free]
            @ z_inverse).tolist()

    def cost(vector):
        step = [c - a for c, a in zip(vector, anchor)]
        x, y, z = [r - sum(a * s for a, s in zip(row, step))
                   for r, row in zip(rho_anchor, rows)]
        rng = math.sqrt(x * x + y * y + z * z)
        if rng < 1e-12:
            az = el = 0.0
        else:
            az = math.asin(min(max(y / rng, -1.0), 1.0))
            el = math.atan2(x, z)
        return penalty_cost(rng, az, el, ctx)

    return cost


# ---------------------------------------------------------------------------
# Integer least-squares search, plain or with the sensor penalty
# ---------------------------------------------------------------------------

def _zigzag(center):
    """Integers in order of distance from ``center``: the nearest first,
    then alternately one step further on its side of ``center`` and on the
    other (Schnorr & Euchner 1994)."""
    base = _round_scalar(center)
    toward = 1 if center - base >= 0.0 else -1
    yield base
    step = 1
    while True:
        yield base + toward * step
        yield base - toward * step
        step += 1


def _search(dist: AmbiguityDistribution, penalty) -> IntegerSearchResult:
    """Exact two best integer vectors of distance plus penalty.

    ``penalty(vector)`` maps one integer vector to a non-negative float;
    ``None`` means no penalty.  One depth-first pass visits the
    conditional tree with each level's integers in :func:`_zigzag` order,
    so a level's distances never decrease and the first one past the bound
    ends the level.  The bound starts infinite, so the first leaf is the
    bootstrap path and its total is ``cost_init``; once two candidates are
    in, the bound is the runner-up's total.  A candidate can beat the
    runner-up only if its distance alone stays within that total, so the
    best vector and the runner-up are both exact, unless the pass stops at
    its leaf budget.  Each in-bound leaf is priced once, when the pass
    reaches it, and the result holds the totals the pass ranked by.  The
    walk works on Python lists; its center, residual and distance
    arithmetic is the scalar form of the conditional update
    ``c[k] += L[k, l] * resid``.
    """
    n = dist.size
    last = n - 1
    floats = dist.floats.tolist()
    diag = dist.diag.tolist()
    # Column l of the factor below the diagonal.
    below = [dist.lower[level + 1:, level].tolist() for level in range(n)]
    cand = [0] * n
    best = []  # at most two (total, vector), cheapest first
    cost_init = None
    bound = math.inf
    budget = 20_000
    exhausted = False

    def descend(level, partial, corrections):
        nonlocal cost_init, bound, budget, exhausted
        # Conditional center given the residuals committed at shallower
        # levels; ``corrections`` holds them for this level and deeper.
        center = floats[level] + corrections[0]
        column, deeper = below[level], corrections[1:]
        for value in _zigzag(center):
            # Near the float ``value - floats[level]`` is exact, so a
            # residual keeps its relative precision when the float sits
            # next to an integer; ``center`` would round it to its own ulp.
            resid = (value - floats[level]) - corrections[0]
            cost = partial + resid * resid / diag[level]
            if cost > bound + 1e-12:
                return
            if budget <= 0:
                exhausted = True
                return
            cand[level] = value
            if level < last:
                descend(level + 1, cost,
                        [c + a * resid for c, a in zip(deeper, column)])
                continue
            budget -= 1
            total = cost + penalty(cand) if penalty else cost
            if cost_init is None:
                cost_init = total
            best.append((total, tuple(cand)))
            best.sort(key=lambda t: t[0])
            del best[2:]
            if len(best) == 2:
                bound = best[1][0]

    descend(0, 0.0, [0.0] * n)
    (c1, v1), (c2, v2) = best
    return IntegerSearchResult(
        best=np.array(v1, dtype=np.int64),
        second_best=np.array(v2, dtype=np.int64), cost_best=c1,
        cost_second=c2, cost_init=cost_init,
        success_prob=success_rate(dist.diag),
        discrimination_ratio=c2 / c1 if c1 > 0.0 else math.inf,
        budget_exhausted=exhausted,
    )


def classical_ils_search(dist: AmbiguityDistribution) -> IntegerSearchResult:
    """Integer least-squares search for the two best integer vectors.

    Minimizes the covariance-weighted squared distance from the floats in
    one depth-first pass whose bound starts infinite (the first leaf is the
    bootstrap vector) and, once two candidates are in, shrinks to the
    runner-up's cost, so the best vector and the runner-up are exact
    unless the leaf budget it shares with :func:`constrained_search` stops
    it (``budget_exhausted``).
    """
    return _search(dist, None)


def constrained_search(dist: AmbiguityDistribution,
                       ctx: ConstraintContext = None) -> IntegerSearchResult:
    """Integer least-squares search with an external-sensor penalty added
    to the ambiguity cost.

    The search of :func:`classical_ils_search` on the total cost, distance
    plus ``penalty_cost``.  An external observable carves a curved valley
    into the cost surface (the candidates whose implied baseline matches
    the measured range form a shell crossing the lattice obliquely), so the
    two best totals can sit far from the bootstrap; the search finds
    them, bounded by the runner-up's total.  Each candidate the pass
    reaches in bound is priced once.  With ``ctx`` None, or every
    observable disabled, the result is the classical one.

    Parameters
    ----------
    dist : AmbiguityDistribution
        Typically decorrelated; candidates are produced in its space.
    ctx : ConstraintContext, optional
        External evidence.  ``None`` disables the penalty.

    Returns
    -------
    IntegerSearchResult

    Raises
    ------
    SingularGeometryError
        At entry, before any candidate is evaluated, if the penalty is
        enabled but the geometry cannot support a baseline solution (fewer
        than three rows, or rows spanning fewer than three directions);
        callers should fall back to :func:`classical_ils_search`.
    """
    return _search(dist, _constraint_cost(ctx, dist))


# ---------------------------------------------------------------------------
# Partial resolution
# ---------------------------------------------------------------------------

def _prefix_distances(chol, residual):
    """Squared covariance-weighted distance of every leading prefix of
    ``residual``, from the lower Cholesky factor ``chol`` (rows as lists)
    of its covariance.

    The leading block of the factor is the factor of the prefix's marginal
    covariance, so forward substitution ``chol y = residual`` gives the
    distance of prefix ``m`` as ``sum(y[:m] ** 2)``.
    """
    y, out, total = [], [], 0.0
    for row, r in zip(chol, residual):
        yk = (r - sum(a * b for a, b in zip(row, y))) / row[len(y)]
        y.append(yk)
        total += yk * yk
        out.append(total)
    return out


def partial_resolve(dist: AmbiguityDistribution, result: IntegerSearchResult,
                    use_shrink=True) -> PartialFix:
    """Select the largest well-determined prefix of ambiguities to fix.

    Components are ordered by ascending conditional variance.  The subset is
    grown one component at a time; each size ``m`` must pass the modified
    success test (with evidence factor ``S = cost_best / cost_init`` raised
    to ``1/m``, above ``KAPPA_SUCCESS``) and a discrimination test on the
    subset (runner-up must be at least ``KAPPA_DISCRIMINATION`` times worse
    over the subset components, unless the two candidates agree there).
    Growth stops at the first size that fails; the previous size is
    returned.

    With ``use_shrink=False`` the evidence factor is pinned to one (the
    plain acceptance test), appropriate when the search ran without
    external-sensor constraints.

    All sizes are scored on Python scalars from one ordering.  With S = 1
    the success rate of size ``m`` is a running product, the same terms in
    the order :func:`success_rate` multiplies them; with S < 1 every term
    changes with ``m``, so each size takes its own product.  The subset
    distances of the discrimination test come from one Cholesky factor of
    the reordered covariance, taken the first time a size needs them (the
    sizes past the first component where the two candidates differ); they
    agree with solving each size's marginal covariance to rounding.

    Returns
    -------
    PartialFix
        ``subset_size`` zero means nothing was accepted.  Component indices
        refer to the distribution's own (decorrelated) ordering.
        ``success_prob`` is the modified success rate of the accepted size
        (1 when nothing is accepted).
    """
    n = dist.size
    order = np.argsort(dist.diag, kind="stable")
    diag = dist.diag[order].tolist()

    if use_shrink and result.cost_init > 0.0:
        shrink = min(max(result.cost_best / result.cost_init, 1e-300), 1.0)
    else:
        shrink = 1.0

    vectors = (result.best[order].tolist(), result.second_best[order].tolist())
    differ = next((k for k, (a, b) in enumerate(zip(*vectors)) if a != b), n)
    distances = None
    accepted, success_prob, prob = 0, 1.0, 1.0
    for m in range(1, n + 1):
        if shrink == 1.0:
            prob *= _success_term(1.0, diag[m - 1])
        else:
            numer = shrink ** (1.0 / m)
            prob = 1.0
            for dk in diag[:m]:
                prob *= _success_term(numer, dk)
        if prob <= KAPPA_SUCCESS:
            break
        if m > differ:
            if distances is None:
                chol = np.linalg.cholesky(
                    dist.covariance[np.ix_(order, order)]).tolist()
                floats = dist.floats[order].tolist()
                distances = [_prefix_distances(
                    chol, [v - f for v, f in zip(vec, floats)])
                    for vec in vectors]
            cb, cs = distances[0][m - 1], distances[1][m - 1]
            if not discrimination_test(min(cb, cs), max(cb, cs)):
                break
        accepted, success_prob = m, prob

    idx = order[:accepted]
    return PartialFix(
        indices=np.asarray(idx, dtype=np.int64),
        values=np.asarray(result.best, dtype=np.int64)[idx],
        subset_size=accepted,
        success_prob=success_prob,
        shrink_factor=shrink,
    )
