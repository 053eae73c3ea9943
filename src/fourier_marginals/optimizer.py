"""Worst-case weight optimization for the max-variance objective.

The weighted error of a release is (1/mu) sum_R G_R r_R(p), a concave
function of the workload weights p on the simplex, and the max-variance
guarantee is its value at the maximizing p*.  The objective, the member
roots r_R and the derivatives below are read from the workload's
budget.SubsetPlan by the same calls that give a release its weighted
RMS and sigma_S, so the optimizer keeps no formula of its own and no
members-by-sets matrix is formed.  At p* the per-query noise deviation
sigma_S is the same for every set carrying weight and no set exceeds
it, so the maximum equals the weighted error.

optimize_pstar runs projected gradient ascent from the uniform interior
point with a backtracking line search, which keeps the objective
nondecreasing, and stops when the first-order residual drops below tol.
The residual compares the scaled partial derivatives

    D_S = sum_{R subseteq S} G_R coef(R, S) / r_R,

SubsetPlan.derivatives, which must not exceed min over weighted sets S'
of D_{S'} at an optimum; D_S is proportional to sigma_S^2, so the same
check certifies variance maximality.  Near the optimum a damped Newton
step solves the first-order equations on the support of p by conjugate
gradients: no Jacobian is formed, each product with it is two bincounts
over the plan's pairs with G_R coef(R, S) > 0, and a step over a
support of k sets holds O(pairs + k) memory.  Every run is
deterministic.  On the workloads in the test suite convergence takes
well under a thousand iterations; pathological instances raise
NoConvergence with the best iterate attached.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import mechanism
from .core import FourierMarginalsError, normalize_weights

# the inner sums r_R^2 stay at or above this during iteration; the
# first-order conditions guarantee strict positivity at the optimum
SUM_FLOOR = 1e-14
SUPPORT_TOL = 1e-12
# the Newton step's conjugate gradients stop at this relative residual
CG_TOL = 1e-14


class NoConvergence(FourierMarginalsError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, max_iter, best):
        super().__init__(
            f"no convergence within {max_iter} iterations; best residual "
            f"{best.kkt_residual:.3e}")
        self.max_iter = max_iter
        self.best = best


class NotOnSimplex(FourierMarginalsError):
    """Weights must be nonnegative and sum to one."""


@dataclass(frozen=True)
class WeightSolution:
    """Maximizing weights with a first-order certificate.

    p_star is aligned with sets; objective is the weighted error at
    p_star for mu = 1; kkt_residual is the largest violation of the
    optimality inequalities (0 at an exact optimum); objective_trace
    holds the objective at every accepted iterate.
    """

    sets: tuple
    p_star: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    objective_trace: tuple = field(default=(), repr=False)

    def as_map(self):
        return {s: float(v) for s, v in zip(self.sets, self.p_star)}


def _floored(plan, roots):
    """Whether a member that some set needs has r_R^2 below SUM_FLOOR."""
    return bool((roots[plan.need_member] ** 2 < SUM_FLOOR).any())


def _newton_step(plan, roots, D, idx):
    """Newton direction on the support idx.

    Solves the bordered Newton system of the first-order equations,
    -J delta = D_s - mean(D_s) with delta summing to zero, where
    -J = 1/2 C_s^T diag(G / r^3) C_s is symmetric positive definite
    while every needed root is positive.  Conjugate gradients run on
    the zero-sum subspace: each product with -J is two bincounts over
    the plan's needed pairs on idx with the mean projected out, so an
    iteration costs O(pairs) time and the step holds O(pairs + k)
    memory.  CG stops once the residual falls to CG_TOL of its start,
    after k = idx.size iterations, or at a curvature d.(-J d) that is
    not positive and finite; it returns its last iterate (zero when the
    first curvature fails, which ends the polish).
    """
    k = idx.size
    column = np.full(len(plan.sets), -1)
    column[idx] = np.arange(k)
    col = column[plan.need_set]
    keep = col >= 0
    member, col, coef = plan.need_member[keep], col[keep], \
        plan.need_coef[keep]
    scaled = coef * (0.5 * plan.gains[member] / roots[member] ** 3)

    def product(v):
        inner = np.bincount(member, weights=coef * v[col],
                            minlength=len(plan.members))
        out = np.bincount(col, weights=scaled * inner[member], minlength=k)
        return out - out.mean()

    residual = D[idx] - D[idx].mean()
    # the subtraction leaves a rounding-sized mean that no product can
    # reduce; remove it, or it sets the floor of the residual
    residual -= residual.mean()
    delta = np.zeros(k)
    direction = residual.copy()
    square = float(residual @ residual)
    stop = CG_TOL ** 2 * square
    for _ in range(k):
        if square <= stop:
            break
        bent = product(direction)
        curvature = float(direction @ bent)
        if not 0.0 < curvature < np.inf:
            break
        alpha = square / curvature
        delta += alpha * direction
        residual -= alpha * bent
        square, previous = float(residual @ residual), square
        direction = residual + (square / previous) * direction
    return delta


def _project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    return np.maximum(v - css[rho - 1] / rho, 0.0)


def _residual(D, p):
    supported = p > SUPPORT_TOL
    return float(max(0.0, np.max(D) - np.min(D[supported])))


def _newton_polish(plan, p, tol, trace):
    """Equalize derivatives on the current support by damped Newton.

    Gradient ascent alone stalls once objective improvements fall under
    float rounding (iterate accuracy ~ sqrt(eps)); solving the
    first-order equations directly reaches full precision.  Returns the
    best (p, residual, objective) seen; the caller decides whether that
    meets tol.
    """
    best = None
    for _ in range(100):
        roots = plan.roots(p)
        D = plan.derivatives(roots)
        residual = _residual(D, p)
        f_val = float(plan.gains @ roots)
        trace.append(f_val)
        if best is None or residual < best[1]:
            best = (p.copy(), residual, f_val)
        if residual <= tol:
            break
        idx = np.flatnonzero(p > SUPPORT_TOL)
        if idx.size <= 1 or (roots[plan.need_member] <= 0).any():
            break
        delta = _newton_step(plan, roots, D, idx)
        alpha = 1.0
        cand = None
        while alpha > 1e-12:
            trial = p.copy()
            trial[idx] = p[idx] + alpha * delta
            if trial[idx].min() >= 0 and not _floored(plan,
                                                      plan.roots(trial)):
                cand = trial
                break
            alpha *= 0.5
        if cand is None:
            # a support coordinate wants to leave: clamp it out
            moved = np.maximum(p[idx] + delta, 0.0)
            trial = p.copy()
            trial[idx] = moved
            if trial.sum() <= 0:
                break
            trial /= trial.sum()
            if _floored(plan, plan.roots(trial)):
                break
            cand = trial
        if np.array_equal(cand, p):
            break
        p = cand
    return best


def optimize_pstar(workload, tol=1e-8, max_iter=20000):
    """Maximize the weighted error over workload weights on the simplex.

    The workload's weights are ignored (they are the variable being
    solved for).  Raises NoConvergence with the best iterate attached
    when the residual fails to reach tol within max_iter accepted steps,
    and FourierMarginalsError unless 0 < tol < inf and max_iter is an
    integer >= 0.
    """
    if not 0 < tol < math.inf:
        raise FourierMarginalsError(
            f"tol must be positive and finite, got {tol}")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise FourierMarginalsError(
            f"max_iter must be an integer >= 0, got {max_iter!r}")
    if not workload.sets:
        raise FourierMarginalsError(
            "the workload has no sets, so it has no weights to optimize")
    _, plan, _ = mechanism.as_product(workload)
    sets = plan.sets
    n = len(sets)
    p = np.full(n, 1.0 / n)
    step = 1.0
    trace = []
    for it in range(max_iter + 1):
        roots = plan.roots(p)
        f_val = float(plan.gains @ roots)
        trace.append(f_val)
        D = plan.derivatives(roots)
        residual = _residual(D, p)
        near = residual <= 1e-3 * max(1.0, float(np.max(D[np.isfinite(D)],
                                                        initial=0.0)))
        if residual > tol and near:
            p_new, residual_new, f_new = _newton_polish(plan, p.copy(), tol,
                                                        trace)
            if residual_new < residual:
                p, residual, f_val = p_new, residual_new, f_new
        if residual <= tol:
            return WeightSolution(sets=sets, p_star=p, objective=f_val,
                                  kkt_residual=residual, iterations=it,
                                  objective_trace=tuple(trace))
        if it == max_iter:
            break
        gradient = D / 2.0
        moved = False
        while step > 1e-18:
            q = _project_simplex(p + step * gradient)
            roots_q = plan.roots(q)
            if _floored(plan, roots_q):
                step *= 0.5
                continue
            advance = float(gradient @ (q - p))
            if advance <= 0.0:
                break  # projected fixed point at this step size
            if float(plan.gains @ roots_q) - f_val >= 1e-4 * advance:
                moved = True
                break
            step *= 0.5
        if not moved:
            p_new, residual_new, f_new = _newton_polish(plan, p.copy(), tol,
                                                        trace)
            if residual_new <= tol:
                return WeightSolution(sets=sets, p_star=p_new,
                                      objective=f_new,
                                      kkt_residual=residual_new,
                                      iterations=it,
                                      objective_trace=tuple(trace))
            break
        p = q
        step = min(step * 2.0, 1e8)
    best = WeightSolution(sets=sets, p_star=p, objective=f_val,
                          kkt_residual=residual, iterations=it,
                          objective_trace=tuple(trace))
    raise NoConvergence(max_iter, best)


def kkt_check(workload, p):
    """First-order optimality report for given weights.

    residual is the largest amount by which some D_S exceeds a weighted
    set's D_{S'} (inf when moving weight would help at unbounded rate);
    sigma_gap is the worst shortfall of a weighted set's noise deviation
    from the maximum over all sets, 0 at an optimum.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (len(workload.sets),):
        raise NotOnSimplex(
            f"need {len(workload.sets)} weights, got shape {p.shape}")
    if abs(p.sum() - 1.0) > 1e-9 or p.min() < -1e-9:
        raise NotOnSimplex(
            f"weights must be nonnegative and sum to 1, got sum {p.sum()}")
    p = np.maximum(p, 0.0)
    # the weights predicted_error reads: p scaled to sum to one
    weighted = normalize_weights(workload, p)
    _, plan, _ = mechanism.as_product(weighted)
    sets = plan.sets
    roots = plan.roots(weighted.weights)
    D = plan.derivatives(roots)
    supported = p > SUPPORT_TOL
    report = mechanism._error_report(plan, roots, 1.0)
    sigmas = report["per_set_sigma"]
    max_sigma = report["max_sigma"]
    gaps = [max_sigma - sigmas[s] for s, keep in zip(sets, supported)
            if keep]
    return {
        "residual": _residual(D, p),
        "derivatives": {s: float(v) for s, v in zip(sets, D)},
        "per_set_sigma": sigmas,
        "max_sigma": max_sigma,
        "sigma_gap": max(gaps),
        "supported": [s for s, keep in zip(sets, supported) if keep],
    }
