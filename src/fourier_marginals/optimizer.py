"""Worst-case weight optimization for the max-variance objective.

The weighted error of a release is (1/mu) sum_R G_R sqrt(c_R(p)), a
concave function of the workload weights p on the simplex, and the
max-variance guarantee is its value at the maximizing p*.  G_R and the
coefficients coef(R, S) are read off the workload's budget.SubsetPlan,
one per pair R <= S of closure member and set; only the optimizer
spreads them into a dense members-by-sets matrix.  At p* the
per-query noise deviation sigma_S is the same for every set carrying
weight and no set exceeds it, so the maximum equals the weighted error.

optimize_pstar runs projected gradient ascent from the uniform interior
point with a backtracking line search, which keeps the objective
nondecreasing, and stops when the first-order residual drops below tol.
The residual compares the scaled partial derivatives

    D_S = sum_{R subseteq S} G_R coef(R, S) / sqrt(c_R(p)),

which must not exceed min over weighted sets S' of D_{S'} at an
optimum; D_S is proportional to sigma_S^2, so the same check certifies
variance maximality.  Every run is deterministic.  On the workloads in
the test suite convergence takes well under a thousand iterations;
pathological instances raise NoConvergence with the best iterate
attached.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import budget, mechanism
from .core import FourierMarginalsError

# inner sums stay at or above this during iteration; the first-order
# conditions guarantee strict positivity at the optimum itself
SUM_FLOOR = 1e-14
SUPPORT_TOL = 1e-12


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


def _structure(workload, kind):
    """Grouped objective data: members, G_R, coef(R, S), active rows.

    Read off the workload's budget.SubsetPlan; C is dense, members by
    sets, with coef(R, S) = z_{S - R} / |U_S|^2 on every pair R <= S.
    """
    workload, spectrum, _ = mechanism.as_product(workload, kind)
    plan = budget.subset_plan(workload, spectrum)
    C = np.zeros((len(plan.members), len(plan.sets)))
    C[plan.pair_member, plan.pair_set] = plan.coef
    active = (plan.gains > 0) & (C.max(axis=1) > 0)
    return plan.members, plan.sets, plan.gains, C, active


def _objective(G, C, active, p):
    c = C[active] @ p
    return float(G[active] @ np.sqrt(np.maximum(c, 0.0)))


def _derivatives(G, C, active, p):
    """Scaled partials D_S = 2 df/dp(S); inf where an inner sum is 0."""
    Ga, Ca = G[active], C[active]
    c = Ca @ p
    if c.size == 0:
        return np.zeros(C.shape[1])
    if (c > 0).all():
        return Ca.T @ (Ga / np.sqrt(c))
    out = np.zeros(C.shape[1])
    for i, ci in enumerate(c):
        if ci > 0:
            out = out + Ca[i] * (Ga[i] / math.sqrt(ci))
        else:
            out[Ca[i] > 0] = math.inf
    return out


def _project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    return np.maximum(v - css[rho - 1] / rho, 0.0)


def _residual(D, p):
    supported = p > SUPPORT_TOL
    return float(max(0.0, np.max(D) - np.min(D[supported])))


def _newton_polish(G, C, active, p, tol, trace):
    """Equalize derivatives on the current support by damped Newton.

    Gradient ascent alone stalls once objective improvements fall under
    float rounding (iterate accuracy ~ sqrt(eps)); solving the
    first-order equations directly reaches full precision.  Returns the
    best (p, residual, objective) seen; the caller decides whether that
    meets tol.
    """
    Ga, Ca = G[active], C[active]
    best = None
    for _ in range(100):
        D = _derivatives(G, C, active, p)
        residual = _residual(D, p)
        f_val = _objective(G, C, active, p)
        trace.append(f_val)
        if best is None or residual < best[1]:
            best = (p.copy(), residual, f_val)
        if residual <= tol:
            break
        idx = np.flatnonzero(p > SUPPORT_TOL)
        c = Ca @ p if Ca.size else np.empty(0)
        if idx.size <= 1 or (c <= 0).any():
            break
        Cs = Ca[:, idx]
        J = -0.5 * Cs.T @ (Cs * (Ga / c ** 1.5)[:, None])
        k = idx.size
        system = np.zeros((k + 1, k + 1))
        system[:k, :k] = J
        system[:k, k] = -1.0
        system[k, :k] = 1.0
        lam = float(D[idx].mean())
        rhs = np.concatenate([lam - D[idx], [0.0]])
        try:
            delta = np.linalg.solve(system, rhs)[:k]
        except np.linalg.LinAlgError:
            break
        alpha = 1.0
        cand = None
        while alpha > 1e-12:
            trial = p.copy()
            trial[idx] = p[idx] + alpha * delta
            if trial[idx].min() >= 0 and not ((Ca @ trial)
                                              < SUM_FLOOR).any():
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
            if ((Ca @ trial) < SUM_FLOOR).any():
                break
            cand = trial
        if np.array_equal(cand, p):
            break
        p = cand
    return best


def optimize_pstar(workload, kind=None, tol=1e-8, max_iter=20000):
    """Maximize the weighted error over workload weights on the simplex.

    kind defaults to the workload's own kind; the workload's weights
    are ignored (they are the variable being solved for).  Raises
    NoConvergence with the best iterate attached when the residual
    fails to reach tol within max_iter accepted steps.
    """
    if tol <= 0:
        raise FourierMarginalsError(f"tol must be positive, got {tol}")
    kind = kind or workload.kind
    members, sets, G, C, active = _structure(workload, kind)
    n = len(sets)
    p = np.full(n, 1.0 / n)
    step = 1.0
    trace = []
    for it in range(max_iter + 1):
        f_val = _objective(G, C, active, p)
        trace.append(f_val)
        D = _derivatives(G, C, active, p)
        residual = _residual(D, p)
        near = residual <= 1e-3 * max(1.0, float(np.max(D[np.isfinite(D)],
                                                        initial=0.0)))
        if residual > tol and near:
            p_new, residual_new, f_new = _newton_polish(G, C, active,
                                                        p.copy(), tol, trace)
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
            cq = C[active] @ q
            if cq.size and (cq < SUM_FLOOR).any():
                step *= 0.5
                continue
            advance = float(gradient @ (q - p))
            if advance <= 0.0:
                break  # projected fixed point at this step size
            if _objective(G, C, active, q) - f_val >= 1e-4 * advance:
                moved = True
                break
            step *= 0.5
        if not moved:
            p_new, residual_new, f_new = _newton_polish(G, C, active,
                                                        p.copy(), tol, trace)
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


def kkt_check(workload, p, kind=None):
    """First-order optimality report for given weights.

    residual is the largest amount by which some D_S exceeds a weighted
    set's D_{S'} (inf when moving weight would help at unbounded rate);
    sigma_gap is the worst shortfall of a weighted set's noise deviation
    from the maximum over all sets, 0 at an optimum.
    """
    kind = kind or workload.kind
    p = np.asarray(p, dtype=float)
    if p.shape != (len(workload.sets),):
        raise NotOnSimplex(
            f"need {len(workload.sets)} weights, got shape {p.shape}")
    if p.min() < -1e-9 or abs(p.sum() - 1.0) > 1e-9:
        raise NotOnSimplex(
            f"weights must be nonnegative and sum to 1, got sum {p.sum()}")
    p = np.maximum(p, 0.0)
    members, sets, G, C, active = _structure(workload, kind)
    D = _derivatives(G, C, active, p)
    supported = p > SUPPORT_TOL
    report = mechanism.predicted_error(workload, p=p, kind=kind)
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
