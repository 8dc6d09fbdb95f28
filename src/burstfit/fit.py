"""Projected quasi-Newton ascent for the penalized interval likelihood.

The search runs in log-shape coordinates: the packed parameter vector
with a (and b where free) replaced by log a (and log b).  Both shapes
are positive scale-like parameters, and b is weakly identified; on a log
scale a probe cannot leave a, b > 0, and a ridge in b is climbed in
steps proportional to b.  The rate is already searched as c = log rho,
and starts at the rate of the median interval: with a < 1 the interval
law has no finite mean, so a mean-rate start sits far out on the
month-long gaps.

The kernel coefficients are constrained by nonnegativity of the event
rate on a fixed grid of times (default_constraint_grid, 1 ms to 5 s):
1 + sum_k gamma_k exp(-alpha_k t_i) >= 0 for every grid point t_i.  Each
constraint is a halfspace in the kernel slots, which the search
coordinates share with the packed vector, so a violated iterate is
repaired by orthogonal projection onto the most violated hyperplane
(repeated if needed).

Each step is the full curvature-mapped (quasi-Newton) step within the
face of the walls (grid constraints at zero rate) the iterate sits on:
a wall the gradient pushes against holds the step, one it pulls away
from is released, and what the walls leave of the gradient is what the
stop test reads.  The line search starts at that full step and halves
on decrease.  The raw gradient is scaled by 1/N so the curvature map
means the same thing across data sizes.  A projected step is allowed
to lower the objective (it restores feasibility); only the gradient test
ends a run as converged.

The kernel basis terms overlap heavily, which leaves the likelihood
surface with curvatures spread over eight orders of magnitude; a bare
gradient step would need millions of iterations to cross the resulting
valley.  The gradient is therefore mapped through the inverse of the
local curvature (one-sided finite differences of the gradient, one
probe per coordinate, eigenvalue floored, refreshed on a geometric
schedule), which is what makes large fits converge in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import FitResult, ObjectiveValue
from .likelihood import ItiSet, _vector_objective
from .model import ModelParams, VariantSpec, _decay_matrix, _variant_spec
from .model import params_to_vector, vector_to_params
from .selection import bic

__all__ = [
    "FitConfig",
    "default_constraint_grid",
    "feasible",
    "fit",
]

_ETA_MIN = 1e-8
# slack below which a grid constraint counts as active, so that the step
# is taken within its face
_ACTIVE_SLACK = 1e-9
# eigenvalues of the negated curvature are floored at this fraction of
# the stiffest one, so near-flat directions cannot blow a step up
# arbitrarily
_CURV_FLOOR = 1e-8
# largest per-coordinate magnitude a search direction may carry; beyond
# this a curvature solve is extrapolating far outside its own region
_DIR_CAP = 10.0

_CONFIG_KEYS = ("max_iters", "grad_tol", "seed")


def default_constraint_grid() -> np.ndarray:
    """The fitter's rate-nonnegativity checkpoints: 100 log-spaced times,
    1 ms to 5 s."""
    return np.geomspace(1e-3, 5.0, 100)


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the ascent loop.

    The objective is not among them: the penalty weight is the variant
    table's and the constraint grid is default_constraint_grid(), so
    every fit of a variant maximizes the same function, and BICs of
    fits made under different configs stay comparable.

    grad_tolerance bounds the largest entry of the 1/N-scaled gradient
    in the search coordinates (log a, [log b], c, gamma), left after the
    active walls: the shape entries read a d/da and b d/db.  seed, when
    set, adds a deterministic uniform jitter of at most 0.1 to log a,
    log b and c of the default start (never to the kernel, nor to
    init_params); it exists so multistart studies can be scripted
    without any hidden randomness.  init_params overrides the starting
    point entirely (it is projected to feasibility first if needed).
    """

    max_iters: int = 5000
    grad_tolerance: float = 1e-6
    seed: int | None = None
    init_params: ModelParams | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.grad_tolerance < math.inf:
            raise ValueError("grad_tolerance must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    @classmethod
    def from_file(cls, path) -> "FitConfig":
        """Parse a key=value config file ('#' comments, blank lines ok)."""
        raw: dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
                key, _, value = text.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise ValueError(
                        f"{path}:{lineno}: unknown key {key!r}; known keys: "
                        + ", ".join(_CONFIG_KEYS)
                    )
                raw[key] = value.strip()
        kwargs: dict = {}
        try:
            if "max_iters" in raw:
                kwargs["max_iters"] = int(raw["max_iters"])
            if "grad_tol" in raw:
                kwargs["grad_tolerance"] = float(raw["grad_tol"])
            if "seed" in raw:
                kwargs["seed"] = int(raw["seed"])
        except ValueError as exc:
            raise ValueError(f"{path}: bad numeric value ({exc})") from None
        return cls(**kwargs)


def _grid_basis(spec: VariantSpec) -> np.ndarray:
    """exp(-alpha_k t_i) for the variant's kernel on the default grid,
    shape (1 + grid, n).

    Row 0 is the lag-zero constraint (all ones): without it the rate
    below the first grid time is unbounded below, and iterates can pin
    the integrated rate at the shortest observed interval against zero,
    where every further step leaves the likelihood domain.
    """
    return _decay_matrix(spec.alpha, np.concatenate(([0.0], default_constraint_grid())))


def feasible(kernel, grid: np.ndarray) -> tuple[bool, int | None]:
    """Is the rate nonnegative at every grid time?

    Returns (True, None) or (False, index of the most violated point).
    """
    grid = np.asarray(grid, dtype=float)
    return _basis_feasible(_decay_matrix(kernel.alpha, grid), np.asarray(kernel.gamma))


def _basis_feasible(basis: np.ndarray, gamma: np.ndarray) -> tuple[bool, int | None]:
    """feasible() on a precomputed basis exp(-alpha_k t_i)."""
    rate = 1.0 + basis @ gamma
    worst = int(np.argmin(rate))
    if rate[worst] >= 0.0:
        return True, None
    return False, worst


def _project_row(theta: np.ndarray, w: np.ndarray, off: int) -> np.ndarray:
    """Project the kernel block onto the halfspace 1 + w . gamma >= 0."""
    gamma = theta[off:]
    excess = 1.0 + float(w @ gamma)
    if excess >= 0.0:
        return theta
    out = theta.copy()
    out[off:] = gamma - (excess / float(w @ w)) * w
    return out


def _repair(theta: np.ndarray, basis: np.ndarray, off: int, cap: int) -> tuple[np.ndarray, int] | None:
    """Project onto most-violated hyperplanes until all are satisfied.

    Returns (theta, projections used), or None once cap projections have
    not restored feasibility.  Alternating halfspace projections converge
    here because gamma = 0 is strictly interior.
    """
    used = 0
    while True:
        ok, worst = _basis_feasible(basis, theta[off:])
        if ok:
            return theta, used
        if used == cap:
            return None
        theta = _project_row(theta, basis[worst], off)
        used += 1


def _initial_vector(variant: str, data: ItiSet, cfg: FitConfig) -> np.ndarray:
    """The starting point in search coordinates (see _search_objective).

    Without init_params: a = 0.8, b = 1.2, a flat kernel, and the rate
    of the median interval, c = -log(median).  The median holds still
    when a heavy tail (a < 1, no finite mean) adds month-long gaps; the
    mean rate n / span would not.  seed jitters log a, log b and c.
    """
    spec = _variant_spec(variant)
    n_shape = spec.gamma_offset - 1
    if cfg.init_params is not None:
        if cfg.init_params.variant != variant:
            raise ValueError(
                f"init_params is for variant {cfg.init_params.variant!r}, fitting {variant!r}"
            )
        out = params_to_vector(cfg.init_params)
        out[:n_shape] = np.log(out[:n_shape])
        return out
    # weighted median over the sorted unique intervals: the mean of the
    # order statistics (n - 1) // 2 and n // 2, counted from zero
    tau, cnt = data._unique()
    lo, hi = np.searchsorted(np.cumsum(cnt), ((data.n - 1) // 2, data.n // 2), side="right")
    c0 = -math.log(0.5 * (tau[lo] + tau[hi]))
    out = spec.pack(math.log(0.8), math.log(1.2), c0, np.zeros(spec.n_kernel_terms))
    if cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        out[: spec.gamma_offset] += rng.uniform(-0.1, 0.1, size=spec.gamma_offset)
    return out


def _packed(u: np.ndarray, variant: str) -> np.ndarray:
    """The packed vector of a search point: exp of its log-shape slots."""
    n_shape = _variant_spec(variant).gamma_offset - 1
    theta = u.copy()
    with np.errstate(over="ignore"):
        theta[:n_shape] = np.exp(u[:n_shape])
    return theta


def _search_objective(
    u: np.ndarray, variant: str, data: ItiSet
) -> tuple[ObjectiveValue | None, np.ndarray | None]:
    """_vector_objective at a search point, with its gradient in search
    coordinates.

    The search point u is the packed vector with a (and b where free)
    replaced by log a (and log b).  By the chain rule the gradient's
    shape entries are a d/da and b d/db; the rate c and the kernel gamma
    are searched as packed.  An overflowing exp(u) gives an infinite
    shape, which _vector_objective rejects.
    """
    theta = _packed(u, variant)
    value, grad = _vector_objective(theta, variant, data)
    if grad is not None:
        n_shape = _variant_spec(variant).gamma_offset - 1
        grad[:n_shape] *= theta[:n_shape]
    return value, grad


def _face_step(
    ascent: np.ndarray, grad: np.ndarray, theta: np.ndarray, basis: np.ndarray, off: int
) -> tuple[np.ndarray, np.ndarray]:
    """The quasi-Newton step within the face of the active walls.

    Maximizes g.d - d.H^-1.d / 2 subject to A d >= 0, with H the ascent
    map and A the rows of the walls the iterate sits on.  Holding every
    wall gives multipliers mu = -(A H A')^-1 A H g; the wall with the most
    negative one is pulled away from, not pushed against, so it is
    released and the rest solved again.  Returns (free, direction), with
    free = g + A' mu, the gradient the walls leave (zero at a boundary
    optimum), and direction = H free, which keeps A d = 0 on the walls
    held.
    """
    rows = basis[1.0 + basis @ theta[off:] <= _ACTIVE_SLACK]
    while rows.shape[0]:
        a = np.zeros((rows.shape[0], theta.size))
        a[:, off:] = rows
        ha = ascent @ a.T
        mu = -np.linalg.lstsq(a @ ha, ha.T @ grad, rcond=None)[0]
        worst = int(np.argmin(mu))
        if mu[worst] >= 0.0:
            free = grad + a.T @ mu
            return free, ascent @ free
        rows = np.delete(rows, worst, axis=0)
    return grad, ascent @ grad


def _curvature_matrix(
    u: np.ndarray,
    grad: np.ndarray,
    variant: str,
    data: ItiSet,
    previous: np.ndarray,
) -> np.ndarray:
    """Forward differences of the per-datum gradient, one column per probe.

    Column i is (g(u + h e_i) - g(u)) / h in search coordinates, with
    g(u) the gradient already in hand, so a refresh costs one gradient
    evaluation per coordinate.  The full matrix comes at the price of a
    diagonal, and it is symmetrized to absorb finite-difference noise.
    A forward probe raises the shapes, the rate and the kernel, so it
    leaves the model domain only where exp overflows or no 1F1 regime
    settles; such a probe reuses the previous column (the fit's first
    refresh starts from the negated identity).
    """
    dim = u.size
    n = data.n
    cols = np.empty((dim, dim))
    for i in range(dim):
        h = 1e-4 * max(1.0, abs(u[i]))
        probe = u.copy()
        probe[i] += h
        _, gp = _search_objective(probe, variant, data)
        if gp is None:
            cols[:, i] = previous[:, i] * n
        else:
            cols[:, i] = (gp - grad) / h
    return (cols + cols.T) / (2.0 * n)


def _ascent_map(curvature: np.ndarray) -> np.ndarray:
    """Positive definite inverse of the negated curvature.

    Eigenvalues are floored (relative to the stiffest) before
    inversion, which bounds the step along flat or locally convex
    directions; the backtracking search takes care of the rest.
    """
    lam, q = np.linalg.eigh(-curvature)
    top = float(lam.max())
    if not math.isfinite(top) or top <= 0.0:
        return np.eye(curvature.shape[0])
    lam = np.maximum(lam, _CURV_FLOOR * top)
    return (q / lam) @ q.T


def _secant_update(ascent: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-two update of the inverse-curvature map from one accepted step.

    s is the displacement, y the drop in the scaled gradient across it.
    Positive definiteness is preserved exactly when s . y > 0; anything
    else leaves the map untouched.
    """
    sy = float(s @ y)
    if not math.isfinite(sy) or sy <= 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
        return ascent
    rho = 1.0 / sy
    hy = ascent @ y
    return (
        ascent
        + ((sy + float(y @ hy)) * rho * rho) * np.outer(s, s)
        - rho * (np.outer(hy, s) + np.outer(s, hy))
    )


def fit(variant: str, data: ItiSet, cfg: FitConfig | None = None) -> FitResult:
    """Maximize the penalized objective for one variant on one data set.

    Never raises for a fit that merely fails to converge; the result
    carries a converged flag and a reason string.  Only "gradient
    tolerance" counts as converged; "line search failed" (no improving
    step even after a fresh curvature map) and "max iterations" do not.
    """
    if cfg is None:
        cfg = FitConfig()
    spec = _variant_spec(variant)
    basis = _grid_basis(spec)
    off = spec.gamma_offset
    n = data.n

    # the search point u shares its kernel slots with the packed vector,
    # so repairs and faces act on it directly.  A cap this high is a
    # safety net, not an expected path.
    repaired = _repair(_initial_vector(variant, data, cfg), basis, off, 1000)
    if repaired is None:
        raise ArithmeticError("constraint repair did not terminate")
    u, n_proj = repaired
    value, grad = _search_objective(u, variant, data)
    if value is None:
        raise ValueError("initial parameters are outside the model domain")

    trace = [value]
    converged = False
    reason = "max iterations"
    max_proj = spec.n_kernel_terms + 1
    # the negated identity, with +0.0 off the diagonal where -np.eye has -0.0
    curv = np.diag(np.full(u.size, -1.0))
    ascent = np.eye(u.size)
    refresh_at = 0

    for it in range(cfg.max_iters):
        scaled = grad / n
        free, direction = _face_step(ascent, scaled, u, basis, off)
        if np.max(np.abs(free)) < cfg.grad_tolerance:
            converged = True
            reason = "gradient tolerance"
            break

        prev_u = u
        refresh = it >= refresh_at
        while True:
            if refresh:
                curv = _curvature_matrix(u, grad, variant, data, curv)
                ascent = _ascent_map(curv)
                refresh_at = max(10, it * 2)
                _, direction = _face_step(ascent, scaled, u, basis, off)
            peak = float(np.max(np.abs(direction), initial=0.0))
            if peak > _DIR_CAP:
                direction *= _DIR_CAP / peak
            accepted, u, value, new_grad, used = _backtrack(
                u, value, direction, variant, data, basis, off, max_proj
            )
            if accepted or refresh:
                break
            # The map in hand may describe a region the iterate left
            # several steps ago; rebuild it once before giving up.
            refresh = True
        if not accepted:
            reason = "line search failed"
            break
        grad = new_grad
        n_proj += used
        # Secant update keeps the map tracking the local curvature
        # between the much more expensive probe rebuilds; steps that
        # fail its positivity condition (projected, or crossing a convex
        # patch) are skipped.
        ascent = _secant_update(ascent, u - prev_u, scaled - grad / n)
        trace.append(value)

    params_star = vector_to_params(_packed(u, variant), variant)
    return FitResult(
        params_star=params_star,
        objective_trace=tuple(trace),
        converged=converged,
        reason=reason,
        n_projections=n_proj,
        bic=bic(value.objective, spec.n_params, n),
        n_data=n,
        data_digest=data.digest,
    )


def _backtrack(
    u: np.ndarray,
    value: ObjectiveValue,
    direction: np.ndarray,
    variant: str,
    data: ItiSet,
    basis: np.ndarray,
    off: int,
    max_proj: int,
):
    """Halve the step from the full one until a feasible candidate
    improves the objective.

    Works in search coordinates (see _search_objective).  Returns
    (accepted, u, value, grad, n_projections); a rejected search hands
    back the incoming point with grad None.
    """
    eta = 1.0
    while True:
        repaired = _repair(u + eta * direction, basis, off, max_proj)
        if repaired is not None:
            cand, used = repaired
            cand_value, cand_grad = _search_objective(cand, variant, data)
            if cand_value is not None and cand_value.objective >= value.objective:
                return True, cand, cand_value, cand_grad, used
        if eta <= _ETA_MIN:
            return False, u, value, None, 0
        eta = max(eta / 2.0, _ETA_MIN)
