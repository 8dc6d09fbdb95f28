"""Projected quasi-Newton ascent for the penalized interval likelihood.

The search runs in log-shape coordinates: the packed parameter vector
with a (and b where free) replaced by log a (and log b), written by
_encode and read by _decode; every probe passes one domain gate,
_search_objective.  Both shapes are positive scale-like parameters, and
b is weakly identified; on a log scale a probe cannot leave a, b > 0,
and a ridge in b is climbed in steps proportional to b.  The rate is
already searched as c = log rho, and starts at the rate of the median
interval: with a < 1 the interval law has no finite mean, so a
mean-rate start sits far out on the month-long gaps.

The kernel coefficients are constrained by nonnegativity of the event
rate on a fixed grid of times (default_constraint_grid, 1 ms to 5 s):
1 + sum_k gamma_k exp(-alpha_k t_i) >= 0 for every grid point t_i.  Each
constraint is a halfspace in the kernel slots, which the search
coordinates share with the packed vector, so a violated iterate is
repaired by orthogonal projection onto the most violated hyperplane
(repeated if needed), at the start and for every line-search candidate
alike, with one cap on the projections, _MAX_PROJ.  _repair forms the
grid rate once per point and hands it on as the point's slack, from
which the step reads the walls the point sits on.

Each step is the full curvature-mapped (quasi-Newton) step within the
face of the walls (grid constraints at zero rate) the iterate sits on:
a wall the gradient pushes against holds the step, one it pulls away
from is released, and what the walls leave of the gradient is what the
stop test reads, both its largest entry and the gain the curvature map
predicts from it.  The line search walks one ladder, _STEPS: the full
step, then halvings down to _ETA_MIN, 28 candidates in all.  It takes
the first one, repaired where needed, that does not lower the objective;
a search whose ladder runs out ends the fit "line search failed", and
only the gradient test ends a run as converged.  The raw gradient is
scaled by 1/N so the curvature map means the same thing across data
sizes.

The kernel basis terms overlap heavily, which leaves the likelihood
surface with curvatures spread over eight orders of magnitude; a bare
gradient step would need millions of iterations to cross the resulting
valley.  The gradient is therefore mapped through the inverse of a
curvature (the outer product of the per-interval scores of the point in
hand, formed only when the map is rebuilt on a geometric schedule, and
eigenvalue floored), which is what makes large fits converge in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import FitResult, ObjectiveValue
from .likelihood import InfeasibleParamsError, ItiSet, _evaluate
from .model import ModelParams, RefractoryKernel, VariantSpec, _decay_matrix, _variant_spec
from .selection import bic
from .special import PrecisionLossError

__all__ = [
    "FitConfig",
    "default_constraint_grid",
    "fit",
]

_ETA_MIN = 1e-8
# the line search's step ladder: the full step, halved down to _ETA_MIN
_STEPS = tuple(max(0.5**k, _ETA_MIN) for k in range(28))
# projections _repair may spend on one point, the start or a line-search
# candidate, before giving up: a safety net, not a step rule
_MAX_PROJ = 1000
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

# config file key: (FitConfig field, parser of its value)
_CONFIG_KEYS = {"max_iters": ("max_iters", int), "grad_tol": ("grad_tolerance", float),
                "seed": ("seed", int)}


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
    active walls: the shape entries read a d/da and b d/db.  Its square
    bounds the gain per datum the curvature map predicts for the next
    step.  seed, when set, adds a deterministic uniform jitter of at
    most 0.1 to log a, log b and c of the default start (never to the
    kernel, nor to init_params); it exists so multistart studies can be
    scripted without any hidden randomness.  init_params overrides the
    starting point entirely (it is projected to feasibility first if
    needed).
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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
        # every key is checked above before any value is parsed here
        try:
            kwargs = {field: parse(raw[key])
                      for key, (field, parse) in _CONFIG_KEYS.items() if key in raw}
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


def _repair(
    theta: np.ndarray, basis: np.ndarray, off: int
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Project onto most-violated hyperplanes until all are satisfied.

    Returns (theta, slack, projections used), slack the rate at every
    basis row, all nonnegative: the walls _face_step reads, computed
    here alone and unclamped (an exact-zero test, not the dust clamp of
    model._rate_from_decay).  Returns None, the one refusal of a repair,
    once _MAX_PROJ projections have not restored feasibility: a refused
    start ends the fit, a refused candidate is a failed rung of the
    ladder.  Alternating halfspace projections converge here because
    gamma = 0 is strictly interior.
    """
    used = 0
    while True:
        gamma = theta[off:]
        slack = 1.0 + basis @ gamma
        if slack.min(initial=0.0) >= 0.0:
            return theta, slack, used
        if used == _MAX_PROJ:
            return None
        w = basis[int(np.argmin(slack))]
        # the row's own dot product, not slack's entry, which the matrix
        # product rounds otherwise: the fits keep their last bits
        excess = 1.0 + float(w @ gamma)
        theta = theta.copy()
        theta[off:] = gamma - (excess / float(w @ w)) * w
        used += 1


def _encode(spec: VariantSpec, a: float, b: float, c: float, gamma) -> np.ndarray:
    """The search point of (a, b, c, gamma): the packed vector with a (and
    b where free) replaced by log a (and log b)."""
    u = spec.pack(a, b, c, gamma)
    n_shape = spec.gamma_offset - 1
    u[:n_shape] = np.log(u[:n_shape])
    return u


def _decode(u: np.ndarray, spec: VariantSpec) -> tuple[float, float, float, np.ndarray]:
    """(a, b, c, gamma) of a search point, b = 1 where fixed; a shape whose
    exp overflows is inf, one whose exp underflows is 0."""
    off = spec.gamma_offset
    with np.errstate(over="ignore"):
        shapes = np.exp(u[: off - 1])
    b = float(shapes[1]) if spec.free_b else 1.0
    return float(shapes[0]), b, float(u[off - 1]), u[off:]


def _initial_vector(variant: str, data: ItiSet, cfg: FitConfig) -> np.ndarray:
    """The starting point in search coordinates (see _encode).

    Without init_params: a = 0.8, b = 1.2, a flat kernel, and the rate
    of the median interval, c = -log(median).  The median holds still
    when a heavy tail (a < 1, no finite mean) adds month-long gaps; the
    mean rate n / span would not.  seed jitters log a, log b and c.
    """
    spec = _variant_spec(variant)
    start = cfg.init_params
    if start is not None:
        if start.variant != variant:
            raise ValueError(
                f"init_params is for variant {start.variant!r}, fitting {variant!r}"
            )
        return _encode(spec, start.a, start.b, start.c, start.kernel.gamma)
    # weighted median over the sorted unique intervals: the mean of the
    # order statistics (n - 1) // 2 and n // 2, counted from zero
    tau, cnt = data._unique()
    lo, hi = np.searchsorted(np.cumsum(cnt), ((data.n - 1) // 2, data.n // 2), side="right")
    c0 = -math.log(0.5 * (tau[lo] + tau[hi]))
    out = _encode(spec, 0.8, 1.2, c0, np.zeros(spec.n_kernel_terms))
    if cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        out[: spec.gamma_offset] += rng.uniform(-0.1, 0.1, size=spec.gamma_offset)
    return out


def _search_objective(
    u: np.ndarray, variant: str, data: ItiSet
) -> tuple[ObjectiveValue | None, np.ndarray | None, np.ndarray | None]:
    """Objective, gradient and per-interval scores at a search point, or
    three Nones out of the model domain.

    The fitter's one domain gate: a probe where a shape's exp underflows
    to 0 or overflows, the kernel drives the rate nonpositive, exp(c) R(tau)
    overflows, no 1F1 regime reaches its accuracy, or the objective or
    gradient is not finite is rejected rather than raised.  By the chain
    rule the shape entries of the gradient are a d/da and b d/db, and the
    shape columns of the scores are scaled alike.
    """
    spec = _variant_spec(variant)
    a, b, c, gamma = _decode(u, spec)
    if not (a > 0.0 and b > 0.0 and math.isfinite(a + b + c)):
        return None, None, None
    try:
        value, grad, scores = _evaluate(a, b, c, gamma, spec.alpha, variant, data)
    except (InfeasibleParamsError, PrecisionLossError, OverflowError):
        return None, None, None
    grad = spec.pack(a * grad[0], b * grad[1], grad[2], grad[3:])
    if not (math.isfinite(value.objective) and np.all(np.isfinite(grad))):
        return None, None, None
    scores[:, 0] *= a
    scores[:, 1] *= b
    return value, grad, scores


def _face_step(
    ascent: np.ndarray, grad: np.ndarray, slack: np.ndarray, basis: np.ndarray, off: int
) -> tuple[np.ndarray, np.ndarray]:
    """The quasi-Newton step within the face of the active walls.

    Maximizes g.d - d.H^-1.d / 2 subject to A d >= 0, with H the ascent
    map and A the rows of the walls the iterate sits on: those where its
    slack, the grid rate _repair returned with it, is at most
    _ACTIVE_SLACK.  Holding every wall gives multipliers
    mu = -(A H A')^-1 A H g; the wall with the most negative one is pulled
    away from, not pushed against, so it is released and the rest solved
    again.  Returns (free, direction), with free = g + A' mu, the
    gradient the walls leave (zero at a boundary optimum), and direction
    = H free, which keeps A d = 0 on the walls held.
    """
    rows = basis[slack <= _ACTIVE_SLACK]
    while rows.shape[0]:
        a = np.zeros((rows.shape[0], grad.size))
        a[:, off:] = rows
        ha = ascent @ a.T
        mu = -np.linalg.lstsq(a @ ha, ha.T @ grad, rcond=None)[0]
        worst = int(np.argmin(mu))
        if mu[worst] >= 0.0:
            free = grad + a.T @ mu
            return free, ascent @ free
        rows = np.delete(rows, worst, axis=0)
    return grad, ascent @ grad


def _ascent_map(scores: np.ndarray, spec: VariantSpec, data: ItiSet) -> np.ndarray:
    """Positive definite inverse of (S' diag(cnt) S + 2 reg I_gamma) / N.

    S holds _search_objective's per-interval scores and cnt their
    multiplicities.  Their weighted outer product is the BHHH (Berndt,
    Hall, Hall & Hausman 1974) estimate of the negated curvature over the
    search coordinates, which near the optimum of a well-specified model
    matches the Hessian; every pass forms S for its gradient, so a
    rebuild costs no pass of its own.  Eigenvalues are floored (relative
    to the stiffest) before inversion, which bounds the step along flat
    or locally convex directions; the backtracking search takes care of
    the rest.
    """
    _, cnt = data._unique()
    keep = spec.pack(0, 1, 2, range(3, scores.shape[1])).astype(int)
    info = (scores.T @ (cnt[:, None] * scores))[np.ix_(keep, keep)]
    kernel = np.arange(spec.gamma_offset, keep.size)
    info[kernel, kernel] += 2.0 * spec.reg_weight
    lam, q = np.linalg.eigh(info / data.n)
    top = float(lam.max())
    if not math.isfinite(top) or top <= 0.0:
        return np.eye(keep.size)
    lam = np.maximum(lam, _CURV_FLOOR * top)
    return (q / lam) @ q.T


def _secant_update(ascent: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-two update of the inverse-curvature map from one accepted step.

    s is the displacement, y the drop in the scaled gradient across it.
    Positive definiteness is preserved exactly when s . y > 0; anything
    else leaves the map untouched.
    """
    sy = float(s @ y)
    if not 0.0 < sy < math.inf:
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
    step along the search direction) and "max iterations" do not.
    """
    if cfg is None:
        cfg = FitConfig()
    spec = _variant_spec(variant)
    basis = _grid_basis(spec)
    off = spec.gamma_offset
    n = data.n

    # the search point u shares its kernel slots with the packed vector,
    # so repairs and faces act on it directly
    repaired = _repair(_initial_vector(variant, data, cfg), basis, off)
    if repaired is None:
        raise ArithmeticError("constraint repair did not terminate")
    u, slack, n_proj = repaired
    value, grad, scores = _search_objective(u, variant, data)
    if value is None:
        raise ValueError("initial parameters are outside the model domain")

    trace = [value]
    converged = False
    reason = "max iterations"
    refresh_at = 0

    for it in range(cfg.max_iters):
        scaled = grad / n
        if it >= refresh_at:
            ascent = _ascent_map(scores, spec, data)
            refresh_at = max(10, it * 2)
        free, direction = _face_step(ascent, scaled, slack, basis, off)
        tol = cfg.grad_tolerance
        if np.max(np.abs(free)) < tol and free @ direction < 2.0 * tol * tol:
            converged = True
            reason = "gradient tolerance"
            break

        peak = float(np.max(np.abs(direction), initial=0.0))
        if peak > _DIR_CAP:
            direction *= _DIR_CAP / peak
        for eta in _STEPS:
            repaired = _repair(u + eta * direction, basis, off)
            if repaired is None:
                continue
            cand, cand_slack, used = repaired
            cand_value, cand_grad, cand_scores = _search_objective(cand, variant, data)
            if cand_value is not None and cand_value.objective >= value.objective:
                break
        else:
            reason = "line search failed"
            break
        n_proj += used
        # Secant update keeps the map tracking the local curvature
        # between rebuilds; steps that fail its positivity condition
        # (projected, or crossing a convex patch) are skipped.
        ascent = _secant_update(ascent, cand - u, scaled - cand_grad / n)
        u, slack, value, grad, scores = cand, cand_slack, cand_value, cand_grad, cand_scores
        trace.append(value)

    a, b, c, gamma = _decode(u, spec)
    params_star = ModelParams(a, b, c, RefractoryKernel(gamma, spec.alpha), variant)
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

