"""Quadratic-surrogate closed forms and model-level curvature/linearization audits.

The local picture: each mode has a quadratic surrogate around its own
optimum. Forcing one shared weight vector to serve both modes lands at a
curvature-weighted compromise and pays a nonnegative conflict gap;
giving each mode its own expert removes that penalty exactly at fixed
backbone. The functions here compute those closed forms and check them
against direct evaluation, probe the cross-expert Hessian block of the
real training loss (exact zero up to finite-difference noise), verify
the first-order interference criterion on exact quadratics, and measure
how well a single downstream linearization predicts the route logit gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SingularityError
from .model import ModelParams, _swiglu_at, decoder_logits, mlp_dispatch, mlp_prefix, segment_group
from .params import as_leaves, euclidean_norm, sampled_cross_hessian_max
from .tensor import Tensor
from .trainer import ChatExample, two_mode_loss_fn

SYM_TOL = 1e-12
PSD_TOL = -1e-10
MIN_EIG = 1e-10
HESSIAN_STEP = 1e-3  # finite-difference step of the cross-Hessian probes
FD_STEP = 1e-3  # central-difference step of the linearization's derivative


@dataclass(frozen=True)
class QuadraticMode:
    """One mode's local surrogate: curvature H, optimum beta_star, weight pi."""

    H: np.ndarray
    beta_star: np.ndarray
    pi: float
    base_loss: float = 0.0

    def __post_init__(self):
        H = np.asarray(self.H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
        if np.max(np.abs(H - H.T)) > SYM_TOL:
            raise ValueError("H is not symmetric")
        if float(np.min(np.linalg.eigvalsh(H))) < PSD_TOL:
            raise ValueError("H has a negative eigenvalue beyond tolerance")
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError("pi must lie in [0, 1]")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "beta_star", np.asarray(self.beta_star, dtype=np.float64))

    def loss(self, beta: np.ndarray) -> float:
        d = np.asarray(beta, dtype=np.float64) - self.beta_star
        return self.base_loss + 0.5 * float(d @ self.H @ d)

    def grad(self, beta: np.ndarray) -> np.ndarray:
        return self.H @ (np.asarray(beta, dtype=np.float64) - self.beta_star)


@dataclass(frozen=True)
class GradientPair:
    """Mode gradients at a shared point, with their dataset weights."""

    g0: np.ndarray
    g1: np.ndarray
    pi0: float
    pi1: float

    def __post_init__(self):
        g0 = np.asarray(self.g0, dtype=np.float64)
        g1 = np.asarray(self.g1, dtype=np.float64)
        if g0.shape != g1.shape:
            raise ValueError("gradient shapes differ")
        if abs(self.pi0 + self.pi1 - 1.0) > 1e-12:
            raise ValueError("pi0 + pi1 must equal 1")
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "g1", g1)


def _sym_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b via symmetric eigendecomposition; A must be well-posed."""
    w, Q = np.linalg.eigh(A)
    if float(np.min(w)) <= MIN_EIG:
        raise SingularityError(f"combined curvature is singular (min eigenvalue {np.min(w):.3e})")
    return Q @ ((Q.T @ b) / w)


def weighted_objective(m0: QuadraticMode, m1: QuadraticMode, beta: np.ndarray) -> float:
    return m0.pi * m0.loss(beta) + m1.pi * m1.loss(beta)


def dense_optimum(m0: QuadraticMode, m1: QuadraticMode) -> np.ndarray:
    """Minimizer of the weighted surrogate: the curvature-weighted compromise."""
    A = m0.pi * m0.H + m1.pi * m1.H
    b = m0.pi * (m0.H @ m0.beta_star) + m1.pi * (m1.H @ m1.beta_star)
    return _sym_solve(A, b)


def conflict_gap(m0: QuadraticMode, m1: QuadraticMode) -> float:
    """Excess surrogate loss the shared compromise pays over split optima; >= 0."""
    bd = dense_optimum(m0, m1)
    total = 0.0
    for m in (m0, m1):
        d = bd - m.beta_star
        total += 0.5 * m.pi * float(d @ m.H @ d)
    return total


def equal_curvature_gap(
    H: np.ndarray, beta0_star: np.ndarray, beta1_star: np.ndarray, pi0: float
) -> float:
    """Closed form under shared curvature: pi0*pi1/2 * diff' H diff."""
    H = np.asarray(H, dtype=np.float64)
    if float(np.min(np.linalg.eigvalsh(H))) < PSD_TOL:
        raise ValueError("H has a negative eigenvalue beyond tolerance")
    diff = np.asarray(beta0_star, dtype=np.float64) - np.asarray(beta1_star, dtype=np.float64)
    return 0.5 * pi0 * (1.0 - pi0) * float(diff @ H @ diff)


def interference_predicate(gp: GradientPair) -> tuple[bool, float]:
    """Whether one shared step raises the mode-0 loss at first order.

    Returns (criterion, delta) with delta = pi0*|g0|^2 + pi1*g0'g1; the
    shared step changes the mode-0 loss by -eta*delta at first order, so
    a negative delta means first-order increase.
    """
    n0 = float(gp.g0 @ gp.g0)
    if n0 == 0.0 or gp.pi1 == 0.0:
        raise DegenerateInputError("needs |g0| > 0 and pi1 > 0")
    dot = float(gp.g0 @ gp.g1)
    delta = gp.pi0 * n0 + gp.pi1 * dot
    return dot < -(gp.pi0 / gp.pi1) * n0, delta


@dataclass(frozen=True)
class InterferenceReport:
    eta: float
    first_order: float  # predicted change of L0: -eta * delta
    second_order_bound: float  # 0.5 * eta^2 * d' H0 d for the shared step
    dense_change: float  # exact L0 change after the shared step
    split_change: float  # exact L0 change after the separate-expert step
    split_second_order: float
    predicate: bool

    @property
    def sign_consistent(self) -> bool:
        """First-order sign matches the exact change when it dominates."""
        if abs(self.first_order) <= self.second_order_bound:
            return True  # too close to call at first order
        return (self.dense_change > 0) == (self.first_order > 0)


def verify_interference_on_quadratic(
    m0: QuadraticMode, m1: QuadraticMode, beta: np.ndarray, eta: float
) -> InterferenceReport:
    """One exact shared step on the surrogates vs the first-order prediction."""
    beta = np.asarray(beta, dtype=np.float64)
    g0, g1 = m0.grad(beta), m1.grad(beta)
    gp = GradientPair(g0, g1, m0.pi, m1.pi)
    predicate, delta = interference_predicate(gp)
    d = -eta * (m0.pi * g0 + m1.pi * g1)
    dense_change = m0.loss(beta + d) - m0.loss(beta)
    bound = 0.5 * float(d @ m0.H @ d)
    d_split = -eta * m0.pi * g0
    split_change = m0.loss(beta + d_split) - m0.loss(beta)
    split_bound = 0.5 * float(d_split @ m0.H @ d_split)
    return InterferenceReport(
        eta=eta,
        first_order=-eta * delta,
        second_order_bound=bound,
        dense_change=dense_change,
        split_change=split_change,
        split_second_order=split_bound,
        predicate=predicate,
    )


def fixed_backbone_dominance(m0: QuadraticMode, m1: QuadraticMode) -> tuple[float, float, bool]:
    """Split-optima value vs the shared compromise value; split never loses."""
    split_value = m0.pi * m0.loss(m0.beta_star) + m1.pi * m1.loss(m1.beta_star)
    dense_value = weighted_objective(m0, m1, dense_optimum(m0, m1))
    return split_value, dense_value, split_value <= dense_value + 1e-12


def random_quadratic_pair(dim: int, seed: int, equal_curvature: bool = False) -> tuple[QuadraticMode, QuadraticMode]:
    """Well-conditioned random PSD instances for the closed-form checks."""
    rng = np.random.default_rng(seed)

    def psd() -> np.ndarray:
        A = rng.normal(size=(dim + 4, dim))
        H = A.T @ A + 1e-6 * np.eye(dim)
        return (H + H.T) / 2.0

    H0 = psd()
    H1 = H0 if equal_curvature else psd()
    pi0 = float(rng.uniform(0.1, 0.9))
    m0 = QuadraticMode(H0, rng.normal(size=dim), pi0, base_loss=float(rng.uniform(0, 2)))
    m1 = QuadraticMode(H1, rng.normal(size=dim), 1.0 - pi0, base_loss=float(rng.uniform(0, 2)))
    return m0, m1


# ---------------------------------------------------------------------------
# model-level curvature audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HessianAuditReport:
    cross_beta0_beta1: float
    alpha_beta0: float
    alpha_beta1: float
    beta0_beta0: float
    probes: int
    step: float


def hessian_block_audit(
    model: ModelParams,
    batch0: Sequence[ChatExample],
    batch1: Sequence[ChatExample],
    probes: int = 64,
    seed: int = 0,
) -> HessianAuditReport:
    """Sampled second cross-partials of the full objective by parameter block.

    The expert-expert block is exactly zero in the objective; anything
    the probe reports there is finite-difference noise. The alpha-expert
    and within-expert blocks are the non-degeneracy controls showing the
    probe does detect real curvature.
    """
    loss_fn = two_mode_loss_fn(model, list(batch0) + list(batch1))
    g = model.groups()
    # expert-only blocks first, so the alpha points (pointed from the shared segments on) come last
    blocks = {"cross_beta0_beta1": (g["beta0"], g["beta1"], seed), "beta0_beta0": (g["beta0"], g["beta0"], seed + 3),
              "alpha_beta0": (g["alpha"], g["beta0"], seed + 1), "alpha_beta1": (g["alpha"], g["beta1"], seed + 2)}
    maxima = sampled_cross_hessian_max(
        loss_fn, model.params, None, list(blocks.values()), step=HESSIAN_STEP, probes=probes
    )
    return HessianAuditReport(**dict(zip(blocks, maxima)), probes=probes, step=HESSIAN_STEP)


# ---------------------------------------------------------------------------
# downstream linearization of the route logit gap
# ---------------------------------------------------------------------------


def random_expert_direction(model: ModelParams, layer: int, seed: int) -> dict[str, np.ndarray]:
    """Unit-Frobenius direction over one layer's think-expert matrices."""
    rng = np.random.default_rng(seed)
    prefix = f"layer{layer}.expert1."
    out = {
        name: rng.normal(size=arr.shape)
        for name, arr in model.params.items()
        if name.startswith(prefix)
    }
    scale = euclidean_norm(out.values())
    return {k: v / scale for k, v in out.items()}


@dataclass(frozen=True)
class LinearizationRow:
    eps: float
    gap_norm: float
    prediction_norm: float
    residual: float
    rel_residual: float


def linearization_residual(
    model: ModelParams,
    tokens,
    direction: dict[str, np.ndarray],
    epsilons: Sequence[float],
) -> list[LinearizationRow]:
    """Exact route logit gap vs its one-term downstream linearization.

    ``direction`` must move expert segments of exactly one layer (else
    ValueError); for each eps they move to beta + eps*dir. The prediction takes
    f1 - f0, the two experts' outputs on that layer's route-0 MLP input,
    through the route-0 forward's derivative in that layer's MLP output:
    central differences of ``decoder_logits`` with the output shifted by
    +-FD_STEP along it. One three-point forward runs route 0 with that output
    as it is and at both shifts. The relative residual must shrink
    superlinearly as eps halves; when the downstream map is affine the two
    agree to rounding.
    """
    layers = {name.split(".")[0] for name, _ in model.params.items()
              if name in direction and segment_group(name) != "alpha"}
    if len(layers) != 1:
        raise ValueError(f"direction must move the expert segments of exactly one layer, got {sorted(layers)}")
    layer = int(layers.pop().removeprefix("layer"))
    rows = []
    for eps in epsilons:
        leaves = as_leaves(model.params)
        leaves.update((n, Tensor(model.params[n] + eps * direction[n])) for n in model.params.names if n in direction)
        route0 = mlp_dispatch(model, leaves, 0)
        scales: list[float] = []

        def apply(at: int, h: Tensor) -> Tensor:
            """Route 0's MLP output; at ``layer``, three points: it, then it moved by +-FD_STEP along f1 - f0."""
            f0 = route0(at, h)
            if at != layer:
                return f0
            df = _swiglu_at(leaves, mlp_prefix(layer, 1), h).data - f0.data
            scales.append(euclidean_norm([df]))
            if scales[0] == 0.0:
                return f0
            shift = FD_STEP * (df / scales[0])
            return Tensor(np.stack((f0.data, f0.data + shift, f0.data - shift)), pointed=True)

        l1 = decoder_logits(model.config, leaves, tokens, mlp_dispatch(model, leaves, 1)).data
        l0 = decoder_logits(model.config, leaves, tokens, apply).data
        if scales[0] == 0.0:
            rows.append(LinearizationRow(eps, 0.0, 0.0, 0.0, 0.0))
            continue
        gap, pred = l1 - l0[0], (l0[1] - l0[2]) * (scales[0] / (2.0 * FD_STEP))
        gap_n, pred_n, res = (euclidean_norm([a]) for a in (gap, pred, gap - pred))
        rows.append(LinearizationRow(eps, gap_n, pred_n, res, res / gap_n if gap_n > 0 else 0.0))
    return rows


# ---------------------------------------------------------------------------
# length-mass accounting
# ---------------------------------------------------------------------------


def length_mass_report(dataset: Sequence[ChatExample]) -> dict[str, dict[str, float]]:
    """Per-mode example counts, mean target length, and total token mass.

    Under a token-summed objective the dense update mass per expert
    scales with token mass; route locking confines each mode's mass to
    its own expert (the bitwise-invariance experiment lives in the test
    suite, with the shared backbone frozen).
    """
    out: dict[str, dict[str, float]] = {}
    for name, route in (("no_think", 0), ("think", 1)):
        lengths = [len(ex.target_ids) for ex in dataset if int(ex.mode) == route]
        out[name] = {
            "count": float(len(lengths)),
            "mean_target_len": float(np.mean(lengths)) if lengths else 0.0,
            "token_mass": float(np.sum(lengths)) if lengths else 0.0,
        }
    return out
