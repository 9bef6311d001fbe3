"""Quadratic-surrogate closed forms, model-level curvature/linearization audits, and the claims registry.

The local picture: each mode has a quadratic surrogate around its own
optimum. Forcing one shared weight vector to serve both modes lands at a
curvature-weighted compromise and pays a nonnegative conflict gap;
giving each mode its own expert removes that penalty exactly at fixed
backbone. The functions here compute those closed forms and check them
against direct evaluation, probe the cross-expert Hessian block of the
real training loss (exact zero up to finite-difference noise), verify
the first-order interference criterion on exact quadratics, and measure
how well a single downstream linearization predicts the route logit gap.

``CLAIMS`` states each claim ``routelock theory`` checks once: the kind of
subject it runs on, its measure and, inside the measure, its bound. The
acceptance tests call the same measures on their own subjects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SingularityError
from .model import ModelConfig, ModelParams, _swiglu_at, decoder_logits, mlp_dispatch, mlp_prefix, segment_group
from .params import (
    as_leaves,
    central_differences,
    euclidean_norm,
    max_relative_error,
    sampled_cross_hessian_max,
    value_and_grad,
)
from .synth import SynthTaskSpec, generate_synth_dataset
from .tensor import Tensor
from .tokenizer import Vocabulary
from .trainer import ChatExample, mode_loss_grad, split_by_mode, two_mode_loss_fn

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


def fixed_backbone_dominance(m0: QuadraticMode, m1: QuadraticMode) -> tuple[float, float]:
    """Split-optima value and the shared compromise value; split never loses."""
    split_value = m0.pi * m0.loss(m0.beta_star) + m1.pi * m1.loss(m1.beta_star)
    dense_value = weighted_objective(m0, m1, dense_optimum(m0, m1))
    return split_value, dense_value


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
# the claims registry
# ---------------------------------------------------------------------------

QUAD_DIM = 8  # dimension of the random quadratic instances
CLOSED_FORM_TOL = 1e-10  # stationarity, conflict-gap and equal-curvature: a closed form against direct evaluation
DOMINANCE_TOL = 1e-12  # rounding allowed on split minus dense value, so on a negative conflict gap
INTERFERENCE_ETA = 1e-4  # learning rate of the interference claim's one step
INTERFERENCE_SLACK = 1e-15  # rounding allowed on the split step's change beyond its second-order bound
HESSIAN_CROSS_TOL = 1e-6  # finite-difference noise allowed on the exactly-zero cross-expert block
LINEARIZATION_RATIO = 0.6  # each halving of eps cuts the relative residual to at most this share


def quadratic_subject(kind: str, seed: int) -> tuple[QuadraticMode, QuadraticMode]:
    """The random instance a quadratic claim runs on, drawn with equal curvature for kind "equal-curvature"."""
    return random_quadratic_pair(QUAD_DIM, seed, equal_curvature=kind == "equal-curvature")


def audit_subject(seed: int, model: ModelParams | None = None,
                  vocab: Vocabulary | None = None) -> tuple[ModelParams, list[ChatExample], list[ChatExample]]:
    """(model, no-think examples, think examples) the model claims run on: ``model`` with synthetic
    data in ``vocab``, or by default a fresh tiny model and its synthetic task at ``seed``."""
    if model is None:
        data, vocab = generate_synth_dataset(SynthTaskSpec(modulus=5, n_problems=6, seed=seed))
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq=24)
        model = ModelParams.init_random(cfg, seed)
    else:
        data, _ = generate_synth_dataset(SynthTaskSpec(modulus=5, n_problems=4, seed=seed), vocab)
    return (model, *split_by_mode(data))


def measure_stationarity(m0, m1, seed, i):
    """|weighted gradient| at the dense optimum."""
    bd = dense_optimum(m0, m1)
    return np.linalg.norm(m0.pi * m0.grad(bd) + m1.pi * m1.grad(bd)), CLOSED_FORM_TOL, None


def measure_conflict_gap(m0, m1, seed, i):
    """The gap against dense minus split value, and any negative gap."""
    gap = conflict_gap(m0, m1)
    split, dense = fixed_backbone_dominance(m0, m1)
    return max(abs(gap - (dense - split)), -min(gap, 0.0)), CLOSED_FORM_TOL, None


def measure_equal_curvature(m0, m1, seed, i):
    """The equal-curvature closed form against the general gap."""
    closed = equal_curvature_gap(m0.H, m0.beta_star, m1.beta_star, m0.pi)
    return abs(conflict_gap(m0, m1) - closed), CLOSED_FORM_TOL, None


def measure_dominance(m0, m1, seed, i):
    """Split-optima value minus the shared compromise's."""
    split, dense = fixed_backbone_dominance(m0, m1)
    return split - dense, DOMINANCE_TOL, None


def measure_interference(m0, m1, seed, i):
    """A shared step's exact mode-0 change less its first-order prediction, against the second-order bound; holds
    when the first-order sign is right wherever decisive and the split step stays within its own bound."""
    beta = np.random.default_rng(seed + 1000 + i).normal(size=m0.beta_star.shape)
    rep = verify_interference_on_quadratic(m0, m1, beta, eta=INTERFERENCE_ETA)
    ok = rep.sign_consistent and rep.split_change <= rep.split_second_order + INTERFERENCE_SLACK
    return rep.dense_change - rep.first_order, rep.second_order_bound, ok


def measure_grad_vs_fd(model, d0, d1, seed, probes):
    """Reverse mode against central differences on ``probes`` coordinates drawn at ``seed``, or on all of them."""
    loss_fn = two_mode_loss_fn(model, d0[:4] + d1[:4])
    _, grads = value_and_grad(loss_fn, model.params, None)
    size = model.params.size
    # in flat order, a chunk of points perturbs few segments; the compared set is the draw's
    coords = np.sort(np.random.default_rng(seed).choice(size, size=min(probes, size), replace=False))
    fd = central_differences(loss_fn, model.params, None, coords, step=1e-5)
    return max_relative_error(grads.flatten()[coords], fd), 1e-5, None


def measure_decoupling(model, d0, d1, seed):
    """The inactive expert's gradient, expert 1's on a no-think batch and expert 0's on a think
    batch; the claim holds when every entry is bitwise zero."""
    inactive = []
    for batch, expert in ((d0[:4], ".expert1."), (d1[:4], ".expert0.")):
        _, grads = mode_loss_grad(model, batch)
        inactive += [grads[n] for n in grads.names if expert in n]
    worst = max(float(np.max(np.abs(g))) for g in inactive)
    return worst, 0.0, all(g.tobytes() == bytes(g.nbytes) for g in inactive)


def measure_hessian(model, d0, d1, seed, probes=16):
    """The cross-expert curvature vanishes; the within-expert and both alpha-expert controls do not."""
    rep = hessian_block_audit(model, d0[:4], d1[:4], probes=probes, seed=seed)
    controls = min(rep.beta0_beta0, rep.alpha_beta0, rep.alpha_beta1) > 1e-4
    return rep.cross_beta0_beta1, HESSIAN_CROSS_TOL, rep.cross_beta0_beta1 <= HESSIAN_CROSS_TOL and controls


def measure_linearization(model, d0, d1, seed):
    """Worst ratio of successive relative residuals as eps halves from 1e-1, along a direction over
    the last layer's think expert drawn at ``seed``, on the first no-think example. The route logit
    gap's linearization assumes equal experts, so it is measured at the model's route-0 twin."""
    model = model.route0_twin()
    direction = random_expert_direction(model, model.config.n_layers - 1, seed)
    rows = linearization_residual(model, list(d0[0].tokens), direction, [1e-1, 5e-2, 2.5e-2])
    ratios = [b.rel_residual / a.rel_residual for a, b in zip(rows, rows[1:]) if a.rel_residual > 0]
    return max(ratios) if ratios else 0.0, LINEARIZATION_RATIO, None


# Each claim: (subject kind, measure). A measure returns (measured, threshold, ok), where ok
# None means measured <= threshold. A quadratic measure takes (m0, m1, seed, i) and runs once
# per random instance, quadratic_subject(kind, seed + i); a model measure takes
# (model, d0, d1, seed) from audit_subject, grad-vs-fd also the number of probes, and runs once.
CLAIMS = {
    "stationarity": ("quadratic", measure_stationarity),
    "conflict-gap": ("quadratic", measure_conflict_gap),
    "equal-curvature": ("equal-curvature", measure_equal_curvature),
    "dominance": ("quadratic", measure_dominance),
    "interference": ("quadratic", measure_interference),
    "grad-vs-fd": ("model", measure_grad_vs_fd),
    "decoupling": ("model", measure_decoupling),
    "hessian": ("model", measure_hessian),
    "linearization": ("model", measure_linearization),
}
