"""Library input checks: each bad call raises its own error with a message naming the fault."""

import os
from pathlib import Path

import numpy as np
import pytest

from routelock.checkpoint import save_checkpoint
from routelock.errors import DataError, ShapeError
from routelock.leakage import ReflectiveLexicon
from routelock.model import generate
from routelock.params import ParamVector, central_differences, sampled_cross_hessian_max, value_and_grad
from routelock.synth import SynthTaskSpec
from routelock.tensor import Tensor, backward, embedding, matmul, mul, rope_rotate, softmax_cross_entropy, sum_all
from routelock.theory import GradientPair, QuadraticMode, equal_curvature_gap
from routelock.tokenizer import CTRL_NOTHINK_ID, CTRL_THINK_ID, Route
from routelock.trainer import ChatExample, TrainConfig, token_level_route_variant, train

from conftest import tiny_model, with_entries

LOGITS = np.zeros((2, 4))
NOT_PSD = np.diag([1.0, -1.0])
PV = ParamVector([("w", np.zeros(3))])
NAN, INF = float("nan"), float("inf")


def squares(leaves, _batch):
    """sum(w * w): a finite loss, so a bad step cannot hide behind a failing loss_fn."""
    return sum_all(mul(leaves["w"], leaves["w"]))


NO_FILE = Path(os.devnull) / "model.ple"  # a save that opened its file would fail with an OSError
THINK_EXAMPLE = ChatExample.build([1, 8, CTRL_THINK_ID], [10, 2], Route.THINK)  # 4 input positions

INPUT_CHECKS = {
    "expert-index-none": (lambda: tiny_model().expert_index(None), ValueError, "route is required"),
    "expert-index-route-2": (lambda: tiny_model().expert_index(2), ValueError, "route must be 0 or 1, got 2"),
    "generate-temperature-inf": (lambda: generate(tiny_model(), [1, 8], 2, temperature=float("inf"), seed=1),
                                 ValueError, "temperature must be a finite number > 0, got inf"),
    "generate-temperature-overflows": (lambda: generate(tiny_model(), [1, 8], 2, temperature=1e-320, seed=1),
                                       ValueError, "temperature 1e-320 is too small: logits / temperature overflow"),
    "generate-max-new-float": (lambda: generate(tiny_model(), [1, 8], 2.5), ValueError,
                               "max_new must be an integer >= 0, got 2.5"),
    "generate-max-new-bool": (lambda: generate(tiny_model(), [1, 8], True), ValueError,
                              "max_new must be an integer >= 0, got True"),
    "lexicon-marker-with-space": (lambda: ReflectiveLexicon(("wait", "wait now")), ValueError,
                                  "lexicon marker 'wait now' is not one whitespace-free token"),
    "lexicon-single-string": (lambda: ReflectiveLexicon("wait"), ValueError,
                              "lexicon markers must be a sequence of strings, got the single string 'wait'"),
    "lexicon-marker-not-string": (lambda: ReflectiveLexicon(("wait", 7)), ValueError,
                                  "lexicon marker 7 is not a string"),
    "save-checkpoint-non-finite": (
        lambda: save_checkpoint(with_entries(tiny_model(), {"embed": ((0, 0), NAN)}), NO_FILE), ValueError,
        r"model\.ple: non-finite values \(NaN or inf\) in segment 'embed'"),
    "train-empty-dataset": (lambda: train(tiny_model(), [], TrainConfig(learning_rate=0.1)), ValueError,
                            "dataset is empty"),
    "chat-example-empty-target": (lambda: ChatExample.build([CTRL_NOTHINK_ID], [], Route.NO_THINK), DataError,
                                  "target_ids is empty"),
    "token-routes-wrong-length": (lambda: token_level_route_variant(tiny_model(), THINK_EXAMPLE, [1, 1]),
                                  ValueError, r"token_routes must have length 4, got \(2,\)"),
    "synth-modulus-1": (lambda: SynthTaskSpec(modulus=1), ValueError, "modulus must be >= 2"),
    "synth-no-problems": (lambda: SynthTaskSpec(n_problems=0), ValueError, "n_problems must be >= 1"),
    "embedding-id-past-table": (lambda: embedding(np.zeros((3, 2)), [0, 3]), IndexError,
                                "token id out of range for table with 3 rows"),
    "embedding-id-negative": (lambda: embedding(np.zeros((3, 2)), [-1]), IndexError,
                              "token id out of range for table with 3 rows"),
    "cross-entropy-targets-shape": (lambda: softmax_cross_entropy(LOGITS, [0]), ShapeError,
                                    r"targets shape \(1,\) does not match logits \(2, 4\)"),
    "cross-entropy-mask-shape": (lambda: softmax_cross_entropy(LOGITS, [0, 1], mask=[1]), ShapeError,
                                 r"mask shape \(1,\) does not match targets \(2,\)"),
    "cross-entropy-all-masked": (lambda: softmax_cross_entropy(LOGITS, [0, 1], mask=[0, 0]), ValueError,
                                 "an example has no unmasked positions"),
    "cross-entropy-unknown-reduction": (lambda: softmax_cross_entropy(LOGITS, [0, 1], reduction="mean"),
                                        ValueError, "unknown reduction 'mean'"),
    "from-flat-size": (lambda: PV.from_flat(np.zeros(4)), ValueError, "flat vector has 4 entries, expected 3"),
    "central-differences-step-0": (lambda: central_differences(None, PV, None, [0], step=0.0), ValueError,
                                   "step must be positive"),
    "central-differences-step-nan": (lambda: central_differences(squares, PV, None, [0], step=NAN), ValueError,
                                     "step must be positive and finite, got nan"),
    "central-differences-coordinates-2d": (lambda: central_differences(None, PV, None, [[0, 1], [2, 0]]), ValueError,
                                           r"coordinates must be one-dimensional, got shape \(2, 2\)"),
    "central-differences-coordinate-negative": (lambda: central_differences(None, PV, None, [-1]), ValueError,
                                                "coordinate -1 is outside a parameter vector of size 3"),
    "central-differences-coordinate-past-end": (lambda: central_differences(None, PV, None, [0, 3]), ValueError,
                                                "coordinate 3 is outside a parameter vector of size 3"),
    "central-differences-coordinate-float": (lambda: central_differences(None, PV, None, [1.7]), ValueError,
                                             "coordinates must be integers, got float64 values such as 1.7"),
    "central-differences-coordinate-bool": (lambda: central_differences(None, PV, None, [True]), ValueError,
                                            "coordinates must be integers, got bool values such as True"),
    "hessian-block-no-names": (lambda: sampled_cross_hessian_max(None, PV, None, [(["w"], ["w"], 0), ([], ["w"], 1)]),
                               ValueError, r"Hessian block 1 \(\[\] x \['w'\]\) has an empty name list"),
    "hessian-step-0": (lambda: sampled_cross_hessian_max(None, PV, None, [(["w"], ["w"], 0)], step=0.0), ValueError,
                       "step must be positive"),
    "hessian-step-negative": (lambda: sampled_cross_hessian_max(None, PV, None, [(["w"], ["w"], 0)], step=-1e-3),
                              ValueError, "step must be positive"),
    "hessian-step-nan": (lambda: sampled_cross_hessian_max(squares, PV, None, [(["w"], ["w"], 0)], step=NAN),
                         ValueError, "step must be positive and finite, got nan"),
    "hessian-step-inf": (lambda: sampled_cross_hessian_max(squares, PV, None, [(["w"], ["w"], 0)], step=INF),
                         ValueError, "step must be positive and finite, got inf"),
    "segment-slice-unknown-name": (lambda: PV.segment_slice("v"), KeyError, "'v'"),
    "value-and-grad-non-scalar-loss": (lambda: value_and_grad(lambda leaves, _: leaves["w"], PV, None), ValueError,
                                       r"loss_fn must return a scalar, got shape \(3,\)"),
    "central-differences-loss-not-one-per-point": (
        lambda: central_differences(lambda leaves, _: leaves["w"], PV, None, [0]), ValueError,
        r"loss_fn must return one scalar per point, got shape \(2, 3\)"),
    "backward-non-scalar-root": (lambda: backward(Tensor(np.zeros(2))), ShapeError,
                                 r"backward needs a scalar root, got shape \(2,\)"),
    "matmul-vector": (lambda: matmul(np.zeros(3), np.zeros((3, 2))), ShapeError,
                      r"matmul needs matrices, got shapes \(3,\) and \(3, 2\)"),
    "rope-rotate-odd-width": (lambda: rope_rotate(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3))), ShapeError,
                              "rotary width 3 does not split into 1 heads of even width matching tables of width 3"),
    "quadratic-not-square": (lambda: QuadraticMode(np.zeros((2, 3)), np.zeros(2), 0.5), ValueError,
                             r"H must be square, got shape \(2, 3\)"),
    "quadratic-not-symmetric": (lambda: QuadraticMode(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2), 0.5),
                                ValueError, "H is not symmetric"),
    "quadratic-not-psd": (lambda: QuadraticMode(NOT_PSD, np.zeros(2), 0.5), ValueError,
                          "H has a negative eigenvalue beyond tolerance"),
    "quadratic-pi-above-1": (lambda: QuadraticMode(np.eye(2), np.zeros(2), 1.5), ValueError,
                             r"pi must lie in \[0, 1\]"),
    "gradient-pair-shapes": (lambda: GradientPair(np.zeros(2), np.zeros(3), 0.5, 0.5), ValueError,
                             "gradient shapes differ"),
    "gradient-pair-weights": (lambda: GradientPair(np.zeros(2), np.zeros(2), 0.5, 0.6), ValueError,
                              "pi0 \\+ pi1 must equal 1"),
    "equal-curvature-not-psd": (lambda: equal_curvature_gap(NOT_PSD, np.zeros(2), np.ones(2), 0.5), ValueError,
                                "H has a negative eigenvalue beyond tolerance"),
}


@pytest.mark.parametrize("row", list(INPUT_CHECKS))
def test_input_check_raises_named_error(row):
    call, error, message = INPUT_CHECKS[row]
    with pytest.raises(error, match=message):
        call()
