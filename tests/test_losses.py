import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from cyldet import (
    Box3D,
    BrnOutput,
    IndexOutOfRange,
    LossConfig,
    OutOfBounds,
    ProposalRegion,
    RotationBins,
    RpnOutput,
    SizeClusters,
    brn_loss,
    brn_loss_gradients,
    cross_entropy,
    encode_location,
    encode_rotation,
    encode_size,
    huber,
    rpn_loss,
    rpn_loss_gradients,
)
from cyldet.losses import TERM_KEYS, binary_cross_entropy_logit, huber_grad

BINS = RotationBins(8)
CLUSTERS = SizeClusters(np.array([[1.4, 1.5, 3.4], [1.8, 1.9, 4.6]]))


@pytest.fixture
def region():
    return ProposalRegion(center=(4.0, 1.0, 20.0), bounds=(2.0, 2.0, 2.0))


def total_from_parts(breakdown, cfg=LossConfig()):
    weights = dict.fromkeys(TERM_KEYS, 1.0)
    weights["obj"] = cfg.lambda_obj
    return sum(
        weights[k] * breakdown.active_masks[k] * breakdown.terms[k]
        for k in TERM_KEYS
    )


def random_brn_inputs(rng, region):
    target = Box3D(
        tuple(np.array(region.center) + rng.uniform(-1.5, 1.5, 3)),
        tuple(rng.uniform(1.2, 4.8, 3)),
        rng.uniform(-math.pi, math.pi),
    )
    pred = BrnOutput(
        t_loc=tuple(rng.uniform(-2, 2, 3)),
        rot_logits=rng.uniform(-2, 2, BINS.n_bins),
        rot_residuals=rng.uniform(-0.3, 0.3, BINS.n_bins),
        size_logits=rng.uniform(-2, 2, CLUSTERS.n_clusters),
        size_residuals=rng.uniform(-0.4, 0.4, (CLUSTERS.n_clusters, 3)),
    )
    return pred, target


class TestHuber:
    def test_zero(self):
        assert huber(0.0, 1.0) == 0.0

    def test_boundary_continuity(self):
        delta = 0.7
        assert huber(delta, delta) == pytest.approx(delta**2 / 2)
        assert huber(delta + 1e-12, delta) == pytest.approx(delta**2 / 2, abs=1e-9)

    def test_linear_tail(self):
        assert huber(2.0, 1.0) == pytest.approx(1.5)
        assert huber(-2.0, 1.0) == pytest.approx(1.5)

    def test_gradient(self):
        assert huber_grad(0.0, 1.0) == 0.0
        assert huber_grad(0.5, 1.0) == 0.5
        assert huber_grad(3.0, 1.0) == 1.0
        assert huber_grad(-3.0, 1.0) == -1.0


class TestCrossEntropy:
    def test_two_way_even(self):
        assert cross_entropy([0.0, 0.0], 0) == pytest.approx(math.log(2))

    def test_saturated(self):
        assert cross_entropy([40.0, 0.0], 0) < 1e-17

    def test_uniform_k(self):
        for k in (2, 5, 11):
            assert cross_entropy(np.zeros(k), k - 1) == pytest.approx(math.log(k))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            cross_entropy([1.0, 2.0], 2)
        with pytest.raises(IndexOutOfRange):
            cross_entropy([1.0, 2.0], -1)

    def test_bce_matches_two_way(self):
        for t in (-3.0, 0.0, 1.7):
            assert binary_cross_entropy_logit(t, True) == pytest.approx(
                cross_entropy([t, 0.0], 0), abs=1e-12
            )


class TestRpnLoss:
    def test_background_is_pure_objectness(self, region):
        cfg = LossConfig(lambda_obj=2.0)
        pred = RpnOutput(t_loc=(0.4, -0.2, 0.1), t_obj=-1.0)
        result = rpn_loss(pred, False, None, region, cfg)
        assert result.active_masks["loc"] == 0.0
        assert "loc" in result.terms
        assert result.total == pytest.approx(
            2.0 * binary_cross_entropy_logit(-1.0, False), abs=1e-12
        )

    def test_masked_location_still_reported(self, region):
        target = np.array(region.center) + [0.5, 0.0, -0.3]
        pred = RpnOutput(t_loc=(0.4, -0.2, 0.1), t_obj=-1.0)
        result = rpn_loss(pred, False, target, region)
        assert result.terms["loc"] > 0.0
        assert result.active_masks["loc"] == 0.0
        assert result.total == pytest.approx(
            binary_cross_entropy_logit(-1.0, False), abs=1e-12
        )

    def test_perfect_prediction(self, region):
        target = np.array(region.center) + [0.5, -0.7, 0.2]
        pred = RpnOutput(t_loc=tuple(encode_location(target, region)), t_obj=40.0)
        result = rpn_loss(pred, True, target, region)
        assert result.total < 1e-6

    def test_weight_linearity(self, region):
        target = np.array(region.center) + [0.5, -0.7, 0.2]
        pred = RpnOutput(t_loc=(0.3, 0.1, -0.2), t_obj=0.5)
        base = rpn_loss(pred, True, target, region, LossConfig(lambda_obj=1.0))
        doubled = rpn_loss(pred, True, target, region, LossConfig(lambda_obj=2.0))
        assert doubled.terms["obj"] == base.terms["obj"]
        assert doubled.terms["loc"] == base.terms["loc"]
        assert doubled.total == pytest.approx(
            base.total + base.terms["obj"], abs=1e-12
        )

    def test_out_of_bounds_target_rejected(self, region):
        target = np.array(region.center) + [2.5, 0.0, 0.0]
        pred = RpnOutput(t_loc=(0, 0, 0), t_obj=0.0)
        with pytest.raises(OutOfBounds):
            rpn_loss(pred, True, target, region)

    def test_total_equals_masked_weighted_sum(self, region):
        rng = np.random.default_rng(0)
        cfg = LossConfig(lambda_obj=1.7)
        for _ in range(50):
            target = np.array(region.center) + rng.uniform(-1.9, 1.9, 3)
            pred = RpnOutput(t_loc=tuple(rng.uniform(-3, 3, 3)),
                             t_obj=rng.uniform(-3, 3))
            is_obj = bool(rng.integers(0, 2))
            result = rpn_loss(pred, is_obj, target, region, cfg)
            assert result.total == pytest.approx(
                total_from_parts(result, cfg), abs=1e-9
            )
            assert all(v >= 0.0 for v in result.terms.values())


class TestBrnLoss:
    def test_gate_zeroes_everything(self, region):
        rng = np.random.default_rng(1)
        pred, target = random_brn_inputs(rng, region)
        result = brn_loss(pred, target, region, CLUSTERS, BINS,
                          proposal_box_iou=0.9)
        assert result.total == 0.0
        assert all(m == 0.0 for m in result.active_masks.values())

    def test_gate_boundary(self, region):
        rng = np.random.default_rng(2)
        pred, target = random_brn_inputs(rng, region)
        at_gate = brn_loss(pred, target, region, CLUSTERS, BINS, 0.8)
        below_gate = brn_loss(pred, target, region, CLUSTERS, BINS, 0.79)
        assert at_gate.total == 0.0
        assert below_gate.total > 0.0

    def test_rotation_class_mismatch_masks_regression(self, region):
        target = Box3D(region.center, (1.5, 1.4, 3.5), 0.1)  # bin 0 of 8
        pred = BrnOutput(
            t_loc=(0, 0, 0),
            rot_logits=np.eye(BINS.n_bins)[3] * 5.0,  # predicts bin 3
            rot_residuals=np.full(BINS.n_bins, 0.2),
            size_logits=np.zeros(CLUSTERS.n_clusters),
            size_residuals=np.zeros((CLUSTERS.n_clusters, 3)),
        )
        result = brn_loss(pred, target, region, CLUSTERS, BINS, 0.0)
        assert result.active_masks["rot_reg"] == 0.0
        assert result.terms["rot_cls"] > 0.0
        assert result.active_masks["rot_cls"] == 1.0

    def test_exact_encoding_gives_zero_loss(self, region):
        target = Box3D(
            tuple(np.array(region.center) + [0.4, -0.3, 0.8]),
            (1.7, 1.5, 4.0), 1.2,
        )
        rot_logits, rot_residuals = encode_rotation(target.yaw, BINS)
        w, h, length = target.dims
        size_logits, size_residuals = encode_size((h, w, length), CLUSTERS)
        pred = BrnOutput(
            t_loc=tuple(encode_location(target.center, region)),
            rot_logits=rot_logits * 10,
            rot_residuals=rot_residuals,
            size_logits=size_logits * 10,
            size_residuals=size_residuals,
        )
        result = brn_loss(pred, target, region, CLUSTERS, BINS, 0.0)
        assert result.total < 1e-6

    def test_total_equals_masked_sum(self, region):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pred, target = random_brn_inputs(rng, region)
            iou = rng.uniform(0, 1)
            result = brn_loss(pred, target, region, CLUSTERS, BINS, iou)
            assert result.total == pytest.approx(
                total_from_parts(result), abs=1e-9
            )

    def test_masked_inputs_are_inert(self, region):
        # with the rotation class wrong, any rotation residual change is
        # invisible in the total
        target = Box3D(region.center, (1.5, 1.4, 3.5), 0.1)
        base_kwargs = dict(
            t_loc=(0.1, 0.2, -0.1),
            rot_logits=np.eye(BINS.n_bins)[5] * 5.0,
            size_logits=np.zeros(CLUSTERS.n_clusters),
            size_residuals=np.zeros((CLUSTERS.n_clusters, 3)),
        )
        a = brn_loss(
            BrnOutput(rot_residuals=np.zeros(BINS.n_bins), **base_kwargs),
            target, region, CLUSTERS, BINS, 0.0,
        )
        b = brn_loss(
            BrnOutput(rot_residuals=np.full(BINS.n_bins, 9.9), **base_kwargs),
            target, region, CLUSTERS, BINS, 0.0,
        )
        assert a.total == b.total


class TestGradients:
    def test_rpn_matches_finite_differences(self, region):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(30):
            target = np.array(region.center) + rng.uniform(-1.5, 1.5, 3)
            t_loc = rng.uniform(-2, 2, 3)
            t_obj = rng.uniform(-2, 2)
            is_obj = bool(rng.integers(0, 2))
            grads = rpn_loss_gradients(
                RpnOutput(tuple(t_loc), t_obj), is_obj, target, region
            )
            for axis in range(3):
                def f(v, axis=axis):
                    t = t_loc.copy()
                    t[axis] = v
                    return rpn_loss(RpnOutput(tuple(t), t_obj), is_obj,
                                    target, region).total
                fd = (f(t_loc[axis] + h) - f(t_loc[axis] - h)) / (2 * h)
                assert grads["t_loc"][axis] == pytest.approx(fd, abs=1e-7,
                                                             rel=1e-4)
            fd_obj = (
                rpn_loss(RpnOutput(tuple(t_loc), t_obj + h), is_obj, target,
                         region).total
                - rpn_loss(RpnOutput(tuple(t_loc), t_obj - h), is_obj, target,
                           region).total
            ) / (2 * h)
            assert grads["t_obj"] == pytest.approx(fd_obj, rel=1e-4, abs=1e-7)

    def test_brn_matches_finite_differences(self, region):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(30):
            pred, target = random_brn_inputs(rng, region)
            iou = rng.uniform(0, 1)
            grads = brn_loss_gradients(pred, target, region, CLUSTERS, BINS, iou)

            def rebuild(t_loc=None, rot_res=None, size_res=None):
                return BrnOutput(
                    t_loc=tuple(t_loc if t_loc is not None else pred.t_loc),
                    rot_logits=pred.rot_logits,
                    rot_residuals=(rot_res if rot_res is not None
                                   else pred.rot_residuals),
                    size_logits=pred.size_logits,
                    size_residuals=(size_res if size_res is not None
                                    else pred.size_residuals),
                )

            def total(out):
                return brn_loss(out, target, region, CLUSTERS, BINS, iou).total

            for axis in range(3):
                t = np.array(pred.t_loc)
                t_hi, t_lo = t.copy(), t.copy()
                t_hi[axis] += h
                t_lo[axis] -= h
                fd = (total(rebuild(t_loc=t_hi)) - total(rebuild(t_loc=t_lo))) / (2 * h)
                assert grads["t_loc"][axis] == pytest.approx(fd, rel=1e-4,
                                                             abs=1e-7)

            k = grads["rot_class"]
            res_hi = pred.rot_residuals.copy()
            res_lo = pred.rot_residuals.copy()
            res_hi[k] += h
            res_lo[k] -= h
            fd = (total(rebuild(rot_res=res_hi))
                  - total(rebuild(rot_res=res_lo))) / (2 * h)
            assert grads["rot_residual"] == pytest.approx(fd, rel=1e-4, abs=1e-7)

            c = grads["size_class"]
            for j in range(3):
                res_hi = pred.size_residuals.copy()
                res_lo = pred.size_residuals.copy()
                res_hi[c, j] += h
                res_lo[c, j] -= h
                fd = (total(rebuild(size_res=res_hi))
                      - total(rebuild(size_res=res_lo))) / (2 * h)
                assert grads["size_residuals"][j] == pytest.approx(
                    fd, rel=1e-4, abs=1e-7
                )

    def test_masked_gradients_are_exactly_zero(self, region):
        rng = np.random.default_rng(6)
        pred, target = random_brn_inputs(rng, region)
        grads = brn_loss_gradients(pred, target, region, CLUSTERS, BINS, 0.95)
        np.testing.assert_array_equal(grads["t_loc"], 0.0)
        assert grads["rot_residual"] == 0.0
        np.testing.assert_array_equal(grads["size_residuals"], 0.0)

        not_object = rpn_loss_gradients(
            RpnOutput((0.3, 0.4, 0.5), 0.2), False, None, region
        )
        np.testing.assert_array_equal(not_object["t_loc"], 0.0)



def _outside(region):
    return tuple(np.array(region.center) + (0.0, 0.0, 2.5))


@pytest.mark.parametrize("case", [
    "object-without-target", "target-outside-background",
    "iou-nan", "iou-above-one", "iou-negative", "target-outside-gated",
    "fewer-logits-than-bins",
])
def test_a_loss_and_its_gradients_reject_the_same_inputs(region, case):
    # the gradients used to return finite, meaningless values for each:
    # a NaN target location, an IoU outside [0, 1], a target outside the
    # region whose location term the mask shuts, and a target bin outside
    # the head's rotation logits
    rpn_pred = RpnOutput((0.3, 0.4, 0.5), 0.2)
    pred, target = random_brn_inputs(np.random.default_rng(7), region)
    outside = Box3D(_outside(region), target.dims, target.yaw)
    turned = Box3D(target.center, target.dims, 2.0)  # rotation bin 5 of 8
    short = dataclasses.replace(pred, rot_logits=pred.rot_logits[:5],
                                rot_residuals=pred.rot_residuals[:5])
    loss, gradients, args = {
        "object-without-target": (rpn_loss, rpn_loss_gradients,
                                  (rpn_pred, True, None, region)),
        "target-outside-background": (rpn_loss, rpn_loss_gradients,
                                      (rpn_pred, False, _outside(region),
                                       region)),
        "iou-nan": (brn_loss, brn_loss_gradients,
                    (pred, target, region, CLUSTERS, BINS, math.nan)),
        "iou-above-one": (brn_loss, brn_loss_gradients,
                          (pred, target, region, CLUSTERS, BINS, 1.5)),
        "iou-negative": (brn_loss, brn_loss_gradients,
                         (pred, target, region, CLUSTERS, BINS, -1.0)),
        "target-outside-gated": (brn_loss, brn_loss_gradients,
                                 (pred, outside, region, CLUSTERS, BINS,
                                  0.95)),
        "fewer-logits-than-bins": (brn_loss, brn_loss_gradients,
                                   (short, turned, region, CLUSTERS, BINS,
                                    0.5)),
    }[case]
    # a data error is a ValueError; a target index outside the logits is a
    # caller's wiring error, an IndexOutOfRange
    with pytest.raises((ValueError, IndexOutOfRange)) as from_loss:
        loss(*args)
    with pytest.raises((ValueError, IndexOutOfRange)) as from_gradients:
        gradients(*args)
    assert type(from_gradients.value) is type(from_loss.value)
    assert str(from_gradients.value) == str(from_loss.value)


def test_cross_entropy_gives_scipy_logsumexp_bits():
    # logsumexp is computed in scipy.special's own form, ties at the top
    # and non-finite logits included; any NaN matches any NaN
    rng = np.random.default_rng(8)
    cases = [np.array(v) for v in ([40.0, 0.0], [1e308, 1e308], [-np.inf, 0.0],
                                   [np.inf, 0.0], [np.nan, 1.0])]
    for _ in range(2000):
        logits = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3),
                            int(rng.integers(1, 13)))
        if rng.random() < 0.2:
            logits[rng.integers(len(logits))] = logits.max()
        cases.append(logits)
    with np.errstate(invalid="ignore"):
        for logits in cases:
            got = cross_entropy(logits, len(logits) - 1)
            want = special.logsumexp(logits) - logits[-1]
            assert (np.float64(got).tobytes() == np.float64(want).tobytes()
                    or math.isnan(got) and math.isnan(want)), logits
