"""Multi-task detection losses as pure functions, with analytic gradients.

Both heads share the bounded location parameterization: the loss compares
sigmoid-decoded normalized offsets against the target offset expressed in
the same units, so every axis contributes on the same scale.  Indicator
masks follow the training rule: the proposal-head location term is active
only for object proposals, and the whole box-regression loss is gated off
once the proposal already overlaps the ground truth well.
"""

from dataclasses import dataclass

import numpy as np

from .codec import OutOfBounds, encode_rotation, encode_size, expit

TERM_KEYS = ("obj", "loc", "rot_cls", "rot_reg", "size_cls", "size_reg")


class IndexOutOfRange(IndexError):
    pass


@dataclass(frozen=True)
class LossConfig:
    lambda_obj: float = 1.0
    huber_delta: float = 1.0
    brn_iou_gate: float = 0.8

    def __post_init__(self):
        if self.lambda_obj <= 0.0:
            raise ValueError("lambda_obj must be positive")
        if self.huber_delta <= 0.0:
            raise ValueError("huber_delta must be positive")
        if not 0.0 < self.brn_iou_gate <= 1.0:
            raise ValueError("brn_iou_gate must be in (0, 1]")


@dataclass(frozen=True)
class LossBreakdown:
    """Total plus per-term values and their 0/1 activity masks.

    The total equals sum(weight * mask * term) with weight lambda_obj on
    the objectness term and 1 elsewhere; masked terms are still reported.
    """

    total: float
    terms: dict
    active_masks: dict


def huber(residual, delta):
    """Quadratic inside |r| <= delta, linear outside."""
    r = abs(float(residual))
    if r <= delta:
        return 0.5 * r * r
    return delta * (r - 0.5 * delta)


def huber_grad(residual, delta):
    r = float(residual)
    if abs(r) <= delta:
        return r
    return delta * (1.0 if r > 0 else -1.0)


def _check_target_index(logits, target_index):
    if not 0 <= target_index < len(logits):
        raise IndexOutOfRange(
            f"target {target_index} outside logits of length {len(logits)}"
        )


def cross_entropy(logits, target_index):
    """Negative log softmax probability of the target class."""
    logits = np.asarray(logits, dtype=float)
    target_index = int(target_index)
    _check_target_index(logits, target_index)
    # logsumexp in scipy.special.logsumexp's form, whose bits it gives: the
    # m logits at the max are shifted out and the rest summed under log1p
    top = logits == logits.max()
    with np.errstate(all="ignore"):
        m = np.sum(top, dtype=float)
        rest = np.sum(np.exp(np.where(top, -np.inf, logits) - logits.max()))
        lse = np.log1p(rest / m) + np.log(m) + logits.max()
    return float(lse - logits[target_index])


def binary_cross_entropy_logit(t, positive):
    """BCE of sigmoid(t) against a boolean target, computed stably."""
    t = float(t)
    if positive:
        return float(np.logaddexp(0.0, -t))
    return float(np.logaddexp(0.0, t))


def _normalized_offsets(pred_t_loc, target_location, region):
    c = np.asarray(region.center)
    m = np.asarray(region.bounds)
    n_tgt = (np.asarray(target_location, dtype=float) - c) / m
    if np.any(np.abs(n_tgt) >= 1.0):
        raise OutOfBounds(
            f"target offset {tuple(n_tgt * m)} outside region bounds {tuple(m)}"
        )
    sig = np.array([expit(float(t)) for t in pred_t_loc])
    n_pred = 2.0 * sig - 1.0
    return n_pred, n_tgt, sig


def _location_loss(pred_t_loc, target_location, region, delta):
    n_pred, n_tgt, _ = _normalized_offsets(pred_t_loc, target_location, region)
    return float(sum(huber(r, delta) for r in n_pred - n_tgt))


def _location_grad(pred_t_loc, target_location, region, delta):
    n_pred, n_tgt, sig = _normalized_offsets(pred_t_loc, target_location, region)
    dn_dt = 2.0 * sig * (1.0 - sig)
    return np.array(
        [huber_grad(r, delta) for r in n_pred - n_tgt]
    ) * dn_dt


def _breakdown(terms, masks, lambda_obj):
    weights = {key: 1.0 for key in TERM_KEYS}
    weights["obj"] = lambda_obj
    total = sum(weights[k] * masks[k] * terms[k] for k in TERM_KEYS)
    return LossBreakdown(total=float(total), terms=terms, active_masks=masks)


def _check_rpn_target(target_is_object, target_location):
    if target_is_object and target_location is None:
        raise ValueError("object proposals need a target location")


def rpn_loss(pred, target_is_object, target_location, region, cfg=LossConfig()):
    """Proposal-head loss: weighted objectness BCE plus, for object
    proposals only, the bounded-offset location regression."""
    _check_rpn_target(target_is_object, target_location)
    terms = dict.fromkeys(TERM_KEYS, 0.0)
    masks = dict.fromkeys(TERM_KEYS, 0.0)
    terms["obj"] = binary_cross_entropy_logit(pred.t_obj, target_is_object)
    masks["obj"] = 1.0
    if target_location is not None:
        terms["loc"] = _location_loss(
            pred.t_loc, target_location, region, cfg.huber_delta
        )
    masks["loc"] = 1.0 if target_is_object else 0.0
    return _breakdown(terms, masks, cfg.lambda_obj)


def rpn_loss_gradients(pred, target_is_object, target_location, region,
                       cfg=LossConfig()):
    """Partials of the proposal-head total w.r.t. (t_x, t_y, t_z, t_o).
    A background proposal's target location, when given, must lie in the
    region, as for rpn_loss, though its gradient is masked."""
    _check_rpn_target(target_is_object, target_location)
    sig = expit(pred.t_obj)
    d_obj = cfg.lambda_obj * (sig - (1.0 if target_is_object else 0.0))
    d_loc = np.zeros(3)
    if target_location is not None:
        grad = _location_grad(pred.t_loc, target_location, region,
                              cfg.huber_delta)
        if target_is_object:
            d_loc = grad
    return {"t_loc": d_loc, "t_obj": float(d_obj)}


def _brn_parts(pred, target_box, clusters, bins):
    tgt_rot_logits, tgt_rot_res = encode_rotation(target_box.yaw, bins)
    rot_class = int(np.argmax(tgt_rot_logits))
    w, h, length = target_box.dims
    tgt_size_logits, tgt_size_res = encode_size((h, w, length), clusters)
    size_class = int(np.argmax(tgt_size_logits))
    _check_target_index(pred.rot_logits, rot_class)
    _check_target_index(pred.size_logits, size_class)
    rot_agree = int(np.argmax(pred.rot_logits)) == rot_class
    size_agree = int(np.argmax(pred.size_logits)) == size_class
    return (rot_class, tgt_rot_res[rot_class], rot_agree,
            size_class, tgt_size_res[size_class], size_agree)


def _brn_gate(proposal_box_iou, cfg):
    """1.0 while the proposal's IoU is below the gate, else 0.0."""
    if not 0.0 <= proposal_box_iou <= 1.0:
        raise ValueError("proposal_box_iou must be in [0, 1]")
    return 1.0 if proposal_box_iou < cfg.brn_iou_gate else 0.0


def brn_loss(pred, target_box, region, clusters, bins, proposal_box_iou,
             cfg=LossConfig()):
    """Box-regression loss gated by the proposal's 3D IoU with the truth.

    The whole loss is zero when proposal_box_iou >= cfg.brn_iou_gate.
    Rotation and size regression terms are additionally active only when
    the predicted class agrees with the target class.
    """
    gate = _brn_gate(proposal_box_iou, cfg)
    delta = cfg.huber_delta
    (rot_class, rot_target_res, rot_agree,
     size_class, size_target_res, size_agree) = _brn_parts(
        pred, target_box, clusters, bins
    )

    terms = dict.fromkeys(TERM_KEYS, 0.0)
    masks = dict.fromkeys(TERM_KEYS, 0.0)
    terms["loc"] = _location_loss(pred.t_loc, target_box.center, region, delta)
    terms["rot_cls"] = cross_entropy(pred.rot_logits, rot_class)
    terms["rot_reg"] = huber(pred.rot_residuals[rot_class] - rot_target_res, delta)
    terms["size_cls"] = cross_entropy(pred.size_logits, size_class)
    terms["size_reg"] = float(
        sum(
            huber(r, delta)
            for r in pred.size_residuals[size_class] - size_target_res
        )
    )
    masks["loc"] = gate
    masks["rot_cls"] = gate
    masks["rot_reg"] = gate * (1.0 if rot_agree else 0.0)
    masks["size_cls"] = gate
    masks["size_reg"] = gate * (1.0 if size_agree else 0.0)
    return _breakdown(terms, masks, cfg.lambda_obj)


def brn_loss_gradients(pred, target_box, region, clusters, bins,
                       proposal_box_iou, cfg=LossConfig()):
    """Partials of the box-regression total w.r.t. the regression inputs:
    t_loc, the rotation residual at the target bin, and the size residual
    triple at the target cluster.  Masked terms contribute exactly zero;
    the target center must lie in the region even when the gate is shut,
    as for brn_loss."""
    gate = _brn_gate(proposal_box_iou, cfg)
    delta = cfg.huber_delta
    (rot_class, rot_target_res, rot_agree,
     size_class, size_target_res, size_agree) = _brn_parts(
        pred, target_box, clusters, bins
    )
    d_loc = _location_grad(pred.t_loc, target_box.center, region, delta)
    if not gate:
        d_loc = np.zeros(3)
    d_rot = 0.0
    if gate and rot_agree:
        d_rot = huber_grad(pred.rot_residuals[rot_class] - rot_target_res, delta)
    d_size = np.zeros(3)
    if gate and size_agree:
        d_size = np.array(
            [
                huber_grad(r, delta)
                for r in pred.size_residuals[size_class] - size_target_res
            ]
        )
    return {
        "t_loc": d_loc,
        "rot_residual": float(d_rot),
        "rot_class": rot_class,
        "size_residuals": d_size,
        "size_class": size_class,
    }
