"""Training objectives for open-set segmentation.

Two pieces combine into the per-batch objective:

* cross-entropy over every labeled point, and
* a spread term over the points labeled as the merged unknown cluster: the
  mean KL divergence from each such point's predicted distribution to a
  running estimate of the cluster's average distribution.

Under the default ``maximize_cmi`` sign the spread term is subtracted, so
minimizing the objective pushes unknown-cluster points away from their own
average (individually confident, collectively diverse). ``literal_eq8``
flips the sign and adds the term instead.

The cluster average lives in :class:`EmaAggregate` and is advanced by
:func:`ema_update` between optimizer steps; it enters the loss graph as a
constant, so no gradient ever flows into the tracker.  All values are nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .infotheory import EPS, as_prob_vector

__all__ = [
    "SIGN_MODES",
    "EmaAggregate",
    "TrainConfig",
    "Objective",
    "l3cm",
    "total_objective",
    "ema_update",
]

# sign applied to the weighted spread term inside the minimized objective
SIGN_MODES = {"maximize_cmi": -1.0, "literal_eq8": 1.0}


@dataclass(frozen=True)
class EmaAggregate:
    """Running average of unknown-cluster distributions.

    ``q_hat`` is the tracked distribution, ``beta`` the retained fraction per
    update, ``seen_count`` the number of point distributions absorbed so far.
    Instances are immutable; :func:`ema_update` returns a new one.
    """

    q_hat: np.ndarray
    beta: float
    seen_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q_hat", as_prob_vector(self.q_hat))
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.seen_count < 0:
            raise ValueError("seen_count must be nonnegative")

    @classmethod
    def uniform(cls, n_classes: int, beta: float) -> "EmaAggregate":
        """Start at the uniform distribution: nothing observed, assume nothing."""
        if n_classes < 2:
            raise ValueError("need at least two classes")
        return cls(np.full(n_classes, 1.0 / n_classes), beta, 0)


@dataclass(kw_only=True)
class TrainConfig:
    """Knobs for one training run; validated on construction.

    ``unknown_label`` is the class index of the merged unknown cluster and
    has no safe default, so it must be given explicitly.
    """

    lambda_: float = 0.5
    beta: float = 0.995
    sign_mode: str = "maximize_cmi"
    lr: float = 0.01
    epochs: int = 30
    batch: int = 8
    seed: int = 0
    unknown_label: int

    def __post_init__(self):
        if not (np.isfinite(self.lambda_) and self.lambda_ >= 0.0):
            raise ValueError(f"lambda_ must be a finite nonnegative real, got {self.lambda_}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.sign_mode not in SIGN_MODES:
            raise ValueError(f"sign_mode must be one of {sorted(SIGN_MODES)}, got {self.sign_mode!r}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be a finite positive real, got {self.lr}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.unknown_label < 0:
            raise ValueError("unknown_label must be a class index")

    @property
    def sign(self) -> float:
        return SIGN_MODES[self.sign_mode]


def l3cm(probs: ad.TensorNode, agg: EmaAggregate) -> ad.TensorNode:
    """Mean KL divergence from each row of ``probs`` to ``agg.q_hat``.

    ``probs`` is a rank-2 node whose rows are the predicted distributions of
    unknown-cluster points.  The aggregate enters as a constant: gradients
    steer the per-point distributions, never the tracker.  A batch with zero
    rows raises ValueError: the term has nothing to act on, and
    :func:`total_objective` leaves it out of such batches.
    """
    if len(probs.shape) != 2:
        raise ad.ShapeError("l3cm: probs must be rank 2")
    m, c = probs.shape
    if m == 0:
        raise ValueError("l3cm: no unknown-cluster points in this batch")
    if c != agg.q_hat.size:
        raise ValueError(f"l3cm: probs have {c} classes but the aggregate has {agg.q_hat.size}")
    tape = probs.tape
    # mean over rows of: sum p log p - sum p log q_hat
    self_term = ad.sum_all(ad.multiply(probs, ad.log(probs, EPS)))
    log_q = tape.constant(np.log(np.maximum(agg.q_hat, EPS)).reshape(c, 1))
    cross_term = ad.sum_all(ad.matmul(probs, log_q))
    return ad.multiply(ad.add(self_term, ad.multiply(cross_term, -1.0)), 1.0 / m)


@dataclass(frozen=True)
class Objective:
    """One batch's objective graph plus the pieces a trainer wants to log.

    ``total`` is the node to differentiate.  When the spread term is off
    (zero weight, or no unknown-labeled points) ``total`` *is* the ``ce``
    node and ``l3cm_term`` is None.  ``probs`` holds the full softmax node
    and ``unknown_rows`` the row indices labeled as the unknown cluster, so
    the caller can feed :func:`ema_update` without rebuilding anything.
    """

    total: ad.TensorNode
    ce: ad.TensorNode
    l3cm_term: ad.TensorNode | None
    probs: ad.TensorNode
    unknown_rows: np.ndarray


def total_objective(
    logits: ad.TensorNode, labels, agg: EmaAggregate, cfg: TrainConfig
) -> Objective:
    """Cross-entropy plus the signed, weighted unknown-cluster spread term.

    The term contributes only when the batch contains at least one point
    labeled ``cfg.unknown_label`` and ``cfg.lambda_`` is nonzero; otherwise
    the returned ``total`` is exactly the cross-entropy node.
    """
    if len(logits.shape) != 2:
        raise ad.ShapeError("total_objective: logits must be rank 2")
    n, c = logits.shape
    if agg.q_hat.size != c:
        raise ValueError(f"total_objective: {c} classes but the aggregate has {agg.q_hat.size}")
    labels = np.asarray(labels, dtype=int)
    probs = ad.softmax(logits, axis=1)
    # mean negative log-likelihood of the true class
    ce = ad.multiply(ad.sum_all(ad.pick(ad.log(probs, EPS), labels)), -1.0 / n)
    unknown_rows = np.flatnonzero(labels == cfg.unknown_label)
    term = None
    total = ce
    if unknown_rows.size and cfg.lambda_ != 0.0:
        term = l3cm(ad.take_rows(probs, unknown_rows), agg)
        total = ad.add(ce, ad.multiply(term, cfg.sign * cfg.lambda_))
    return Objective(total, ce, term, probs, unknown_rows)


def ema_update(agg: EmaAggregate, batch_unknown_probs) -> EmaAggregate:
    """Absorb a batch of unknown-point distributions into the tracker.

    Returns a new aggregate holding ``beta`` of the old estimate plus
    ``1 - beta`` of the batch mean, with ``seen_count`` grown by the number
    of rows.  Runs outside any tape, after the optimizer step, so the
    tracker never feeds back into the batch it was updated from.
    """
    probs = np.atleast_2d(np.asarray(batch_unknown_probs, dtype=float))
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("ema_update: need a nonempty batch of distributions")
    if probs.shape[1] != agg.q_hat.size:
        raise ValueError(
            f"ema_update: batch rows have {probs.shape[1]} entries "
            f"but the aggregate has {agg.q_hat.size}"
        )
    mean = probs.mean(axis=0)
    new_q = agg.beta * agg.q_hat + (1.0 - agg.beta) * mean
    return EmaAggregate(new_q, agg.beta, agg.seen_count + probs.shape[0])
