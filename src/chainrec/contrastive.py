"""Relation-based InfoNCE and the chain-aware weighting encoders.

The contrastive loss pulls one user's embeddings under two relations
together against the rest of the batch. Encoder features concatenate loss
scalars with embedding rows; a learned projection turns them into scalar
weights for the per-chain ranking and per-relation contrastive terms.
"""

import logging

import numpy as np

from . import autodiff as ad
from .chains import RelationChain

log = logging.getLogger(__name__)


def _note_zero_rows(rows) -> None:
    """Warn with the count of zero-norm rows, which are scored as
    similarity 0, so degenerate embeddings show in the log."""
    v = ad.val(rows)
    n_zero = int(np.count_nonzero(np.einsum("ij,ij->i", v, v) == 0.0))
    if n_zero:
        log.warning("contrastive batch contains %d zero-norm embedding rows "
                    "(scored as similarity 0)", n_zero)


def infonce_terms(anchor_table, other_table, users, tau: float):
    """Per-user InfoNCE terms over one batch.

    term_u = -log softmax over the batch of cos(anchor_u, other_u') / tau,
    taken at u' = u. Zero-norm rows contribute similarity 0.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    users = np.asarray(users)
    if users.size == 0:
        raise ValueError("empty contrastive batch")
    a = ad.gather(anchor_table, users)
    b = ad.gather(other_table, users)
    _note_zero_rows(a)
    _note_zero_rows(b)
    sims = ad.mul(ad.matmul(ad.row_normalize(a), ad.transpose(ad.row_normalize(b))),
                  1.0 / tau)
    return ad.add(ad.logsumexp_rows(sims), ad.mul(ad.take_diag(sims), -1.0))


def chain_knowledge(chain: RelationChain, rcl_losses: dict, e_c_rows,
                    e_final_rows, mu: float, target: str):
    """Per-user chain feature: the chain's auxiliary contrastive losses
    (summed, scaled by mu, replicated to d entries) joined with the chain
    and final embedding rows -> (batch, 3d)."""
    aux = [r for r in chain.relations if r != target]
    missing = [r for r in aux if r not in rcl_losses]
    if missing:
        raise KeyError(f"missing contrastive loss for auxiliary relation {missing[0]!r}")
    block = ad.fill(ad.add_n([rcl_losses[r] for r in aux], scale=mu),
                    ad.val(e_c_rows).shape)
    return ad.concat([block, e_c_rows, e_final_rows], axis=1)


def relation_knowledge(relation: str, rcl_loss, e_rel_rows, e_final_rows,
                       target: str):
    """Per-user relation feature: loss-scaled concat of the relation-specific
    and final embedding rows -> (batch, 2d)."""
    if relation == target:
        raise ValueError("relation knowledge is defined for auxiliary relations only")
    return ad.mul(rcl_loss, ad.concat([e_rel_rows, e_final_rows], axis=1))


def encode_weight(features, weight, bias, leaky_slope: float):
    """Scalar weight per feature row: LeakyReLU(F . w + b)."""
    k = ad.val(features).shape[-1]
    if ad.val(weight).shape != (k,):
        raise ValueError(f"projection length {ad.val(weight).shape} != ({k},)")
    return ad.leaky_relu(ad.add(ad.matmul(features, weight), bias), leaky_slope)


def normalize_weights(raw):
    """Softmax over the raw weights scaled by their count, so uniform raw
    weights map to all-ones and the weighted loss keeps its scale."""
    if isinstance(raw, (list, tuple)):
        if not raw:
            raise ValueError("no weights to normalize")
        raw = ad.stack_scalars(raw)
    n = ad.val(raw).shape[0]
    if n == 0:
        raise ValueError("no weights to normalize")
    return ad.mul(ad.softmax(raw), float(n))
