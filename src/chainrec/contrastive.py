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

LEAKY_SLOPE = 0.01   # of the encoders' LeakyReLU


def _note_zero_rows(unit) -> None:
    """Warn with the count of all-zero unit rows (zero-norm before
    normalizing, scored as similarity 0), so degenerate embeddings show."""
    n_zero = int(np.count_nonzero(~ad.val(unit).any(axis=1)))
    if n_zero:
        log.warning("contrastive batch contains %d zero-norm embedding rows "
                    "(scored as similarity 0)", n_zero)


def infonce_terms(a, b, tau: float):
    """Per-user InfoNCE terms over one batch, from its users' unit anchor
    rows ``a`` and unit other rows ``b``: term_u = -log softmax over the
    batch of cos(a_u, b_u') / tau = a_u . b_u' / tau, taken at u' = u. Zero
    rows score 0."""
    sims = ad.mul(ad.matmul(a, ad.transpose(b)), 1.0 / tau)
    return ad.add(ad.logsumexp_rows(sims), ad.mul(ad.take_diag(sims), -1.0))


def relation_losses(rows: dict, target: str, tau: float) -> dict:
    """Each auxiliary relation's batch-summed InfoNCE against the target,
    from every relation's rows at the batch users (``rows``, in schema
    order). Each relation's rows are normalized, and checked for zero
    norms, once."""
    unit = {r: ad.row_normalize(v) for r, v in rows.items()}
    for u in unit.values():
        _note_zero_rows(u)
    return {r: ad.asum(infonce_terms(unit[target], b, tau))
            for r, b in unit.items() if r != target}


def chain_knowledge(chain: RelationChain, rcl_losses: dict, e_c_rows,
                    e_final_rows, target: str):
    """Per-user chain feature: the chain's auxiliary contrastive losses
    (summed, replicated to d entries) joined with the chain and final
    embedding rows -> (batch, 3d)."""
    aux_losses = [rcl_losses[r] for r in chain.relations if r != target]
    block = ad.fill(ad.add_n(aux_losses), ad.val(e_c_rows).shape)
    return ad.concat([block, e_c_rows, e_final_rows], axis=1)


def relation_knowledge(rcl_loss, e_rel_rows, e_final_rows):
    """Per-user feature of one auxiliary relation: its contrastive loss
    times the concat of its relation-specific and final embedding rows
    -> (batch, 2d)."""
    return ad.mul(rcl_loss, ad.concat([e_rel_rows, e_final_rows], axis=1))


def encode_weight(features, weight, bias):
    """Scalar weight per feature row: LeakyReLU(F . w + b)."""
    return ad.leaky_relu(ad.add(ad.matmul(features, weight), bias), LEAKY_SLOPE)


def normalize_weights(raw: list):
    """Softmax over the raw scalar weights scaled by their count, so
    uniform raw weights map to all-ones and the weighted loss keeps its
    scale."""
    return ad.mul(ad.softmax(ad.stack_scalars(raw)), float(len(raw)))


def weighted_losses(losses: list, feats: list, weight, bias):
    """Sum of ``losses`` weighted by one encoder: each loss's feature rows
    are encoded and averaged, and the means normalized. No losses sum to a
    zero of the encoder's dtype, so the objective keeps its dtype."""
    if not losses:
        return np.zeros((), ad.val(weight).dtype)
    raw = [ad.amean(encode_weight(f, weight, bias)) for f in feats]
    return ad.asum(ad.mul(normalize_weights(raw), ad.stack_scalars(losses)))
