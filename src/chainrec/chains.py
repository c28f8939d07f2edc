"""Relation chains: staged embedding transforms along the relation order
of each multi-relation behavior pattern that contains the target.

A chain starts from the relation-specific embedding of its first relation
and applies one learnable d x d transform per step, separately for user
rows and item rows. Step tables across all chains sum into the chain
embedding table.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import RelationSchema
from .patterns import pattern_relations


@dataclass(frozen=True)
class RelationChain:
    """Ordered relation sequence of one behavior pattern (its index)."""

    relations: tuple
    pattern: int

    @property
    def num_steps(self) -> int:
        """Transforms per side: one per adjacent relation pair."""
        return len(self.relations) - 1

    def label(self) -> str:
        return "->".join(self.relations)


def enumerate_chains(schema: RelationSchema):
    """One chain per pattern that contains the target and has two or more
    relations, sequenced by the schema's canonical order (which may place
    the target anywhere)."""
    chains = []
    for p in range(schema.num_patterns):
        present = pattern_relations(schema, p)
        seq = tuple(r for r in schema.canonical_order if r in present)
        if schema.target in seq and len(seq) >= 2:
            chains.append(RelationChain(relations=seq, pattern=p))
    return chains


def chain_forward(chain: RelationChain, first_relation_table,
                  w_user, w_item, num_users: int):
    """Per-step tables of one chain.

    Step 1 is the relation-specific table of the chain's first relation;
    step j+1 applies the j-th user/item transforms rowwise. Returns the
    list of all ``len(chain.relations)`` step tables.
    """
    if len(w_user) != chain.num_steps or len(w_item) != chain.num_steps:
        raise ValueError(f"chain {chain.label()} needs {chain.num_steps} "
                         f"transforms per side, got {len(w_user)}/{len(w_item)}")
    d = ad.val(first_relation_table).shape[1]
    for w in list(w_user) + list(w_item):
        if ad.val(w).shape != (d, d):
            raise ValueError(f"transform shape {ad.val(w).shape} != ({d}, {d})")
    n = ad.val(first_relation_table).shape[0]
    user_rows = np.arange(num_users)
    item_rows = np.arange(num_users, n)
    steps = [first_relation_table]
    cur = first_relation_table
    for wu, wv in zip(w_user, w_item):
        # rowwise e_next = W e is E @ W^T on each block
        nxt_u = ad.matmul(ad.gather(cur, user_rows), ad.transpose(wu))
        nxt_v = ad.matmul(ad.gather(cur, item_rows), ad.transpose(wv))
        cur = ad.concat([nxt_u, nxt_v], axis=0)
        steps.append(cur)
    return steps


def chain_embedding(all_step_tables):
    """Sum of every step table of every chain."""
    flat = [t for steps in all_step_tables for t in steps]
    if not flat:
        raise ValueError("no chain step tables to sum")
    out = flat[0]
    for t in flat[1:]:
        out = ad.add(out, t)
    return out


def final_embedding(h_ebp, e_rel, e_chain):
    """Elementwise mean of the three channel tables."""
    shapes = {ad.val(h_ebp).shape, ad.val(e_rel).shape, ad.val(e_chain).shape}
    if len(shapes) != 1:
        raise ValueError(f"shape mismatch across channels: {shapes}")
    return ad.mul(ad.add(ad.add(h_ebp, e_rel), e_chain), 1.0 / 3.0)
