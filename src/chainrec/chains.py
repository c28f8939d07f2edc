"""Relation chains: staged embedding transforms along the relation order
of each multi-relation behavior pattern that contains the target.

A chain starts from the relation-specific embedding of its first relation
and applies one learnable d x d transform per step, separately for user
rows and item rows. Step tables across all chains sum into the chain
embedding table. Every step is linear, so the chains from one relation add
its table times one d x d map per side, and a chain's last step is that
table times the product of its transforms.
"""

from dataclasses import dataclass
from itertools import accumulate

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


def transform_names(i: int, chain: RelationChain) -> tuple:
    """Chain i's user transform names and its item transform names, one per step."""
    return tuple([f"chain{i}.{side}{j}" for j in range(chain.num_steps)]
                 for side in ("user", "item"))


def chain_forward(w_user, w_item) -> tuple:
    """One chain's path maps per side: A_j = W_j ... W_1 after each step j,
    so that its step-j table is its first relation's table times A_jᵀ
    (rowwise, e_j = W_j e_(j-1)) and its last map is Π, the BPR table's."""
    return tuple(list(accumulate(ws, lambda a, w: ad.matmul(w, a))) for ws in (w_user, w_item))


def chain_embedding(table, split, paths, out=None):
    """``table`` times Kᵀ, its rows ``:split`` by the user-side K and the rest
    by the item-side one, into ``out`` if given. K = n I + Σ_c Σ_j A_cj over
    the n chains whose :func:`chain_forward` ``paths`` are given, all starting
    at ``table``'s relation: the sum of their step tables, the relation's
    chain table."""
    dim = ad.val(table).shape[1]
    eye = np.eye(dim, dtype=ad.val(table).dtype) * len(paths)
    maps = [ad.add_n([eye, *(a for path in paths for a in path[side])]) for side in (0, 1)]
    return ad.split_rows_matmul(table, split, *maps, out=out)


def final_embedding(tables, out=None):
    """A third of the sum of ``tables``, in order, into ``out`` if given:
    the mean of the pattern, relation and chain channels."""
    return ad.add_n(tables, scale=1.0 / 3.0, out=out)
