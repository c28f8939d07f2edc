"""Relation chains: staged embedding transforms along the relation order
of each multi-relation behavior pattern that contains the target.

A chain starts from the relation-specific embedding of its first relation
and applies one learnable d x d transform per step, separately for user
rows and item rows. Step tables across all chains sum into the chain
embedding table.
"""

from dataclasses import dataclass

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


def chain_forward(chain: RelationChain, first_relation_table,
                  w_user, w_item, num_users: int):
    """Per-step tables of one chain.

    Step 1 is ``first_relation_table``; step j+1 applies the j-th of the
    given user/item transforms rowwise. Returns the first table and one
    per transform pair.
    """
    steps = [first_relation_table]
    for wu, wv in zip(w_user, w_item):
        # rowwise e_next = W e is E @ W^T on each block
        steps.append(ad.split_rows_matmul(steps[-1], num_users, wu, wv))
    return steps


def chain_embedding(all_step_tables):
    """Sum of every step table of every chain."""
    return ad.add_n([t for steps in all_step_tables for t in steps])


def final_embedding(h_ebp, e_rel, e_chain, out=None):
    """Elementwise mean of the three channel tables, into ``out`` if given."""
    return ad.add_n([h_ebp, e_rel, e_chain], scale=1.0 / 3.0, out=out)
