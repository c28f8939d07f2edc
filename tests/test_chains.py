"""Chain enumeration, the chains' path maps and per-relation maps, and
the channel fusion."""

import numpy as np
import pytest

from chainrec.chains import (chain_embedding, chain_forward, enumerate_chains,
                             final_embedding)
from chainrec.graph import SchemaError, make_schema


class TestEnumeration:
    def test_three_relations(self):
        schema = make_schema(("view", "cart", "buy"), "buy")
        chains = enumerate_chains(schema)
        assert [c.label() for c in chains] == ["view->buy", "cart->buy",
                                               "view->cart->buy"]

    def test_four_relations_gives_seven(self):
        schema = make_schema(("tips", "neutral", "dislike", "like"), "like")
        assert len(enumerate_chains(schema)) == 7

    def test_single_relation_gives_none(self):
        schema = make_schema(("buy",), "buy")
        assert enumerate_chains(schema) == []

    def test_sequence_follows_canonical_order_not_input_order(self):
        a = make_schema(("view", "cart", "buy"), "buy",
                        canonical_order=("view", "cart", "buy"))
        b = make_schema(("cart", "buy", "view"), "buy",
                        canonical_order=("view", "cart", "buy"))
        la = {frozenset(c.relations): c.relations for c in enumerate_chains(a)}
        lb = {frozenset(c.relations): c.relations for c in enumerate_chains(b)}
        # pattern bit order differs but every chain sequence is identical
        assert la == lb
        assert ([c.pattern for c in enumerate_chains(a)]
                != [c.pattern for c in enumerate_chains(b)])

    def test_order_override_changes_sequence_not_masks(self):
        # the order may place the target first; it re-sequences each
        # chain but never changes which patterns produce chains
        default = enumerate_chains(make_schema(("view", "cart", "buy"), "buy"))
        s1 = enumerate_chains(make_schema(("view", "cart", "buy"), "buy",
                                          canonical_order=("buy", "view", "cart")))
        assert [c.pattern for c in s1] == [c.pattern for c in default] == [4, 5, 6]
        assert [c.label() for c in s1] == ["buy->view", "buy->cart",
                                           "buy->view->cart"]

    def test_override_must_be_permutation(self):
        with pytest.raises(SchemaError):
            make_schema(("view", "buy"), "buy", canonical_order=("view", "view"))


class TestChainForward:
    """A chain's path maps A_j = W_j ... W_1, one per step and side."""

    def test_identity_transforms_give_identity_maps(self):
        eye = [np.eye(3)] * 2
        for maps in chain_forward(eye, eye):
            assert len(maps) == 2
            for m in maps:  # Π, the last, included
                np.testing.assert_array_equal(m, np.eye(3))

    def test_zero_transforms_zero_every_map(self):
        zeros = [np.zeros((2, 2))] * 2
        for maps in chain_forward(zeros, zeros):
            for m in maps:
                np.testing.assert_array_equal(m, np.zeros((2, 2)))

    def test_maps_compose_in_step_order(self):
        rng = np.random.default_rng(2)
        w = [rng.normal(size=(3, 3)) for _ in range(3)]
        maps, _ = chain_forward(w, w)
        np.testing.assert_allclose(maps[2], w[2] @ w[1] @ w[0], rtol=1e-12)
        # two swaps compose to the identity
        swap = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        maps, _ = chain_forward([swap, swap], [swap, swap])
        np.testing.assert_array_equal(maps[0], swap)
        np.testing.assert_array_equal(maps[1], np.eye(2))

    def test_user_item_transforms_differ(self):
        # the step tables alone, 1 + 2 + 4 for users, 1 + 3 + 9 for items
        paths = chain_forward([2.0 * np.eye(2)] * 2, [3.0 * np.eye(2)] * 2)
        got = chain_embedding(np.ones((3, 2)), 1, [paths])
        np.testing.assert_array_equal(got, [[7.0, 7.0], [13.0, 13.0], [13.0, 13.0]])

    def test_linear_in_input(self):
        rng = np.random.default_rng(1)
        paths = [chain_forward([rng.normal(size=(3, 3)) for _ in range(k)],
                               [rng.normal(size=(3, 3)) for _ in range(k)])
                 for k in (1, 2)]
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        fx, fy, fxy = (chain_embedding(t, 3, paths) for t in (x, y, x + y))
        np.testing.assert_allclose(fxy, fx + fy, rtol=1e-9, atol=1e-12)


class TestChannelSums:
    """K = n I + Σ_c Σ_j A_cj over the n chains from one relation, with no
    identity for the relation's own table, read off by applying it to
    identity rows: I Kᵀ = Kᵀ."""

    def test_zero_transforms_give_n_identities(self):
        # each chain's first step alone
        steps = [1, 2, 1]
        paths = [chain_forward([np.zeros((2, 2))] * k, [np.zeros((2, 2))] * k)
                 for k in steps]
        for split in (2, 0):  # the user side, then the item side
            np.testing.assert_array_equal(chain_embedding(np.eye(2), split, paths),
                                          3.0 * np.eye(2))

    def test_identity_transforms_count_every_step_table(self):
        # each chain adds one table per relation on it, and the relation's
        # own table none: 2 + 2 + 3 for the three chains of three relations
        chains = enumerate_chains(make_schema(("view", "cart", "buy"), "buy"))
        paths = [chain_forward([np.eye(2)] * c.num_steps, [np.eye(2)] * c.num_steps)
                 for c in chains]
        table = np.random.default_rng(3).normal(size=(4, 2))
        want = sum(len(c.relations) for c in chains) * table
        np.testing.assert_allclose(chain_embedding(table, 2, paths), want, rtol=1e-12)

    def test_final_embedding_mean(self):
        a = np.asarray([[3.0, 0.0]])
        b = np.asarray([[0.0, 3.0]])
        c = np.asarray([[3.0, 3.0]])
        np.testing.assert_allclose(final_embedding([a, b, c]), [[2.0, 2.0]])
        np.testing.assert_allclose(final_embedding([a, a, a]), a)
        np.testing.assert_allclose(final_embedding([a, -a, 0 * a]), [[0.0, 0.0]])
