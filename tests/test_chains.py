"""Chain enumeration, staged transforms, and the channel fusion."""

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
    def _chain(self):
        schema = make_schema(("view", "cart", "buy"), "buy")
        return enumerate_chains(schema)[2]  # view->cart->buy

    def test_identity_transforms_repeat_first_table(self):
        chain = self._chain()
        table = np.random.default_rng(0).normal(size=(5, 3))
        eye = [np.eye(3)] * 2
        steps = chain_forward(chain, table, eye, eye, num_users=2)
        assert len(steps) == 3
        for s in steps:
            np.testing.assert_allclose(s, table)

    def test_zero_transforms_zero_later_steps(self):
        chain = self._chain()
        table = np.ones((4, 2))
        zeros = [np.zeros((2, 2))] * 2
        steps = chain_forward(chain, table, zeros, zeros, num_users=2)
        np.testing.assert_allclose(steps[0], table)
        np.testing.assert_allclose(steps[1], np.zeros_like(table))
        np.testing.assert_allclose(steps[2], np.zeros_like(table))

    def test_swap_matrix_swaps_coordinates(self):
        chain = self._chain()
        swap = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        table = np.asarray([[3.0, 5.0], [1.0, 2.0]])
        steps = chain_forward(chain, table, [swap, swap], [swap, swap],
                              num_users=1)
        np.testing.assert_allclose(steps[1], [[5.0, 3.0], [2.0, 1.0]])

    def test_user_item_transforms_differ(self):
        chain = self._chain()
        table = np.ones((3, 2))
        wu = [2.0 * np.eye(2)] * 2
        wv = [3.0 * np.eye(2)] * 2
        steps = chain_forward(chain, table, wu, wv, num_users=1)
        np.testing.assert_allclose(steps[2][0], [4.0, 4.0])
        np.testing.assert_allclose(steps[2][1], [9.0, 9.0])

    def test_linear_in_input(self):
        chain = self._chain()
        rng = np.random.default_rng(1)
        wu = [rng.normal(size=(3, 3)) for _ in range(2)]
        wv = [rng.normal(size=(3, 3)) for _ in range(2)]
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        fx = chain_forward(chain, x, wu, wv, 3)[2]
        fy = chain_forward(chain, y, wu, wv, 3)[2]
        fxy = chain_forward(chain, x + y, wu, wv, 3)[2]
        np.testing.assert_allclose(fxy, fx + fy, rtol=1e-9, atol=1e-12)


class TestChannelSums:
    def test_chain_embedding_counts_terms(self):
        t = np.ones((2, 2))
        steps = [[t, t], [t, t], [t, t, t]]  # lengths 2,2,3 -> 7 tables
        np.testing.assert_allclose(chain_embedding(steps), 7.0 * t)
        np.testing.assert_allclose(chain_embedding([[0 * t, 0 * t]]),
                                   np.zeros((2, 2)))

    def test_identity_transform_sum_is_length_times_table(self):
        schema = make_schema(("view", "cart", "buy"), "buy")
        chain = enumerate_chains(schema)[2]
        table = np.random.default_rng(3).normal(size=(4, 2))
        eye = [np.eye(2)] * 2
        steps = chain_forward(chain, table, eye, eye, 2)
        np.testing.assert_allclose(chain_embedding([steps]), len(chain.relations) * table)

    def test_final_embedding_mean(self):
        a = np.asarray([[3.0, 0.0]])
        b = np.asarray([[0.0, 3.0]])
        c = np.asarray([[3.0, 3.0]])
        np.testing.assert_allclose(final_embedding(a, b, c), [[2.0, 2.0]])
        np.testing.assert_allclose(final_embedding(a, a, a), a)
        np.testing.assert_allclose(final_embedding(a, -a, 0 * a), [[0.0, 0.0]])
