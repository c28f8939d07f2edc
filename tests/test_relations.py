"""Per-relation propagation against dense normalized-matrix-power oracles."""

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec.relations import (aggregate_relations, lightgcn_propagate,
                                propagate_layers)
from chainrec.sparse import receptive_fields

import oracles
from conftest import random_multiplex_graph, relation_matrix
from test_patterns import graph_from_pairs


class TestLightgcnPropagate:
    def test_single_edge_sums_both_rows(self):
        g = graph_from_pairs(1, 1, {"r": [(0, 0)]})
        base = np.asarray([[1.0, 2.0], [10.0, 20.0]])
        out = lightgcn_propagate(relation_matrix(g, "r"), base, 1)
        np.testing.assert_allclose(out[0], base[0] + base[1])
        np.testing.assert_allclose(out[1], base[1] + base[0])

    def test_isolated_node_keeps_layer0(self):
        g = graph_from_pairs(2, 2, {"r": [(0, 0)]})
        base = np.random.default_rng(0).normal(size=(4, 3))
        out = lightgcn_propagate(relation_matrix(g, "r"), base, 3)
        np.testing.assert_allclose(out[1], base[1])   # isolated user
        np.testing.assert_allclose(out[3], base[3])   # isolated item

    def test_star_normalization(self):
        g = graph_from_pairs(1, 4, {"r": [(0, 0), (0, 1), (0, 2), (0, 3)]})
        base = np.random.default_rng(1).normal(size=(5, 2))
        out = lightgcn_propagate(relation_matrix(g, "r"), base, 1)
        np.testing.assert_allclose(out[0], base[0] + base[1:].sum(axis=0) / 2.0)

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, layers):
        g = random_multiplex_graph(20, 25, ("a", "b"), 0.15, seed=layers)
        base = np.random.default_rng(layers).normal(size=(45, 6))
        for r in g.schema.relations:
            got = lightgcn_propagate(relation_matrix(g, r), base, layers)
            want = oracles.relation_propagation(g, r, base, layers)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)

    def test_linear_in_base(self):
        g = random_multiplex_graph(8, 8, ("a", "b"), 0.3, seed=9)
        adj = relation_matrix(g, "a")
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
        fx = lightgcn_propagate(adj, x, 2)
        fy = lightgcn_propagate(adj, y, 2)
        np.testing.assert_allclose(lightgcn_propagate(adj, 3.0 * x, 2),
                                   3.0 * fx, rtol=1e-9)
        np.testing.assert_allclose(lightgcn_propagate(adj, x + y, 2),
                                   fx + fy, rtol=1e-9, atol=1e-12)


class TestPropagateLayersAtRows:
    # two components, users 0-1 with items 0-2 and users 2-3 with items
    # 3-5, and item 6 isolated; the rows lie in the first component
    GRAPH = {"r": [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 4), (3, 4),
                   (3, 5)]}
    ROWS = np.asarray([0, 5])

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_base_gradient_matches_full_path_and_vanishes_off_the_field(self,
                                                                      layers):
        g = graph_from_pairs(4, 7, self.GRAPH)
        adj = relation_matrix(g, "r")
        rng = np.random.default_rng(layers)
        base0 = rng.normal(size=(11, 3))
        coeff = rng.normal(size=(layers, len(self.ROWS), 3))
        grads = []
        for rows in (None, self.ROWS):
            base = ad.Var(base0.copy())
            hs = propagate_layers(adj, base, layers, rows)
            loss = None
            for h, c in zip(hs, coeff):
                at = h if rows is not None else ad.gather(h, self.ROWS)
                term = ad.asum(ad.mul(at, c))
                loss = term if loss is None else ad.add(loss, term)
            ad.backward(loss)
            grads.append(base.grad)
            if rows is not None:
                full = propagate_layers(adj, base0, layers)
                for h, want in zip(hs, full):
                    np.testing.assert_array_equal(ad.val(h), want[self.ROWS])
        assert grads[1].shape == base0.shape
        np.testing.assert_allclose(grads[1], grads[0], rtol=1e-12, atol=1e-15)
        read = receptive_fields(adj.struct, self.ROWS, layers)[0]
        off = np.setdiff1d(np.arange(11), read)
        assert np.isin([2, 3, 7, 8, 9, 10], off).all()
        np.testing.assert_array_equal(grads[1][off], 0.0)


class TestAggregateRelations:
    def test_identity_negation_and_sum(self):
        t = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_allclose(aggregate_relations([t]), t)
        np.testing.assert_allclose(aggregate_relations([t, -t]), np.zeros_like(t))
        ones = np.ones((2, 4))
        np.testing.assert_allclose(aggregate_relations({"a": ones, "b": ones,
                                                        "c": ones}),
                                   3.0 * ones)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_relations([np.zeros((2, 2)), np.zeros((3, 2))])
        with pytest.raises(ValueError):
            aggregate_relations([])
