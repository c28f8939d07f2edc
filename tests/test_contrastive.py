"""Contrastive loss closed forms and the weighting encoder pieces."""

import logging

import numpy as np
import pytest

from chainrec import contrastive
from chainrec.chains import enumerate_chains
from chainrec.graph import make_schema

import oracles


def infonce_loss(anchor_table, other_table, users, tau):
    """Batch-summed InfoNCE, the sum of the per-user terms the model uses."""
    return np.sum(contrastive.infonce_terms(anchor_table[users], other_table[users], tau))


class TestInfoNCE:
    def test_identical_rows_give_n_log_n(self):
        n, d = 7, 5
        table = np.tile(np.asarray([1.0, -2.0, 0.5, 3.0, 1.0]), (n, 1))
        loss = infonce_loss(table, table, np.arange(n), tau=0.1)
        assert abs(float(loss) - n * np.log(n)) < 1e-9

    def test_batch_of_one_is_zero(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        loss = infonce_loss(a, b, np.asarray([1]), tau=0.5)
        assert abs(float(loss)) < 1e-12

    def test_two_user_hand_case(self):
        # d=2 vectors chosen for easy cosines; checked against the literal
        # per-user softmax evaluation
        e_r = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        e_r2 = np.asarray([[1.0, 1.0], [1.0, -1.0]])
        tau = 0.2
        got = float(infonce_loss(e_r, e_r2, np.asarray([0, 1]), tau))
        want = oracles.infonce_reference(e_r, e_r2, tau)
        assert abs(got - want) < 1e-12
        # same thing fully by hand: cos matrix is [[c,c],[c,-c]], c=cos(45deg)
        c = np.cos(np.pi / 4) / tau
        hand = -np.log(np.exp(c) / (np.exp(c) + np.exp(c)))
        hand += -np.log(np.exp(-c) / (np.exp(c) + np.exp(-c)))
        assert abs(got - hand) < 1e-12

    def test_scale_invariance_of_cosine(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        users = np.arange(6)
        base = float(infonce_loss(a, b, users, 0.3))
        scaled = float(infonce_loss(137.0 * a, 0.02 * b, users, 0.3))
        assert abs(base - scaled) < 1e-8

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
            assert float(infonce_loss(a, b, np.arange(5), 0.7)) >= 0



class TestRelationLosses:
    def test_each_auxiliary_against_the_target(self):
        rng = np.random.default_rng(5)
        rows = {r: rng.normal(size=(4, 3)) for r in ("view", "cart", "buy")}
        got = contrastive.relation_losses(rows, "buy", 0.3)
        assert list(got) == ["view", "cart"]
        for r, loss in got.items():
            assert float(loss) == float(np.sum(
                contrastive.infonce_terms(rows["buy"], rows[r], 0.3)))

    def test_zero_norm_rows_counted_and_scored_zero(self, caplog):
        rows = {"view": np.asarray([[1.0, 0.0], [0.0, 1.0]]),
                "buy": np.asarray([[0.0, 0.0], [1.0, 0.0]])}
        with caplog.at_level(logging.WARNING, logger="chainrec.contrastive"):
            losses = contrastive.relation_losses(rows, "buy", 1.0)
        assert [r.args for r in caplog.records] == [(1,)]
        assert "1 zero-norm embedding rows" in caplog.text
        assert np.isfinite(float(losses["view"]))

    @pytest.mark.parametrize("n_aux", [2, 3])
    def test_target_rows_checked_once_per_step(self, n_aux, caplog):
        # one zero-norm target row is one warning, however many auxiliaries
        # are scored against it
        rng = np.random.default_rng(6)
        rows = {f"aux{k}": rng.normal(size=(3, 2)) for k in range(n_aux)}
        rows["buy"] = np.asarray([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]])
        with caplog.at_level(logging.WARNING, logger="chainrec.contrastive"):
            contrastive.relation_losses(rows, "buy", 0.5)
        assert [r.args for r in caplog.records] == [(1,)]

    def test_infonce_terms_do_not_log(self, caplog):
        a = np.asarray([[0.0, 0.0], [1.0, 0.0]])
        with caplog.at_level(logging.WARNING, logger="chainrec.contrastive"):
            contrastive.infonce_terms(a, a, 1.0)
        assert caplog.records == []


class TestWeightedLosses:
    def test_weights_from_encoded_feature_means(self):
        feats = [np.asarray([[1.0, 0.0], [3.0, 0.0]]), np.asarray([[0.0, 2.0]])]
        w, b = np.asarray([0.5, 1.0]), 0.25
        got = contrastive.weighted_losses([2.0, 5.0], feats, w, b, 0.01)
        # LeakyReLU(F . w + b) averaged per loss: (0.75 + 1.75) / 2 and 2.25
        weights = np.asarray(contrastive.normalize_weights([1.25, 2.25]))
        assert float(got) == pytest.approx(float(weights @ [2.0, 5.0]), rel=1e-15)

    def test_uniform_raws_give_the_plain_sum(self):
        feats = [np.ones((2, 3)), np.ones((4, 3)), np.ones((1, 3))]
        got = contrastive.weighted_losses([1.0, 2.0, 4.0], feats, np.zeros(3), 1.0, 0.01)
        assert float(got) == pytest.approx(7.0, rel=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_losses_is_a_zero_of_the_encoder_dtype(self, dtype):
        got = contrastive.weighted_losses([], [], np.zeros(3, dtype), dtype(0.0), 0.01)
        assert float(got) == 0.0 and got.dtype == dtype


class TestChainKnowledge:
    CHAIN = enumerate_chains(make_schema(("view", "cart", "buy"), "buy"))[2]

    def test_zero_losses_zero_first_block(self):
        feat = contrastive.chain_knowledge(self.CHAIN,
                                           {"view": 0.0, "cart": 0.0},
                                           np.ones((2, 4)), np.ones((2, 4)),
                                           mu=0.5, target="buy")
        np.testing.assert_array_equal(np.asarray(feat)[:, :4], np.zeros((2, 4)))

    def test_scaled_sum_fills_first_block(self):
        feat = contrastive.chain_knowledge(self.CHAIN,
                                           {"view": 1.5, "cart": 0.5},
                                           np.zeros((1, 4)), np.zeros((1, 4)),
                                           mu=0.5, target="buy")
        np.testing.assert_allclose(np.asarray(feat)[0, :4], np.full(4, 1.0))

    def test_target_loss_never_consulted(self):
        # only auxiliary losses are summed; a target entry must not be needed
        feat = contrastive.chain_knowledge(self.CHAIN,
                                           {"view": 2.0, "cart": 3.0},
                                           np.zeros((1, 2)), np.zeros((1, 2)),
                                           mu=1.0, target="buy")
        np.testing.assert_allclose(np.asarray(feat)[0, :2], [5.0, 5.0])

    def test_missing_auxiliary_raises(self):
        with pytest.raises(KeyError):
            contrastive.chain_knowledge(self.CHAIN, {"view": 1.0},
                                        np.zeros((1, 2)), np.zeros((1, 2)),
                                        mu=1.0, target="buy")

    def test_concat_layout(self):
        e_c = np.asarray([[1.0, 2.0]])
        e_f = np.asarray([[3.0, 4.0]])
        feat = contrastive.chain_knowledge(self.CHAIN, {"view": 0.0, "cart": 0.0},
                                           e_c, e_f, mu=1.0, target="buy")
        np.testing.assert_allclose(np.asarray(feat), [[0.0, 0.0, 1.0, 2.0, 3.0, 4.0]])


class TestRelationKnowledge:
    def test_zero_loss_zero_vector(self):
        out = contrastive.relation_knowledge(0.0, np.ones((1, 3)), np.ones((1, 3)))
        np.testing.assert_array_equal(np.asarray(out), np.zeros((1, 6)))

    def test_unit_loss_is_concat(self):
        out = contrastive.relation_knowledge(1.0, np.asarray([[1.0, 0.0]]),
                                             np.asarray([[0.0, 1.0]]))
        np.testing.assert_allclose(np.asarray(out), [[1.0, 0.0, 0.0, 1.0]])

    def test_scalar_multiplies(self):
        out = contrastive.relation_knowledge(2.0, np.asarray([[1.0, 0.0]]),
                                             np.asarray([[0.0, 1.0]]))
        np.testing.assert_allclose(np.asarray(out), [[2.0, 0.0, 0.0, 2.0]])


class TestEncodeWeight:
    def test_zero_projection_returns_bias(self):
        out = contrastive.encode_weight(np.ones((3, 4)), np.zeros(4), 3.0, 0.01)
        np.testing.assert_allclose(np.asarray(out), [3.0, 3.0, 3.0])

    def test_negative_branch_uses_slope(self):
        out = contrastive.encode_weight(np.ones((1, 2)), np.zeros(2), -2.0, 0.01)
        np.testing.assert_allclose(np.asarray(out), [-0.02])

    def test_unit_dot_product(self):
        d = 4
        feat = np.ones((1, 3 * d))
        w = np.full(3 * d, 1.0 / (3 * d))
        out = contrastive.encode_weight(feat, w, 0.0, 0.01)
        np.testing.assert_allclose(np.asarray(out), [1.0])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        feat = np.abs(rng.normal(size=(4, 5))) + 0.1
        w = np.abs(rng.normal(size=5))
        one = np.asarray(contrastive.encode_weight(feat, w, 0.5, 0.01))
        two = np.asarray(contrastive.encode_weight(2.0 * feat, w, 1.0, 0.01))
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contrastive.encode_weight(np.ones((1, 3)), np.zeros(4), 0.0, 0.01)


class TestNormalizeWeights:
    def test_uniform_raws_map_to_ones(self):
        out = np.asarray(contrastive.normalize_weights([2.5, 2.5, 2.5]))
        np.testing.assert_allclose(out, np.ones(3), atol=1e-12)

    def test_single_element_is_one(self):
        np.testing.assert_allclose(np.asarray(contrastive.normalize_weights([7.0])),
                                   [1.0])

    def test_log2_case(self):
        out = np.asarray(contrastive.normalize_weights([0.0, np.log(2.0)]))
        np.testing.assert_allclose(out, [2.0 / 3.0, 4.0 / 3.0], rtol=1e-12)

    def test_sums_to_count_and_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            raws = list(rng.normal(size=rng.integers(1, 6)))
            out = np.asarray(contrastive.normalize_weights(raws))
            assert abs(out.sum() - len(raws)) < 1e-9
            assert np.all(out > 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            contrastive.normalize_weights([])
