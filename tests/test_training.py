"""Sampling, loss closed forms, Adam, gradient correctness, determinism."""

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec.config import RunConfig
from chainrec.graph import (load_interactions, make_schema, split_train_test,
                            stream_rng, training_graph)
from chainrec.model import DualChannelModel, TrainingAbort
from chainrec.synth import write_synthetic
from chainrec.training import (AdamState, TripleSampler, _draw_negative,
                               adam_step, backward, bpr_loss, sample_negatives,
                               total_loss, train)

from conftest import make_batch, random_multiplex_graph
from test_patterns import graph_from_pairs


class TestBprLoss:
    def test_zero_margin_is_ln2_per_triple(self):
        s = np.asarray([1.0, 2.0, -0.5])
        assert float(bpr_loss(s, s)) == pytest.approx(3 * np.log(2.0), abs=1e-9)

    def test_saturated_margin_vanishes(self):
        pos = np.asarray([20.0])
        neg = np.asarray([0.0])
        assert float(bpr_loss(pos, neg)) < 1e-8

    def test_unit_margin_closed_form(self):
        assert float(bpr_loss(np.asarray([1.0]), np.asarray([0.0]))) == \
            pytest.approx(0.313262, abs=1e-6)

    def test_l2_term_and_its_gradient(self):
        theta = ad.Var(np.asarray([[1.0, -2.0], [0.5, 0.0]]))
        lam = 0.3
        loss = bpr_loss(np.asarray([50.0]), np.asarray([0.0]), (theta,), lam)
        ad.backward(loss)
        # ranking part saturates to ~0, so the gradient is exactly 2*lam*theta
        np.testing.assert_allclose(theta.grad, 2 * lam * theta.value, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bpr_loss(np.zeros(2), np.zeros(3))


class TestNegativeSampling:
    def test_two_items_forced_choice(self):
        g = graph_from_pairs(1, 2, {"buy": [(0, 0)]}, target="buy")
        split = split_train_test(g, 0.9, seed=0)  # rounds to the single edge
        rng = np.random.default_rng(0)
        for _ in range(25):
            assert sample_negatives(g, split, 0, "buy", rng) == g.num_users + 1

    def test_deterministic_sequence(self):
        g = random_multiplex_graph(4, 30, ("view", "buy"), 0.3, seed=0)
        split = split_train_test(g, 0.75, seed=0)
        a = [sample_negatives(g, split, 0, "buy", np.random.default_rng(5))
             for _ in range(1)]
        b = [sample_negatives(g, split, 0, "buy", np.random.default_rng(5))
             for _ in range(1)]
        assert a == b

    def test_never_returns_a_positive(self):
        # 10k items, ~10 positives, 1e5 draws: zero hits on the positive set
        rng = np.random.default_rng(2)
        items = 3 + np.asarray(sorted(rng.choice(10_000, size=10, replace=False)))
        edges = {"view": (np.empty(0, np.int64), np.empty(0, np.int64)),
                 "buy": (np.zeros(10, dtype=np.int64), items)}
        from chainrec.graph import MultiplexBipartiteGraph, make_schema
        g = MultiplexBipartiteGraph(schema=make_schema(("view", "buy"), "buy"),
                                    num_users=3, num_items=10_000, edges=edges)
        positives = set(items.tolist())
        draw_rng = np.random.default_rng(5)
        hits = 0
        for _ in range(100_000):
            if _draw_negative(positives, 3, 10_000, draw_rng) in positives:
                hits += 1
        assert hits == 0

    def test_chain_context_uses_pattern_edges(self):
        g = random_multiplex_graph(6, 40, ("view", "cart", "buy"), 0.2, seed=3)
        split = split_train_test(g, 0.75, seed=0)
        cfg = RunConfig(dim=2, seed=0).validate()
        model = DualChannelModel(training_graph(g, split), cfg)
        chain = model.chains[0]
        bbp = model.bbps[chain.source_mask.signature - 1]
        users_with = np.unique(bbp.u)
        if users_with.size == 0:
            pytest.skip("random draw produced no pattern edges")
        user = int(users_with[0])
        pos = set(bbp.v[bbp.u == user].tolist())
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert sample_negatives(g, split, user, chain, rng) not in pos

    def test_exhausted_user_errors(self):
        g = graph_from_pairs(1, 1, {"buy": [(0, 0)]}, target="buy")
        split = split_train_test(g, 0.9, seed=0)
        with pytest.raises(ValueError):
            sample_negatives(g, split, 0, "buy", np.random.default_rng(0))


class TestAdam:
    def test_zero_gradient_keeps_params(self, tiny_setup):
        _, _, model, params, _, _ = tiny_setup
        before = params.copy()
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        adam_step(params, grads, AdamState.init(params), lr=0.1)
        for k in params.tensors:
            np.testing.assert_array_equal(params.tensors[k], before.tensors[k])

    def test_first_step_magnitude(self):
        from chainrec.model import ModelParams
        params = ModelParams({"w": np.asarray([0.0])})
        state = AdamState.init(params)
        adam_step(params, {"w": np.asarray([1.0])}, state, lr=1e-3)
        assert abs(params.tensors["w"][0] + 1e-3) < 1e-6

    def test_ten_steps_bitwise_reproducible(self, tiny_setup):
        _, split, model, params, batch, cfg = tiny_setup

        def run():
            p = model.init_params(cfg.seed)
            st = AdamState.init(p)
            for _ in range(10):
                grads, _ = backward(model, p, batch)
                adam_step(p, grads, st, cfg.lr)
            return p

        a, b = run(), run()
        for k in a.tensors:
            np.testing.assert_array_equal(a.tensors[k], b.tensors[k])

    def test_matches_textbook_update_bitwise(self):
        # every step equals Adam written out in the order of its formulas,
        # for a matrix spanning several row blocks, a 0-d parameter (like
        # enc_chain.b) and a float32 parameter whose gradient is float64
        from chainrec.model import ModelParams
        from chainrec.training import ADAM_BLOCK_ROWS
        rng = np.random.default_rng(11)
        rows = 2 * ADAM_BLOCK_ROWS + 3
        start = {"w": rng.normal(size=(rows, 3)), "b": np.asarray(0.4),
                 "h": rng.normal(size=(4,)).astype(np.float32)}
        params = ModelParams({k: v.copy() for k, v in start.items()})
        state = AdamState.init(params)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        ref = {k: v.copy() for k, v in start.items()}
        m = {k: np.zeros_like(v) for k, v in start.items()}
        v = {k: np.zeros_like(x) for k, x in start.items()}
        for t in range(1, 5):
            grads = {"w": rng.normal(size=(rows, 3)),
                     "b": np.asarray(rng.normal()) if t % 2 else np.float64(rng.normal()),
                     "h": rng.normal(size=(4,))}
            adam_step(params, grads, state, lr)
            for k, g in grads.items():
                dtype = ref[k].dtype
                m[k] = (b1 * m[k] + (1.0 - b1) * g).astype(dtype)
                v[k] = (b2 * v[k] + (1.0 - b2) * g * g).astype(dtype)
                m_hat = m[k] / (1.0 - b1 ** t)
                v_hat = v[k] / (1.0 - b2 ** t)
                ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert state.t == t
            for k in ref:
                assert params.tensors[k].dtype == ref[k].dtype
                np.testing.assert_array_equal(params.tensors[k], ref[k])
                np.testing.assert_array_equal(state.m[k], m[k])
                np.testing.assert_array_equal(state.v[k], v[k])

    def test_nonfinite_gradient_aborts(self, tiny_setup):
        _, _, model, params, _, _ = tiny_setup
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["base"][0, 0] = np.inf
        with pytest.raises(TrainingAbort):
            adam_step(params, grads, AdamState.init(params), lr=0.1)


class TestGradients:
    def test_full_objective_matches_finite_differences(self, tiny_setup):
        """Sampled coordinates of every tensor (the acceptance suite sweeps
        every coordinate)."""
        _, _, model, params, batch, _ = tiny_setup
        grads, _ = backward(model, params, batch)
        rng = np.random.default_rng(0)
        h = 1e-5
        for name, g in grads.items():
            flat = params.tensors[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                old = flat[i]
                flat[i] = old + h
                lp = float(ad.val(model.total_loss(params.tensors, batch)[0]))
                flat[i] = old - h
                lm = float(ad.val(model.total_loss(params.tensors, batch)[0]))
                flat[i] = old
                fd = (lp - lm) / (2 * h)
                an = g.reshape(-1)[i]
                assert abs(fd - an) / max(abs(fd), abs(an), 1e-3) < 1e-5, name

    def test_gradients_flow_to_every_tensor(self, tiny_setup):
        _, _, model, params, batch, _ = tiny_setup
        grads, _ = backward(model, params, batch)
        for name, g in grads.items():
            assert np.any(g != 0.0), f"no gradient reached {name}"


class TestTrainLoop:
    def _synth(self, tmp_path, users=200, items=150):
        cfg = RunConfig(synth_users=users, synth_items=items, synth_clusters=10,
                        synth_views=10, synth_carts=6, synth_buys=5,
                        dim=8, batch=64, epochs=5, eval_every=5, seed=0,
                        patience=50).validate()
        path = tmp_path / "synthetic.tsv"
        write_synthetic(cfg, path)
        schema = make_schema(cfg.relations, cfg.target)
        graph = load_interactions(path, schema)
        split = split_train_test(graph, cfg.ratio, cfg.seed)
        return cfg, graph, split

    def test_epoch_mean_loss_strictly_decreases(self, tmp_path):
        cfg, graph, split = self._synth(tmp_path)
        result = train(graph, split, cfg)
        losses = [r["total"] for r in result.history if r["type"] == "loss"]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_fixed_seed_gives_identical_history(self, tmp_path):
        cfg, graph, split = self._synth(tmp_path)
        h1 = train(graph, split, cfg).history
        h2 = train(graph, split, cfg).history
        assert h1 == h2

    def test_zero_lr_freezes_loss(self, tmp_path):
        cfg, graph, split = self._synth(tmp_path)
        cfg_frozen = RunConfig(**{**cfg.__dict__, "lr": 1e-30, "epochs": 3}).validate()
        result = train(graph, split, cfg_frozen)
        losses = [r["total"] for r in result.history if r["type"] == "loss"]
        # negative draws differ per epoch, so allow batching noise only
        assert max(losses) - min(losses) < 0.05 * abs(np.mean(losses))

    def test_early_stopping_emits_record(self, tmp_path):
        cfg, graph, split = self._synth(tmp_path)
        cfg_stop = RunConfig(**{**cfg.__dict__, "epochs": 30, "eval_every": 1,
                                "patience": 2, "lr": 1e-30}).validate()
        result = train(graph, split, cfg_stop)
        kinds = [r["type"] for r in result.history]
        assert "early_stop" in kinds
        assert result.last_epoch < 30
