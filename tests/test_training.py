"""Sampling, loss closed forms, Adam, gradient correctness, determinism."""

import json

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec import backend
from chainrec.config import RunConfig
from chainrec.graph import (DatasetSplit, load_interactions, make_schema,
                            split_train_test, stream_rng, training_graph)
from chainrec.model import DualChannelModel, TrainingAbort, bpr
from chainrec.synth import write_synthetic
from chainrec.training import (AdamState, NegativeSamplingError, TripleSampler,
                               adam_step, backward, evaluate_model, train)

from conftest import random_multiplex_graph
from oracles import ReferenceSampler
from test_patterns import graph_from_pairs


def score_table(pos, neg):
    """A one-column table with a unit user row (row 0), so the BPR scores
    of triple t are ``pos[t]`` and ``neg[t]``; returns bpr's arguments."""
    n = len(pos)
    table = np.concatenate([[1.0], pos, neg])[:, None]
    return table, np.zeros(n, dtype=np.int64), 1 + np.arange(n), 1 + n + np.arange(n)


class TestBprLoss:
    def test_zero_margin_is_ln2_per_triple(self):
        s = np.asarray([1.0, 2.0, -0.5])
        assert float(bpr(*score_table(s, s))) == pytest.approx(3 * np.log(2.0),
                                                               abs=1e-9)

    def test_saturated_margin_vanishes(self):
        assert float(bpr(*score_table([20.0], [0.0]))) < 1e-8

    def test_unit_margin_closed_form(self):
        assert float(bpr(*score_table([1.0], [0.0]))) == \
            pytest.approx(0.313262, abs=1e-6)

    def test_l2_term_and_its_gradient(self, tiny_setup):
        # the model's regularizer: l2 * squared norm of the batch's base rows
        # (a repeated id counts per occurrence) plus the extra tensors; here
        # the rows are all of base, so the ids are node ids
        _, _, model, params, _, cfg = tiny_setup
        p = params.as_vars()
        users, pos, neg = np.asarray([0, 1]), np.asarray([5, 1]), np.asarray([7, 8])
        w = p["chain0.user0"]
        reg = model._reg(p["base"], np.concatenate([users, pos, neg]), extra=(w,))
        ad.backward(reg)
        base = params.tensors["base"]
        hits = np.bincount(np.concatenate([users, pos, neg]),
                           minlength=base.shape[0])[:, None]
        want = cfg.l2 * (float((hits * base ** 2).sum()) + float((w.value ** 2).sum()))
        assert float(ad.val(reg)) == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(p["base"].grad, 2 * cfg.l2 * hits * base,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(w.grad, 2 * cfg.l2 * w.value, rtol=1e-12)

    def test_length_mismatch(self):
        table, users, pos, neg = score_table(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            bpr(table, users[:2], pos, neg)


def sampler_for(graph, ratio=0.75, seed=0, neg_cap=100):
    split = split_train_test(graph, ratio, seed=0)
    model = DualChannelModel(training_graph(graph, split),
                             RunConfig(dim=2, seed=0).validate())
    return TripleSampler(model, split, seed, neg_cap=neg_cap), model


def assert_same_batch(a, b):
    for name in ("users", "pos", "neg"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.chain_triples.keys() == b.chain_triples.keys()
    for i, triple in a.chain_triples.items():
        for x, y in zip(triple, b.chain_triples[i], strict=True):
            np.testing.assert_array_equal(x, y)


class TestNegativeSampling:
    @pytest.mark.parametrize("neg_cap", [1, 100])
    def test_two_items_forced_choice(self, neg_cap):
        # at cap 1 every hit falls back to the allowed items
        g = graph_from_pairs(1, 2, {"buy": [(0, 0)]}, target="buy")
        sampler, _ = sampler_for(g, ratio=0.9, neg_cap=neg_cap)  # rounds to the single edge
        batch = sampler.batch_for(np.zeros(25, dtype=np.int64))
        assert np.all(batch.neg == g.num_users + 1)

    def test_deterministic_sequence(self):
        g = random_multiplex_graph(4, 30, ("view", "buy"), 0.3, seed=0)
        idx = np.arange(5)
        assert_same_batch(sampler_for(g, seed=5)[0].batch_for(idx),
                          sampler_for(g, seed=5)[0].batch_for(idx))

    def test_never_returns_a_positive(self):
        # 10k items, 10 positives per user, 1e5 triples in one call
        rng = np.random.default_rng(2)
        pairs = [(u, int(i)) for u in range(3)
                 for i in rng.choice(10_000, size=10, replace=False)]
        g = graph_from_pairs(3, 10_000, {"buy": pairs}, target="buy")
        sampler, _ = sampler_for(g, ratio=0.5)
        keys = g.edge_keys("buy")
        users = rng.integers(3, size=100_000)
        neg = sampler._negatives(users, keys)
        assert neg.min() >= 3 and neg.max() < g.num_nodes
        assert not np.isin(users * g.num_nodes + neg, keys).any()

    def test_chain_context_uses_pattern_edges(self):
        # chain triples pair a pattern edge with a negative outside the
        # user's exact-pattern positives
        g = random_multiplex_graph(6, 40, ("view", "cart", "buy"), 0.2, seed=3)
        sampler, model = sampler_for(g)
        batch = sampler.batch_for(np.zeros(200, dtype=np.int64))
        assert batch.chain_triples
        for i, (cu, cp, cn) in batch.chain_triples.items():
            edges = set(zip(*(a.tolist() for a in
                              model.patterns.pairs(model.chains[i].pattern))))
            for u, p, n in zip(cu.tolist(), cp.tolist(), cn.tolist()):
                assert (u, p) in edges
                assert (u, n) not in edges

    @pytest.mark.parametrize("user_ids", [["x", "u0"], []])
    def test_exhausted_user_errors(self, user_ids):
        # user 1 holds both items under buy, so no negative exists for it
        g = graph_from_pairs(2, 2, {"view": [(0, 0)], "buy": [(0, 0), (1, 0), (1, 1)]},
                             target="buy")
        g.user_ids = user_ids
        split = DatasetSplit(train_edges=g.edges, test_edges=g.edges["buy"])
        model = DualChannelModel(training_graph(g, split), RunConfig(dim=2).validate())
        with pytest.raises(NegativeSamplingError, match=(
                f"user {'u0' if user_ids else 1} has 'buy' .* no negative item can be sampled")):
            TripleSampler(model, split, 0)

    def test_block_draws_equal_single_draws(self):
        # the premise of the block sampler: one integers(m, size=k) call gives
        # the k values of k single calls and leaves the same generator state
        block, single = stream_rng(7, "negatives"), stream_rng(7, "negatives")
        for m in (1, 2, 3, 500, 30_000, 2**31 - 1):
            for k in (1, 5, 64):
                np.testing.assert_array_equal(
                    block.integers(m, size=k), [single.integers(m) for _ in range(k)])
                assert block.integers(7) == single.integers(7)  # another bound between
            assert block.bit_generator.state == single.bit_generator.state


class TestMatchesPerTripleSampler:
    """The block sampler gives the per-triple loop's batches, batch for
    batch, and leaves its generator states."""

    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("graph_seed", range(6))
    def test_whole_epoch_equals_reference(self, graph_seed, batch):
        rels = ("view", "cart", "buy") if graph_seed % 2 else ("a", "b", "c", "buy")
        g = random_multiplex_graph(5 + graph_seed, 12 + 5 * graph_seed, rels,
                                   0.15 + 0.05 * graph_seed, seed=graph_seed)
        split = split_train_test(g, 0.8, seed=graph_seed)
        model = DualChannelModel(training_graph(g, split), RunConfig(dim=2).validate())
        got = TripleSampler(model, split, graph_seed)
        want = ReferenceSampler(model, split, graph_seed)
        for a, b in zip(got.epoch_batches(batch), want.epoch_batches(batch), strict=True):
            assert_same_batch(a, b)
        assert got.get_state() == want.get_state()

    @pytest.mark.parametrize("window", [1, 2, 5])
    @pytest.mark.parametrize("graph_seed", [1, 4])
    def test_any_search_window_gives_the_reference_epoch(self, graph_seed, window,
                                                         monkeypatch):
        # windows shorter than the batch: a hit re-tests only the window
        # after it, and the next window starts where the last one stopped
        monkeypatch.setattr(TripleSampler, "NEG_WINDOW", window)
        self.test_whole_epoch_equals_reference(graph_seed, 64)

    @pytest.mark.parametrize("window", [1, 3, 64])
    def test_dense_users_draw_past_the_first_block(self, window, monkeypatch):
        # 8 of 10 items are each user's positives, about 4 hits a triple, so
        # most triples take draws made after the first block
        monkeypatch.setattr(TripleSampler, "NEG_WINDOW", window)
        g = graph_from_pairs(2, 10, {"buy": [(u, i) for u in range(2)
                                             for i in range(u, u + 8)]}, target="buy")
        split = DatasetSplit(train_edges=g.edges, test_edges=g.edges["buy"])
        model = DualChannelModel(training_graph(g, split), RunConfig(dim=2).validate())
        got, want = TripleSampler(model, split, 4), ReferenceSampler(model, split, 4)
        users = np.random.default_rng(0).integers(2, size=300)
        neg = got._negatives(users, got.target_keys)
        np.testing.assert_array_equal(neg, want.negatives(users, want.target_pos))
        assert got.get_state() == want.get_state()

    def test_restored_sampler_continues_the_epoch(self):
        # the state after two batches, through JSON as a checkpoint holds it,
        # continues that epoch's batches and the next epoch's shuffle
        g = random_multiplex_graph(8, 30, ("view", "cart", "buy"), 0.3, seed=4)
        idx = [np.arange(i, i + 4) for i in range(0, 20, 4)]
        whole, _ = sampler_for(g, seed=3)
        want = [whole.batch_for(i) for i in idx] + list(whole.epoch_batches(4))
        first, _ = sampler_for(g, seed=3)
        for i in idx[:2]:
            first.batch_for(i)
        resumed, _ = sampler_for(g, seed=9)
        resumed.set_state(json.loads(json.dumps(first.get_state())))
        got = [resumed.batch_for(i) for i in idx[2:]] + list(resumed.epoch_batches(4))
        for a, b in zip(got, want[2:], strict=True):
            assert_same_batch(a, b)
        assert resumed.get_state() == whole.get_state()


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

    def test_nonfinite_gradient_changes_nothing(self):
        from chainrec.model import ModelParams
        params = ModelParams({"a": np.asarray([1.0, 2.0]), "b": np.asarray([3.0])})
        state = AdamState.init(params)
        adam_step(params, {"a": np.asarray([0.5, -1.0]), "b": np.asarray([2.0])},
                  state, lr=0.1)
        before = ({k: v.copy() for k, v in params.tensors.items()},
                  {k: v.copy() for k, v in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()}, state.t)
        with pytest.raises(TrainingAbort, match="'b'"):
            adam_step(params, {"a": np.asarray([1.0, 1.0]), "b": np.asarray([np.nan])},
                      state, lr=0.1)
        after = (params.tensors, state.m, state.v, state.t)
        for old, new in zip(before[:3], after[:3]):
            for k in old:
                np.testing.assert_array_equal(new[k], old[k])
        assert state.t == before[3] == 1

    def test_nonfinite_embeddings_abort_the_ranking(self, tiny_setup):
        graph, split, model, params, _, cfg = tiny_setup
        params.tensors["base"][0, 0] = np.nan
        with pytest.raises(TrainingAbort, match="non-finite final embeddings"):
            evaluate_model(model, params, graph, split, cfg.ks)


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


class TestFloat32:
    def test_one_step_keeps_float32_everywhere(self, tiny_setup, monkeypatch):
        graph, split, _, _, batch, cfg = tiny_setup
        cfg32 = RunConfig(**{**cfg.__dict__, "dtype": "float32"}).validate()
        model = DualChannelModel(training_graph(graph, split), cfg32)
        params = model.init_params(cfg32.seed)
        # record the kernels that build the row-sparse join and the sliced
        # product's vals-gradient, so the step is known to have run them
        seen = {}
        for name in ("scatter_add_rows", "spmm_grad_vals"):
            def spy(*args, _fn=getattr(backend, name), _name=name):
                out = _fn(*args)
                seen.setdefault(_name, set()).add(out.dtype)
                return out
            monkeypatch.setattr(backend, name, spy)
        grads, _ = backward(model, params, batch)
        assert seen == {"scatter_add_rows": {np.dtype(np.float32)},
                        "spmm_grad_vals": {np.dtype(np.float32)}}
        assert set(grads) == set(params.tensors)
        for name, g in grads.items():
            assert g.dtype == np.float32, name
        state = AdamState.init(params)
        adam_step(params, grads, state, cfg32.lr)
        for tensors in (params.tensors, state.m, state.v):
            for name, t in tensors.items():
                assert t.dtype == np.float32, name


    def test_default_config_trains_and_infers_in_float32(self, tiny_setup):
        graph, split, _, _, batch, cfg = tiny_setup
        assert RunConfig().dtype == "float32"
        default = RunConfig(**{k: v for k, v in cfg.__dict__.items()
                               if k != "dtype"}).validate()
        model = DualChannelModel(training_graph(graph, split), default)
        params = model.init_params(default.seed)
        grads, _ = backward(model, params, batch)
        state = AdamState.init(params)
        adam_step(params, grads, state, default.lr)
        for tensors in (grads, params.tensors, state.m, state.v):
            for name, t in tensors.items():
                assert t.dtype == np.float32, name
        assert model.final_embeddings(params).dtype == np.float32


class TestStepKernels:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_sparse_channels_run_two_products_per_layer(self, tiny_setup, layers,
                                                        monkeypatch):
        # the pattern union and the relations propagate as one stacked
        # operator: per layer one forward product and one x-adjoint, both
        # through backend.spmm, however many operators there are
        _, _, model, params, batch, cfg = tiny_setup
        model = DualChannelModel(model.graph, RunConfig(**{**cfg.__dict__,
                                                           "layers": layers}))
        calls = []

        def spy(*args, _fn=backend.spmm):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(backend, "spmm", spy)
        loss, _ = model.total_loss(params.as_vars(), batch)
        assert len(calls) == layers
        ad.backward(loss)
        assert model.stack.blocks == 1 + len(model.schema.relations) == 4
        assert len(calls) == 2 * layers


    def test_demo_step_records_at_most_170_tape_ops(self, tmp_path):
        # every channel sum and regularizer is one add_n node and every chain
        # step one split_rows_matmul node: 163 ops, against 207 when they
        # were chained adds, muls, gathers, transposes and concats
        cfg = RunConfig(seed=7702).validate()
        path = tmp_path / "demo.tsv"
        write_synthetic(cfg, path)
        graph = load_interactions(path, make_schema(cfg.relations, cfg.target))
        split = split_train_test(graph, cfg.ratio, cfg.seed)
        model = DualChannelModel(training_graph(graph, split), cfg)
        batch = next(TripleSampler(model, split, cfg.seed).epoch_batches(cfg.batch))
        loss, _ = model.total_loss(model.init_params(cfg.seed).as_vars(), batch)
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        assert sum(1 for node in nodes.values() if node._vjp is not None) <= 170


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
