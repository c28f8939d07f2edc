"""Whole-model checks: the independent dense re-implementation, path
equality between ndarray and tape forwards, the inference pass's bit
identity to the row path and its memory peak, and term switch-off."""

import tracemalloc
from contextlib import nullcontext
from dataclasses import fields

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec import evaluation, patterns
from chainrec.config import ConfigError, RunConfig
from chainrec.graph import (MultiplexBipartiteGraph, load_interactions, make_schema,
                            split_train_test, training_graph)
from chainrec.model import DualChannelModel, TrainBatch, TrainingAbort, param_shapes
from chainrec.sparse import build_struct, receptive_fields, sym_norm_values
from chainrec.synth import write_synthetic
from chainrec.training import backward, train

import oracles
from conftest import make_batch, random_multiplex_graph


class TestDualImplementation:
    def test_total_loss_matches_straight_line_oracle(self, tiny_setup):
        graph, split, model, params, batch, cfg = tiny_setup
        got, _ = model.total_loss(params.tensors, batch)
        want = oracles.oracle_total_loss(model.graph, cfg, params.tensors, batch)
        assert abs(float(ad.val(got)) - want) < 1e-10 * max(1.0, abs(want))

    def test_oracle_agreement_across_seeds(self):
        for seed in (0, 1, 2):
            graph = random_multiplex_graph(5, 7, ("view", "cart", "buy"), 0.45,
                                           seed=seed)
            cfg = RunConfig(dim=3, layers=2, l2=5e-3, mu1=0.3, mu2=0.7,
                            tau=0.15, seed=seed,
                            dtype="float64").validate()
            split = split_train_test(graph, 0.7, seed=seed)
            model = DualChannelModel(training_graph(graph, split), cfg)
            params = model.init_params(seed)
            batch = make_batch(model, split, np.random.default_rng(seed + 50),
                               size=5)
            got, _ = model.total_loss(params.tensors, batch)
            want = oracles.oracle_total_loss(model.graph, cfg, params.tensors,
                                             batch)
            assert abs(float(ad.val(got)) - want) < 1e-10 * max(1.0, abs(want))

    def test_oracle_agreement_on_four_relations(self, tiny_setup_four):
        graph, split, model, params, batch, cfg = tiny_setup_four
        got, _ = model.total_loss(params.tensors, batch)
        want = oracles.oracle_total_loss(model.graph, cfg, params.tensors, batch)
        assert abs(float(ad.val(got)) - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("setup", ["tiny_setup", "tiny_setup_four"],
                             ids=["three", "four"])
    def test_collapsed_chain_channel_matches_the_step_by_step_oracle(self, setup,
                                                                     request):
        # e_c and the final table from one d x d map per side and starting
        # relation, against the oracle's sum of every chain's step tables
        _, _, model, params, _, cfg = request.getfixturevalue(setup)
        users = np.arange(model.num_users)
        got = model.embeddings(params.tensors, np.arange(model.n), users)
        want = oracles.oracle_embeddings(model.graph, cfg, params.tensors)
        for key, at in (("e_c", users), ("final", slice(None))):
            err = np.abs(got[key] - want[key][at]).max()
            assert err <= 1e-10 * np.abs(want[key]).max(), key

    def test_var_and_ndarray_forwards_agree(self, tiny_setup):
        _, _, model, params, batch, _ = tiny_setup
        every, users = np.arange(model.n), np.arange(model.num_users)
        emb_nd = model.embeddings(params.tensors, every, users)
        emb_var = model.embeddings(params.as_vars(), every, users)
        for key in ("e_c", "final"):
            np.testing.assert_allclose(ad.val(emb_var[key]), emb_nd[key],
                                       rtol=1e-12, atol=1e-14, err_msg=key)
        loss_nd, _ = model.total_loss(params.tensors, batch)
        loss_var, _ = model.total_loss(params.as_vars(), batch)
        assert float(loss_nd) == pytest.approx(float(ad.val(loss_var)), abs=1e-12)


def _two_component_graph():
    """Two random multiplex graphs side by side: users 0-8 with items 15-28,
    and users 9-14 with items 29-36. No edge joins the two."""
    rels = ("view", "cart", "buy")
    a = random_multiplex_graph(9, 14, rels, 0.3, seed=4)
    b = random_multiplex_graph(6, 8, rels, 0.35, seed=5)
    edges = {}
    for r in rels:
        (ua, va), (ub, vb) = a.edges[r], b.edges[r]
        # item node ids: users first, then A's items, then B's items
        edges[r] = (np.concatenate([ua, ub + 9]),
                    np.concatenate([va - 9 + 15, vb - 6 + 29]))
    return MultiplexBipartiteGraph(schema=a.schema, num_users=15, num_items=22,
                                   edges=edges,
                                   user_ids=[f"u{i}" for i in range(15)],
                                   item_ids=[f"i{i}" for i in range(22)])


class TestRowRestrictedEmbeddings:
    """embeddings(p, rows) against the tables at every row read at those
    rows, and the sparse channels against one-operator-at-a-time references
    on the union and on each relation's own CSR structure."""

    KEYS = ("h_loc", "h_glo", "h_ebp", "e_c", "final")

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_tables_and_gradients_match_the_full_tables(self, layers):
        # connected: the rows' fields cover every node with an edge
        graph = random_multiplex_graph(9, 14, ("view", "cart", "buy"), 0.3, seed=4)
        self._check(graph, np.asarray([0, 3, 4, 8, 9, 15, 22]), layers)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_strict_fields_on_a_two_component_graph(self, layers):
        # rows in the first component only, so every operator's widest
        # field R_0 leaves out the whole second component
        graph = _two_component_graph()
        rows = np.asarray([0, 3, 4, 8, 15, 22, 28])
        second = np.concatenate([np.arange(9, 15), np.arange(29, 37)])
        model = DualChannelModel(graph, RunConfig(layers=layers).validate())
        for struct in [model.patterns.struct] + [build_struct(model.n, *graph.edges[r])
                                                 for r in graph.schema.relations]:
            widest = receptive_fields(struct, rows, layers)[0]
            assert not np.isin(second, widest).any()
        self._check(graph, rows, layers)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_four_relations(self, layers):
        # five stacked operators: the pattern union and four relations
        graph = random_multiplex_graph(9, 14, ("tips", "neutral", "dislike", "like"),
                                       0.3, seed=6)
        self._check(graph, np.asarray([0, 2, 5, 8, 9, 16, 22]), layers)

    def _check(self, graph, rows, layers):
        cfg = RunConfig(dim=4, layers=layers, seed=2).validate()
        model = DualChannelModel(graph, cfg)
        params = model.init_params(cfg.seed)
        p = params.tensors
        # e_c is formed at the user rows only
        users = rows[rows < model.num_users]
        full = model.embeddings(p, np.arange(model.n), users)
        part = model.embeddings(p, rows, np.searchsorted(rows, users))
        for key in self.KEYS:
            want = full[key] if key == "e_c" else full[key][rows]
            np.testing.assert_allclose(part[key], want, rtol=1e-13,
                                       atol=1e-15, err_msg=key)
        # every layer of the sparse channels sums the same CSR rows in the
        # same order as the full one-operator products
        vals = patterns.local_adjacency(model.patterns, p["local_logits"])
        h_loc = patterns.layer_mean(oracles.propagate_layers(model.patterns.struct, vals,
                                                             p["base"], layers))
        np.testing.assert_array_equal(part["h_loc"], h_loc[rows])
        for r, table in part["rel"].items():
            struct = build_struct(model.n, *graph.edges[r])
            rel = oracles.lightgcn_propagate(struct, sym_norm_values(struct, model.dtype),
                                             p["base"], layers)
            np.testing.assert_array_equal(table, rel[rows])
        np.testing.assert_array_equal(part["final"],
                                      model.final_embeddings(params)[rows])

        coeff = np.random.default_rng(layers).normal(size=(rows.shape[0], cfg.dim))
        grads = []
        for use_rows in (False, True):
            pv = params.as_vars()
            emb = model.embeddings(pv, rows if use_rows else np.arange(model.n), np.arange(0))
            final = emb["final"] if use_rows else ad.gather(emb["final"], rows)
            ad.backward(ad.asum(ad.mul(final, coeff)))
            grads.append({k: v.grad for k, v in pv.items()})
        for name, want in grads[0].items():
            if want is None:  # the encoders sit outside the embeddings
                assert grads[1][name] is None, name
                continue
            np.testing.assert_allclose(grads[1][name], want, rtol=1e-10,
                                       atol=1e-13, err_msg=name)


class TestInferencePath:
    """final_embeddings, the untaped inference pass, is bit-identical to the
    row path at every row, whatever the schema and dtype."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("rels,order,layers", [
        (("view", "cart", "buy"), None, 2),
        (("tips", "neutral", "dislike", "like"), None, 2),
        (("buy",), None, 2),
        # every chain starts at the target, the last relation in schema order
        (("view", "cart", "buy"), ("buy", "view", "cart"), 2),
        # chains start at view and at the target
        (("view", "cart", "buy"), ("view", "buy", "cart"), 2),
        (("view", "cart", "buy"), None, 1),
        (("view", "cart", "buy"), None, 3),
    ], ids=["three", "four", "single", "target-first", "target-second",
            "one-layer", "three-layers"])
    def test_equals_the_row_path_at_every_row(self, rels, order, layers, dtype):
        graph = random_multiplex_graph(9, 14, rels, 0.3, seed=len(rels), order=order)
        cfg = RunConfig(dim=4, layers=layers, seed=1, relations=rels, target=rels[-1],
                        dtype=dtype).validate()
        model = DualChannelModel(graph, cfg)
        params = model.init_params(cfg.seed)
        rng = np.random.default_rng(5)
        # off the initial logits and biases, so no channel is uniform
        for name, t in params.tensors.items():
            params.tensors[name] = (t + rng.normal(0, 0.1, size=t.shape)).astype(t.dtype)
        before = params.copy().tensors
        got = model.final_embeddings(params)
        want = model.embeddings(params.tensors, np.arange(model.n),
                                np.arange(model.num_users))
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want["final"])
        # the in-place sums write only into tables the pass made
        for name, t in before.items():
            np.testing.assert_array_equal(params.tensors[name], t, err_msg=name)
        if len(rels) == 1:  # no chains: e_c is zeros
            assert not model.chains and not np.any(want["e_c"])


def _synth_inference(tmp_path_factory, rels):
    """A float32 model of d 256 on a synth graph of about 4.9k nodes: one
    n x d table is 4.8 MiB, as on the retail-like graph well above the
    pass's fixed scratch (the ranking's (chunk, G) group maxima: 1 MiB)."""
    cfg = RunConfig(synth_users=600, synth_items=8000, synth_clusters=40,
                    dim=256, seed=0, relations=rels, target=rels[-1]).validate()
    data = tmp_path_factory.mktemp("synth") / "synth.tsv"
    write_synthetic(cfg, data)
    graph = load_interactions(data, make_schema(cfg.relations, cfg.target))
    split = split_train_test(graph, cfg.ratio, cfg.seed)
    model = DualChannelModel(training_graph(graph, split), cfg)
    return model, model.init_params(cfg.seed), split


@pytest.fixture(scope="module")
def synth_inference(tmp_path_factory):
    return _synth_inference(tmp_path_factory, ("view", "cart", "buy"))


@pytest.fixture(scope="module")
def synth_inference_four(tmp_path_factory):
    return _synth_inference(tmp_path_factory, ("tips", "neutral", "dislike", "like"))


def _traced_peak(fn, *args, **kwargs):
    """Bytes allocated by ``fn`` at its peak, above what was live before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestInferenceMemory:
    """The inference pass holds only the tables it still needs: 3 of n x d
    in the forward on any schema (the running sum and one block's two
    layers) plus its d x d chain maps, and one chunk's float32 scores and
    screen maxima plus 2 tables in the ranking, which upcasts no whole
    table."""

    @pytest.mark.parametrize("setup", ["synth_inference", "synth_inference_four"],
                             ids=["three", "four"])
    def test_forward_peak_is_at_most_3_tables_and_the_chain_maps(self, setup, request):
        # measured 3.26 tables on three relations and 3.68 on four. The
        # slack is what the pass holds beside its tables, at its peak in the
        # first relation's block: every chain's path maps, and that
        # relation's K maps and scaled identity. At d 256 one d x d map is
        # 5% of a table here, and on four relations they are 0.7 of one
        model, params, _ = request.getfixturevalue(setup)
        table = model.n * model.cfg.dim * np.dtype(model.dtype).itemsize
        model.final_embeddings(params)  # warm-up
        assert _traced_peak(model.final_embeddings, params) <= 3.75 * table

    def test_ranking_peak_is_one_chunk_and_2_tables(self, synth_inference):
        # a chunk: its float32 scores and the screen's two float32 (chunk, G)
        # maxima tables, the bytes the default chunk is sized by
        model, params, split = synth_inference
        e_final = model.final_embeddings(params)
        items = model.graph.num_items
        per_user = 4 * items + 8 * min(evaluation.SCREEN_GROUPS, items)
        chunk = evaluation.CHUNK_BYTES // per_user
        n_users = np.unique(split.test_edges[0]).shape[0]
        peak = _traced_peak(evaluation.evaluate, e_final, model.graph, split)
        assert peak <= min(chunk, n_users) * per_user + 2 * e_final.nbytes


class TestLazyDiag:
    """Only a training step's later layers read ``stack.diag``: an
    evaluation-only run never builds it, and a step builds it on its own."""

    def test_evaluation_leaves_diag_unbuilt_and_training_builds_it(self, tiny_setup):
        graph, split, model, params, batch, cfg = tiny_setup
        e_final = model.final_embeddings(params)
        evaluation.evaluate(e_final, model.graph, split, ks=cfg.ks)
        assert "diag" not in model.stack.__dict__
        got, _ = backward(model, params, batch)
        assert "diag" in model.stack.__dict__
        fresh = DualChannelModel(model.graph, cfg)
        fresh.stack.diag  # built before the step this time
        want, _ = backward(fresh, params, batch)
        for name, g in want.items():
            np.testing.assert_array_equal(got[name], g, err_msg=name)


class TestTermSwitchOff:
    def test_mu_zero_leaves_only_chain_terms(self, tiny_setup):
        graph, split, model, params, batch, cfg = tiny_setup
        cfg_off = RunConfig(**{**cfg.__dict__, "mu1": 0.0, "mu2": 0.0}).validate()
        model_off = DualChannelModel(model.graph, cfg_off)
        # uniform encoder outputs -> normalized weights are exactly 1
        params.tensors["enc_chain.w"][:] = 0.0
        params.tensors["enc_chain.b"] = np.asarray(2.0)
        total, bd = model_off.total_loss(params.tensors, batch)
        emb = model_off.embeddings(params.tensors, np.arange(model_off.n), np.arange(0))
        nu = model_off.num_users
        by_hand = 0.0
        for i, (cu, cp, cn) in batch.chain_triples.items():
            # the chain's last step: its first relation's table times Πᵀ
            first = emb["rel"][model_off.chains[i].relations[0]]
            pi_u, pi_v = (maps[-1] for maps in emb["paths"][i])
            table = np.vstack([first[:nu] @ pi_u.T, first[nu:] @ pi_v.T])
            yu = table[cu]
            reg_rows = np.concatenate([cu, cp, cn])
            reg = float((params.tensors["base"][reg_rows] ** 2).sum())
            for j in range(model_off.chains[i].num_steps):
                reg += float((params.tensors[f"chain{i}.user{j}"] ** 2).sum())
                reg += float((params.tensors[f"chain{i}.item{j}"] ** 2).sum())
            core = float(np.logaddexp(0.0, np.einsum("ij,ij->i", yu, table[cn])
                                      - np.einsum("ij,ij->i", yu, table[cp])).sum())
            by_hand += core + cfg.l2 * reg
        assert float(total) == pytest.approx(by_hand, rel=1e-12)
        assert bd["rcl"] == 0.0 or cfg_off.mu1 == 0.0

    def test_no_terms_at_all_is_zero(self, tiny_setup):
        _, _, model, params, batch, cfg = tiny_setup
        cfg_off = RunConfig(**{**cfg.__dict__, "mu1": 0.0, "mu2": 0.0}).validate()
        model_off = DualChannelModel(model.graph, cfg_off)
        empty = TrainBatch(users=batch.users, pos=batch.pos, neg=batch.neg,
                           chain_triples={})
        total, _ = model_off.total_loss(params.tensors, empty)
        assert float(total) == 0.0

    def test_mu1_zero_kills_relation_encoder_gradient(self, tiny_setup):
        graph, split, model, params, batch, cfg = tiny_setup
        cfg_off = RunConfig(**{**cfg.__dict__, "mu1": 0.0}).validate()
        model_off = DualChannelModel(model.graph, cfg_off)
        grads, _ = backward(model_off, params, batch)
        np.testing.assert_array_equal(grads["enc_rel.w"], 0.0)
        np.testing.assert_array_equal(grads["enc_rel.b"], 0.0)
        # the chain encoder still learns (its weights gate the chain losses)
        assert np.any(grads["enc_chain.w"] != 0.0)

    def test_nan_parameter_aborts_with_term_name(self, tiny_setup):
        _, _, model, params, batch, _ = tiny_setup
        params.tensors["base"][0, 0] = np.nan
        # the NaN reaches the softplus, which warns before the loss check aborts
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingAbort):
            model.total_loss(params.tensors, batch)

    @pytest.mark.parametrize("name, term", [("enc_rel.w", "rcl"),
                                            ("enc_chain.w", "chain_bpr"),
                                            ("base", "final_bpr")])
    def test_nan_abort_names_the_term_it_reaches(self, tiny_setup, name, term):
        # the terms are checked before their sum, which every NaN reaches. A
        # NaN in base reaches every term (the final one is checked first) and
        # a softplus, which warns
        _, _, model, params, batch, _ = tiny_setup
        params.tensors[name][0] = np.nan
        with (pytest.warns(RuntimeWarning) if name == "base" else nullcontext()), \
                pytest.raises(TrainingAbort, match=f"non-finite loss term '{term}'"):
            model.total_loss(params.tensors, batch)


class TestSingleRelation:
    """A one-relation schema has no auxiliary and no chain, so both weighted
    families are empty: they add nothing and read 0 in the breakdown."""

    @staticmethod
    def setup_run():
        graph = random_multiplex_graph(5, 7, ("buy",), 0.5, seed=2)
        cfg = RunConfig(dim=4, layers=2, mu2=0.5, batch=4, epochs=1,
                        relations=("buy",), target="buy").validate()
        return graph, split_train_test(graph, 0.75, seed=0), cfg

    def test_objective_is_mu2_times_the_final_loss(self):
        graph, split, cfg = self.setup_run()
        model = DualChannelModel(training_graph(graph, split), cfg)
        assert model.chains == []
        batch = make_batch(model, split, np.random.default_rng(1), size=4)
        total, bd = model.total_loss(model.init_params(cfg.seed).as_vars(), batch)
        assert bd["chain_bpr"] == bd["rcl"] == 0.0
        assert bd["final_bpr"] > 0.0 and bd["total"] == 0.5 * bd["final_bpr"]
        # the empty families' zeros keep the float32 objective float32
        assert total.value.dtype == np.float32

    def test_one_epoch_trains(self):
        graph, split, cfg = self.setup_run()
        result = train(graph, split, cfg)
        loss, = [r for r in result.history if r["type"] == "loss"]
        assert loss["chain_bpr"] == loss["rcl"] == 0.0
        assert np.isfinite(loss["total"]) and result.last_epoch == 1


class TestFeatureFlags:
    def test_chain_order_override_reorders_chains(self):
        # the schema's order may lead with the target; the loss still
        # matches the oracle, which sequences chains by the same order
        graph = random_multiplex_graph(5, 6, ("view", "cart", "buy"), 0.5, seed=4,
                                       order=("buy", "cart", "view"))
        cfg = RunConfig(dim=3, layers=2, seed=0, dtype="float64").validate()
        split = split_train_test(graph, 0.75, seed=0)
        model = DualChannelModel(training_graph(graph, split), cfg)
        labels = [c.label() for c in model.chains]
        assert labels == ["buy->view", "buy->cart", "buy->cart->view"]
        params = model.init_params(0)
        batch = make_batch(model, split, np.random.default_rng(8), size=4)
        assert batch.chain_triples
        got, _ = model.total_loss(params.tensors, batch)
        want = oracles.oracle_total_loss(model.graph, cfg, params.tensors, batch)
        assert abs(float(ad.val(got)) - want) < 1e-10 * max(1.0, abs(want))


class TestConfigBoundary:
    """The model validates its config once, at construction: a library
    caller that builds a RunConfig directly gets the CLI's ConfigError
    before any numeric code runs, and the channels check nothing again."""

    @pytest.mark.parametrize("overrides", [
        {"layers": 0}, {"tau": 0.0}, {"seed": -1}, {"tau": float("nan")},
        {"lr": float("inf")}, {"l2": float("nan")}, {"synth_zipf": float("inf")},
        {"patience": 0}, {"patience": -3}, {"ks": (10, 10, 5)}],
        ids=["layers", "tau", "seed", "tau-nan", "lr-inf", "l2-nan", "synth_zipf-inf",
             "patience", "patience-negative", "ks-repeated"])
    def test_bad_value_raises_at_construction(self, overrides):
        graph = random_multiplex_graph(5, 6, ("view", "cart", "buy"), 0.5, seed=4)
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            DualChannelModel(graph, RunConfig(**overrides))

    def test_retired_variants_are_constants_not_keys(self):
        # one base table and row-normalized global similarity are the only
        # forward pass; the constants hold the values perfbench assumes
        names = {f.name for f in fields(RunConfig)}
        assert not names & {"glo_norm", "separate_base", "neg_cap", "mu_scale",
                            "leaky_slope"}
        assert RunConfig.glo_norm == "row" and RunConfig.separate_base is False
        assert RunConfig.neg_cap == 100
        model = DualChannelModel(random_multiplex_graph(5, 6, ("view", "cart", "buy"),
                                                        0.5, seed=4), RunConfig(dim=3))
        shapes = param_shapes(model.schema, model.cfg, model.n)
        assert [k for k in shapes if k.startswith("base")] == ["base"]
