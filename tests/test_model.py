"""Whole-model checks: the independent dense re-implementation, path
equality between ndarray and tape forwards, and term switch-off."""

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec.config import ConfigError, RunConfig
from chainrec.graph import MultiplexBipartiteGraph, split_train_test, training_graph
from chainrec.model import DualChannelModel, TrainBatch, TrainingAbort
from chainrec.sparse import receptive_fields
from chainrec.training import backward

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
                            tau=0.15, mu_scale=1.3, seed=seed,
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

    def test_var_and_ndarray_forwards_agree(self, tiny_setup):
        _, _, model, params, batch, _ = tiny_setup
        emb_nd = model.embeddings(params.tensors)
        emb_var = model.embeddings(params.as_vars())
        np.testing.assert_allclose(ad.val(emb_var["final"]), emb_nd["final"],
                                   rtol=1e-12, atol=1e-14)
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
    """embeddings(p, rows) against the full tables read at those rows."""

    KEYS = ("h_loc", "h_glo", "h_ebp", "e_r", "e_c", "final")

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("glo_norm", ["row", "sym"])
    def test_tables_and_gradients_match_the_full_tables(self, layers, glo_norm):
        # connected: the rows' fields cover every node with an edge
        graph = random_multiplex_graph(9, 14, ("view", "cart", "buy"), 0.3, seed=4)
        self._check(graph, np.asarray([0, 3, 4, 8, 9, 15, 22]), layers, glo_norm)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("glo_norm", ["row", "sym"])
    def test_strict_fields_on_a_two_component_graph(self, layers, glo_norm):
        # rows in the first component only, so every operator's widest
        # field R_0 leaves out the whole second component
        graph = _two_component_graph()
        rows = np.asarray([0, 3, 4, 8, 15, 22, 28])
        second = np.concatenate([np.arange(9, 15), np.arange(29, 37)])
        model = DualChannelModel(graph, RunConfig(layers=layers).validate())
        for struct in [model.patterns.struct] + [a.struct for a in model.rel_adj.values()]:
            widest = receptive_fields(struct, rows, layers)[0]
            assert not np.isin(second, widest).any()
        self._check(graph, rows, layers, glo_norm)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("separate_base", [False, True])
    def test_four_relations(self, layers, separate_base):
        # five stacked operators: the pattern union and four relations
        graph = random_multiplex_graph(9, 14, ("tips", "neutral", "dislike", "like"),
                                       0.3, seed=6)
        self._check(graph, np.asarray([0, 2, 5, 8, 9, 16, 22]), layers, "row",
                    separate_base=separate_base)

    def _check(self, graph, rows, layers, glo_norm, **overrides):
        cfg = RunConfig(dim=4, layers=layers, glo_norm=glo_norm, seed=2,
                        **overrides).validate()
        model = DualChannelModel(graph, cfg)
        params = model.init_params(cfg.seed)
        full = model.embeddings(params.tensors)
        part = model.embeddings(params.tensors, rows=rows)
        for key in self.KEYS:
            np.testing.assert_allclose(part[key], full[key][rows], rtol=1e-13,
                                       atol=1e-15, err_msg=key)
        # every layer of the sparse channels sums the same CSR rows in the
        # same order as the full product
        np.testing.assert_array_equal(part["h_loc"], full["h_loc"][rows])
        for r, table in part["rel"].items():
            np.testing.assert_array_equal(table, full["rel"][r][rows])

        coeff = np.random.default_rng(layers).normal(size=(rows.shape[0], cfg.dim))
        grads = []
        for use_rows in (False, True):
            pv = params.as_vars()
            emb = model.embeddings(pv, rows=rows if use_rows else None)
            final = emb["final"] if use_rows else ad.gather(emb["final"], rows)
            ad.backward(ad.asum(ad.mul(final, coeff)))
            grads.append({k: v.grad for k, v in pv.items()})
        for name, want in grads[0].items():
            if want is None:  # the encoders sit outside the embeddings
                assert grads[1][name] is None, name
                continue
            np.testing.assert_allclose(grads[1][name], want, rtol=1e-10,
                                       atol=1e-13, err_msg=name)


class TestTermSwitchOff:
    def test_mu_zero_leaves_only_chain_terms(self, tiny_setup):
        graph, split, model, params, batch, cfg = tiny_setup
        cfg_off = RunConfig(**{**cfg.__dict__, "mu1": 0.0, "mu2": 0.0}).validate()
        model_off = DualChannelModel(model.graph, cfg_off)
        # uniform encoder outputs -> normalized weights are exactly 1
        params.tensors["enc_chain.w"][:] = 0.0
        params.tensors["enc_chain.b"] = np.asarray(2.0)
        total, bd = model_off.total_loss(params.tensors, batch)
        emb = model_off.embeddings(params.tensors)
        by_hand = 0.0
        for i, (cu, cp, cn) in batch.chain_triples.items():
            table = emb["chain_steps"][i][-1]
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


class TestFeatureFlags:
    def _setup(self, **overrides):
        graph = random_multiplex_graph(5, 6, ("view", "cart", "buy"), 0.5, seed=4)
        cfg = RunConfig(dim=3, layers=2, seed=0, **overrides).validate()
        split = split_train_test(graph, 0.75, seed=0)
        model = DualChannelModel(training_graph(graph, split), cfg)
        params = model.init_params(0)
        batch = make_batch(model, split, np.random.default_rng(8), size=4)
        return model, params, batch

    def test_separate_base_triples_base_tables(self):
        model, params, batch = self._setup(separate_base=True)
        assert {"base_local", "base_global", "base_relation"} <= set(params.tensors)
        loss, _ = model.total_loss(params.tensors, batch)
        assert np.isfinite(float(loss))
        grads, _ = backward(model, params, batch)
        for key in ("base_local", "base_global", "base_relation"):
            assert np.any(grads[key] != 0.0), key

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

    @pytest.mark.parametrize("overrides", [{"layers": 0}, {"tau": 0.0},
                                           {"glo_norm": "x"}],
                             ids=["layers", "tau", "glo_norm"])
    def test_bad_value_raises_at_construction(self, overrides):
        graph = random_multiplex_graph(5, 6, ("view", "cart", "buy"), 0.5, seed=4)
        with pytest.raises(ConfigError):
            DualChannelModel(graph, RunConfig(**overrides))
