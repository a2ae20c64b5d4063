"""Tests for the adversarial training loop, config, and checkpointing."""

import dataclasses
import errno
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from sgembed import (
    CheckpointError,
    Sign,
    SignedGraph,
    TrainConfig,
    TrainingDiverged,
    balance_audit,
    build_bfs_tree,
    checkpoint,
    random_connected_graph,
    relevance_table,
    edge_batch,
    resume,
    synth_balanced,
    train,
)
from sgembed import discriminator, generator, trainer
from sgembed.generator import init_embeddings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402

P, N = Sign.POSITIVE, Sign.NEGATIVE


def score(emb, u, v, sign):
    """D's score sigma(sign * d_u . d_v), as exp of a one-edge objective."""
    return math.exp(oracles.objective(emb, edge_batch([u], [v], [sign], [True])))

SMALL = TrainConfig(
    embedding_dim=4,
    learning_rate=0.1,
    outer_epochs=2,
    d_epochs=2,
    g_epochs=2,
    samples_per_center=4,
    batch_size=8,
    seed=3,
)


class TestTrainConfig:
    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert cfg.embedding_dim == 50
        assert cfg.learning_rate == 0.001
        assert cfg.outer_epochs == 10
        assert cfg.d_epochs == 10
        assert cfg.g_epochs == 10
        assert cfg.samples_per_center == 20
        assert cfg.batch_size == 32
        assert cfg.reward_clamp == (-20.0, 0.0)
        assert cfg.max_tree_depth is None

    def test_file_round_trip(self, tmp_path):
        cfg = TrainConfig(seed=9, max_tree_depth=4, reward_clamp=(-5.0, 0.0))
        path = tmp_path / "train.cfg"
        oracles.config_to_file(cfg, path)
        assert TrainConfig.from_file(path) == cfg

    def test_readme_sample_config_is_the_defaults_with_seed_7(self, tmp_path):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text().split("\n## Command line\n")[1]
        section = section.split("\n## ")[0]
        blocks = re.findall(r"^```(\w*)\n(.*?)^```", section, re.M | re.S)
        [sample] = [body for lang, body in blocks if not lang]
        path = tmp_path / "sample.cfg"
        path.write_text(sample)
        assert TrainConfig.from_file(path) == TrainConfig(seed=7)

    def test_dict_round_trip(self):
        cfg = TrainConfig(seed=9, reward_clamp=(-5.0, 0.0))
        # a JSON checkpoint header holds the clamp as a list
        as_json = json.loads(json.dumps(cfg.to_dict()))
        assert TrainConfig.from_dict(as_json) == cfg
        assert TrainConfig.from_dict({"seed": 9}) == TrainConfig(seed=9)

    def test_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "train.cfg"
        oracles.config_to_file(TrainConfig(learning_rate=0.5), path)
        cfg = TrainConfig.from_file(path).merged(
            {"learning_rate": "0.25", "batch_size": "16"}
        )
        assert cfg.learning_rate == 0.25
        assert cfg.batch_size == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig().merged({"momentum": "0.9"})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("embedding_dim", "abc"),
            ("reward_clamp", "1"),
            ("learning_rate", "fast"),
            ("max_tree_depth", "2.5"),
        ],
    )
    def test_bad_value_names_its_key_and_line(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=f"config key {key}: bad value"):
            TrainConfig().merged({key: value})
        path = tmp_path / "train.cfg"
        path.write_text(f"# comment\nseed=1\n{key}={value}\n")
        with pytest.raises(
            ValueError, match=rf"train\.cfg:3: config key {key}: bad value"
        ):
            TrainConfig.from_file(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("embedding_dim", "0", "embedding_dim must be positive"),
            ("batch_size", "-2", "batch_size must be positive"),
            ("max_tree_depth", "0", "max_tree_depth must be positive"),
            ("reward_clamp", "0,-1", "reward_clamp low bound exceeds"),
        ],
    )
    def test_invalid_value_in_a_file_names_its_line(
        self, tmp_path, key, value, message
    ):
        path = tmp_path / "train.cfg"
        path.write_text(f"seed=1\n\n{key}={value}\n")
        with pytest.raises(ValueError, match=rf"train\.cfg:3: {message}"):
            TrainConfig.from_file(path)

    def test_unknown_key_in_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("seed=1\nmomentum=0.9\n")
        with pytest.raises(ValueError, match=r"train\.cfg:2: unknown config key"):
            TrainConfig.from_file(path)

    def test_non_utf8_line_in_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_bytes(b"# comment\r\nseed=1\r\nlearning_rate=0.\xc35\r\n")
        with pytest.raises(ValueError, match=r"train\.cfg:3: not UTF-8"):
            TrainConfig.from_file(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(reward_clamp=(0.0, -1.0))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("learning_rate", "nan", "learning_rate must be positive and finite"),
            ("learning_rate", "inf", "learning_rate must be positive and finite"),
            ("reward_clamp", "nan,0", "reward_clamp bounds must not be NaN"),
            ("reward_clamp", "-20,nan", "reward_clamp bounds must not be NaN"),
            ("reward_clamp", "-inf,-inf", "reward_clamp admits no finite reward"),
            ("reward_clamp", "inf,inf", "reward_clamp admits no finite reward"),
            ("seed", "-1", "seed must be non-negative, got -1"),
        ],
    )
    def test_non_finite_or_negative_value_names_its_key_and_line(
        self, tmp_path, key, value, message
    ):
        with pytest.raises(ValueError, match=message):
            TrainConfig().merged({key: value})
        path = tmp_path / "train.cfg"
        path.write_text(f"seed=1\n{key}={value}\n")
        with pytest.raises(ValueError, match=rf"train\.cfg:2: {message}"):
            TrainConfig.from_file(path)

    def test_infinite_reward_clamp_bound_means_no_clamp(self, tmp_path):
        cfg = TrainConfig().merged({"reward_clamp": "-inf,0"})
        assert cfg.reward_clamp == (-math.inf, 0.0)
        path = tmp_path / "train.cfg"
        path.write_text("reward_clamp=-inf,inf\n")
        assert TrainConfig.from_file(path).reward_clamp == (-math.inf, math.inf)

    def test_every_constructor_checks(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            dataclasses.replace(TrainConfig(), seed=-3)
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            TrainConfig.from_dict({"learning_rate": float("nan")})


class TestTrain:
    def test_zero_epochs_returns_untouched_init(self):
        g = random_connected_graph(6, 8, 0)
        cfg = dataclasses.replace(SMALL, outer_epochs=0)
        theta_j, theta_d, report = train(g, cfg)
        j_ss, d_ss, _ = np.random.SeedSequence(cfg.seed).spawn(3)
        assert theta_j.values.tobytes() == init_embeddings(
            6, cfg.embedding_dim, j_ss
        ).values.tobytes()
        assert theta_d.values.tobytes() == init_embeddings(
            6, cfg.embedding_dim, d_ss
        ).values.tobytes()
        assert report.epochs == []

    def test_deterministic_across_runs(self):
        g = random_connected_graph(8, 12, 1)
        a = train(g, SMALL)
        b = train(g, SMALL)
        assert a[0].values.tobytes() == b[0].values.tobytes()
        assert a[1].values.tobytes() == b[1].values.tobytes()
        assert a[2].theta_j_checksum == b[2].theta_j_checksum
        assert a[2].theta_d_checksum == b[2].theta_d_checksum

    def test_different_seed_differs(self):
        g = random_connected_graph(8, 12, 1)
        a = train(g, SMALL)
        b = train(g, dataclasses.replace(SMALL, seed=SMALL.seed + 1))
        assert a[1].values.tobytes() != b[1].values.tobytes()

    def test_report_instrumentation(self):
        g = random_connected_graph(7, 9, 2)
        _, _, report = train(g, SMALL)
        assert len(report.epochs) == SMALL.outer_epochs
        for ep in report.epochs:
            # balanced batches: one fake per true sample, all centers visited
            assert ep.true_samples == ep.fake_samples
            expected = SMALL.d_epochs * 7 * SMALL.samples_per_center
            assert ep.true_samples == expected
            assert ep.true_positive + ep.true_negative == ep.true_samples
            assert np.isfinite(ep.d_loss)
            assert np.isfinite(ep.g_reward)
            assert ep.g_reward <= 0.0

    def test_balanced_sign_draws_in_report(self):
        # every node has neighbors of both signs, so the fair sign coin
        # keeps true positive/negative draws near 50/50
        g = synth_balanced(2, 6, 1.0, 1.0, 0.0, seed=0)
        cfg = dataclasses.replace(SMALL, samples_per_center=20)
        _, _, report = train(g, cfg)
        for ep in report.epochs:
            frac = ep.true_positive / ep.true_samples
            sigma = (0.25 / ep.true_samples) ** 0.5
            assert abs(frac - 0.5) < 4 * sigma

    def test_isolated_nodes_are_skipped(self):
        g = SignedGraph.from_edges(4, [(0, 1, P)])  # nodes 2, 3 isolated
        theta_j, theta_d, report = train(g, SMALL)
        assert np.isfinite(theta_j.values).all()
        ep = report.epochs[0]
        assert ep.true_samples == SMALL.d_epochs * 2 * SMALL.samples_per_center

    def test_single_edge_discriminator_sanity(self):
        # On the degenerate single-positive-edge graph the fake edge
        # coincides with the true one, so with balanced batches the
        # discriminator's fixed point is capped near 0.75 (and falls to
        # 0.5 once the generator polarizes). A discriminator-dominant
        # schedule must still lift the true edge's score well above
        # chance and prefer the true sign.
        g = SignedGraph.from_edges(2, [(0, 1, P)])
        cfg = TrainConfig(
            embedding_dim=8,
            learning_rate=0.5,
            outer_epochs=10,
            d_epochs=30,
            g_epochs=1,
            samples_per_center=20,
            batch_size=32,
            seed=0,
        )
        _, theta_d, _ = train(g, cfg)
        assert score(theta_d, 0, 1, P) > 0.7
        assert score(theta_d, 0, 1, P) > score(theta_d, 0, 1, N)

    def test_balanced_graph_learns_balance_direction(self):
        g = synth_balanced(2, 25, 0.4, 0.3, 0.0, seed=2)
        cfg = TrainConfig(
            embedding_dim=8,
            learning_rate=0.3,
            outer_epochs=4,
            d_epochs=3,
            g_epochs=3,
            samples_per_center=6,
            batch_size=32,
            seed=1,
        )
        _, theta_d, _ = train(g, cfg)
        audit = balance_audit(theta_d, g, sample_fraction=0.4, seed=0)
        assert audit.aped < audit.aned

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            train(SignedGraph.from_edges(0, []), SMALL)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="graph has no edges"):
            train(SignedGraph.from_edges(3, []), SMALL)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        g = random_connected_graph(6, 8, 0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        train(g, SMALL, checkpoint_path=p1)
        state = resume(p1)
        checkpoint(state, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_byte_detected(self, tmp_path):
        g = random_connected_graph(6, 8, 0)
        path = tmp_path / "a.ckpt"
        train(g, SMALL, checkpoint_path=path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            resume(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            resume(tmp_path / "nope.ckpt")

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        import hashlib

        payload = b"NOTMAGIC" + b"\x00" * 32
        path.write_bytes(
            payload + hashlib.blake2b(payload, digest_size=8).digest()
        )
        with pytest.raises(CheckpointError, match="magic"):
            resume(path)

    def test_resume_equals_uninterrupted_run(self, tmp_path):
        g = random_connected_graph(8, 12, 3)
        full_cfg = dataclasses.replace(SMALL, outer_epochs=4)
        theta_j_full, theta_d_full, _ = train(g, full_cfg)

        half_cfg = dataclasses.replace(SMALL, outer_epochs=2)
        path = tmp_path / "half.ckpt"
        train(g, half_cfg, checkpoint_path=path)
        state = resume(path)
        assert state.epochs_done == 2
        theta_j_res, theta_d_res, _ = train(
            g, full_cfg, resume_from=state
        )
        assert theta_j_res.values.tobytes() == theta_j_full.values.tobytes()
        assert theta_d_res.values.tobytes() == theta_d_full.values.tobytes()

    def test_resume_refuses_another_graph(self, tmp_path):
        path = tmp_path / "a.ckpt"
        train(random_connected_graph(30, 40, 0), SMALL, checkpoint_path=path)
        state = resume(path)
        for other in (
            random_connected_graph(20, 30, 0),  # fewer nodes
            random_connected_graph(30, 40, 1),  # same nodes, other edges
        ):
            with pytest.raises(ValueError, match="graph"):
                train(other, SMALL, resume_from=state)

    def test_resume_accepts_reordered_edges(self, tmp_path):
        g = random_connected_graph(8, 12, 3)
        path = tmp_path / "a.ckpt"
        train(g, SMALL, checkpoint_path=path)
        shuffled = SignedGraph.from_edges(8, g.edge_triples()[::-1])
        train(shuffled, dataclasses.replace(SMALL, outer_epochs=3),
              resume_from=resume(path))

    def test_version_one_checkpoint_refused(self, tmp_path):
        import hashlib
        import struct

        path = tmp_path / "a.ckpt"
        train(random_connected_graph(6, 8, 0), SMALL, checkpoint_path=path)
        payload = bytearray(path.read_bytes()[:-8])
        struct.pack_into("<H", payload, 8, 1)
        path.write_bytes(
            bytes(payload) + hashlib.blake2b(payload, digest_size=8).digest()
        )
        with pytest.raises(CheckpointError, match="version 1"):
            resume(path)

    def test_resume_config_must_match(self, tmp_path):
        g = random_connected_graph(6, 8, 0)
        path = tmp_path / "a.ckpt"
        train(g, SMALL, checkpoint_path=path)
        state = resume(path)
        bad = dataclasses.replace(SMALL, learning_rate=0.9, outer_epochs=5)
        with pytest.raises(ValueError, match="outer_epochs"):
            train(g, bad, resume_from=state)

    def test_resume_below_epochs_done_rejected(self, tmp_path):
        g = random_connected_graph(6, 8, 0)
        done = dataclasses.replace(SMALL, outer_epochs=3)
        path = tmp_path / "a.ckpt"
        train(g, done, checkpoint_path=path)
        state = resume(path)
        out = tmp_path / "b.ckpt"
        fewer = dataclasses.replace(SMALL, outer_epochs=1)
        with pytest.raises(
            ValueError, match="outer_epochs 1 is below the 3 epochs"
        ):
            train(g, fewer, resume_from=state, checkpoint_path=out)
        assert not out.exists()
        # equal counts stay a no-op
        theta_j, _, report = train(
            g, done, resume_from=state, checkpoint_path=out
        )
        assert report.epochs == []
        assert theta_j.values.tobytes() == state.theta_j.values.tobytes()
        assert out.read_bytes() == path.read_bytes()

    def test_poisoned_generator_table_aborts(self, tmp_path):
        g = random_connected_graph(6, 8, 1)
        path = tmp_path / "good.ckpt"
        train(g, SMALL, checkpoint_path=path)
        state = resume(path)
        state.config = dataclasses.replace(state.config, outer_epochs=4)
        state.theta_j.values[0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
            train(g, resume_from=state)

    def test_nan_step_probability_aborts(self, monkeypatch):
        from sgembed import generator

        def poisoned_table(emb, tree, edge_dots=None):
            table = relevance_table(emb, tree, edge_dots)
            table.pos[0] = np.nan
            return table

        monkeypatch.setattr(generator, "relevance_table", poisoned_table)
        g = random_connected_graph(6, 8, 1)
        with pytest.raises(TrainingDiverged) as exc:
            train(g, SMALL)
        assert isinstance(exc.value.__cause__, FloatingPointError)
        assert exc.value.state.epochs_done == 0

    def test_divergence_leaves_the_last_completed_epoch(
        self, tmp_path, monkeypatch
    ):
        g = random_connected_graph(6, 8, 1)
        path = tmp_path / "run.ckpt"
        written = []
        update = discriminator.update

        def counted(state, to):
            checkpoint(state, to)
            written.append(state.epochs_done)

        def poisoned(emb, batch, learning_rate):
            if written[-1] == 2:  # epoch 2 is running
                emb.values[batch["u"][0]] = np.inf
            return update(emb, batch, learning_rate)

        monkeypatch.setattr(trainer, "checkpoint", counted)
        monkeypatch.setattr(discriminator, "update", poisoned)
        longer = dataclasses.replace(SMALL, outer_epochs=4)
        with pytest.raises(
            TrainingDiverged, match="^epoch 2: discriminator update"
        ) as exc:
            train(g, longer, checkpoint_path=path)
        assert written == [0, 1, 2]
        assert resume(path).epochs_done == exc.value.state.epochs_done == 2
        checkpoint(exc.value.state, tmp_path / "state.ckpt")
        assert path.read_bytes() == (tmp_path / "state.ckpt").read_bytes()

    def test_non_finite_resumed_state_writes_no_checkpoint(self, tmp_path):
        g = random_connected_graph(6, 8, 1)
        path = tmp_path / "good.ckpt"
        train(g, SMALL, checkpoint_path=path)
        state = resume(path)
        state.theta_d.values[0, 0] = np.nan
        out = tmp_path / "abort.ckpt"
        longer = dataclasses.replace(SMALL, outer_epochs=4)
        with pytest.raises(TrainingDiverged, match="theta_d row 0") as exc:
            train(g, longer, resume_from=state, checkpoint_path=out)
        assert not out.exists()
        assert exc.value.state.epochs_done == SMALL.outer_epochs

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_diverges_naming_epoch_and_learning_rate(self, tmp_path):
        # numpy's overflow warnings must not escape in place of the
        # TrainingDiverged that the updates' own checks raise
        g = synth_balanced(2, 6, 0.9, 0.8, 0.05, seed=4)
        cfg = TrainConfig(
            embedding_dim=4, learning_rate=1e300,
            outer_epochs=1, d_epochs=1, g_epochs=1,
        )
        path = tmp_path / "run.ckpt"
        with pytest.raises(
            TrainingDiverged,
            match=r"^epoch 0: discriminator update left non-finite "
            r"embeddings \(learning_rate 1e\+300\)$",
        ):
            train(g, cfg, checkpoint_path=path)
        assert resume(path).epochs_done == 0

    def test_unwritable_checkpoint_path_fails_before_any_update(
        self, tmp_path, monkeypatch
    ):
        calls = []
        update = discriminator.update

        def counted(*args):
            calls.append(1)
            return update(*args)

        monkeypatch.setattr(discriminator, "update", counted)
        with pytest.raises(OSError):
            train(
                random_connected_graph(6, 8, 0), SMALL,
                checkpoint_path=tmp_path / "missing" / "run.ckpt",
            )
        assert calls == []


def dense_train(monkeypatch, g, cfg, **kwargs):
    """``train`` with full-table updates, as before the touched-rows step."""
    with monkeypatch.context() as m:
        m.setattr(discriminator, "update", oracles.dense_update)
        m.setattr(
            generator, "policy_gradient_update",
            oracles.dense_policy_gradient_update,
        )
        return train(g, cfg, **kwargs)


def gathered_train(monkeypatch, g, cfg, **kwargs):
    """``train`` with every table's dots taken over gathered θ_j rows, as
    before D phases read one dot per graph edge."""
    with monkeypatch.context() as m:
        m.setattr(generator, "relevance_table", oracles.gathered_relevance_table)
        return train(g, cfg, **kwargs)


def assert_same_run(a, b):
    """Same tables bit for bit and the same stats, timing aside. The mean
    gradient norms may differ in their last bits: a norm over a table's
    touched rows sums the same squares as one over the whole table, but
    grouped differently."""
    assert a[0].values.tobytes() == b[0].values.tobytes()
    assert a[1].values.tobytes() == b[1].values.tobytes()
    assert a[2].theta_j_checksum == b[2].theta_j_checksum
    assert a[2].theta_d_checksum == b[2].theta_d_checksum
    assert len(a[2].epochs) == len(b[2].epochs)
    for x, y in zip(a[2].epochs, b[2].epochs):
        x, y = dataclasses.asdict(x), dataclasses.asdict(y)
        del x["wall_time"], y["wall_time"]
        for key in ("d_grad_norm", "g_grad_norm"):
            assert x.pop(key) == pytest.approx(y.pop(key), rel=1e-12)
        assert x == y


CRITERION_6 = TrainConfig(
    embedding_dim=16,
    learning_rate=0.3,
    outer_epochs=10,
    d_epochs=5,
    g_epochs=5,
    samples_per_center=10,
    batch_size=32,
    seed=5,
)


def bitcoin_like(n, seed):
    u, v, sign, _ = inputs.bitcoin_like_graph(n, seed)
    return SignedGraph.from_edges(n, np.stack([u, v, sign], axis=1))


class TestTouchedRowsStep:
    """Sparse updates against the dense path."""

    def test_criterion_6_config_matches_dense(self, monkeypatch):
        g = synth_balanced(2, 50, 0.3, 0.2, 0.05, seed=11)
        assert_same_run(
            train(g, CRITERION_6), dense_train(monkeypatch, g, CRITERION_6)
        )

    def test_bitcoin_like_graph_matches_dense(self, monkeypatch):
        g = bitcoin_like(300, 2)
        cfg = TrainConfig(outer_epochs=1, d_epochs=2, g_epochs=2, seed=4)
        assert_same_run(train(g, cfg), dense_train(monkeypatch, g, cfg))

    @pytest.mark.parametrize("seed", range(3))
    def test_d_updates_with_repeated_endpoints_match_dense(self, seed):
        # endpoints from 6 of 40 nodes repeat within and across u and v,
        # so most rows take several terms in the gradient's one scatter
        rng = np.random.default_rng(seed)
        sparse = init_embeddings(40, 8, seed)
        dense = sparse.copy()
        for _ in range(20):
            u = rng.integers(0, 6, 32)
            v = (u + rng.integers(1, 6, 32)) % 6
            batch = edge_batch(
                u, v, rng.choice([1, -1], 32), rng.random(32) < 0.5
            )
            got = discriminator.update(sparse, batch, 0.5)
            want = oracles.dense_update(dense, batch, 0.5)
            assert got[0] == want[0]
        assert sparse.checksum() == dense.checksum()
        assert sparse.values.tobytes() == dense.values.tobytes()

    def test_resumed_run_matches_dense(self, monkeypatch, tmp_path):
        g = random_connected_graph(30, 60, 4)
        path = tmp_path / "a.ckpt"
        train(g, SMALL, checkpoint_path=path)
        longer = dataclasses.replace(SMALL, outer_epochs=4)
        assert_same_run(
            train(g, longer, resume_from=resume(path)),
            dense_train(monkeypatch, g, longer, resume_from=resume(path)),
        )

    def test_rows_outside_a_batch_stay_untouched(self):
        g = random_connected_graph(40, 80, 5)
        rng = np.random.default_rng(5)
        d_emb = init_embeddings(40, 6, 1)
        batch = edge_batch([3, 3, 7], [9, 12, 3], [1, -1, 1], [True, False, True])
        dense = d_emb.copy()
        discriminator.update(d_emb, batch, 0.5)
        oracles.dense_update(dense, batch, 0.5)
        assert d_emb.values.tobytes() == dense.values.tobytes()
        outside = np.setdiff1d(np.arange(40), [3, 7, 9, 12])
        assert d_emb.values[outside].tobytes() == init_embeddings(
            40, 6, 1
        ).values[outside].tobytes()

        j_emb = init_embeddings(40, 6, 2)
        fakes = generator.generate_fakes(
            j_emb, build_bfs_tree(g, 11), 5, rng
        )
        dense, before = j_emb.copy(), j_emb.copy()
        rewards = rng.uniform(-3.0, 0.0, 5)
        rows, _ = generator.walk_logprob_gradient(j_emb, fakes, rewards)
        generator.policy_gradient_update(j_emb, fakes, rewards, 0.5)
        oracles.dense_policy_gradient_update(dense, fakes, rewards, 0.5)
        assert j_emb.values.tobytes() == dense.values.tobytes()
        src, _ = fakes.tree.directed_edges()
        touched = fakes.tree.order[
            generator.touched_nodes(fakes.tree, src[fakes.hops])
        ]
        assert np.array_equal(rows, touched) and len(touched) < 40
        outside = np.setdiff1d(np.arange(40), touched)
        assert (
            j_emb.values[outside].tobytes() == before.values[outside].tobytes()
        )

    @pytest.mark.parametrize("name", ["theta_j", "theta_d"])
    def test_non_finite_resumed_table_names_its_row(self, tmp_path, name):
        g = random_connected_graph(6, 8, 1)
        path = tmp_path / "good.ckpt"
        train(g, SMALL, checkpoint_path=path)
        state = resume(path)
        state.config = dataclasses.replace(state.config, outer_epochs=4)
        getattr(state, name).values[4, 1] = np.inf
        with pytest.raises(TrainingDiverged, match=f"{name} row 4") as exc:
            train(g, resume_from=state)
        assert exc.value.state.epochs_done == SMALL.outer_epochs


def test_failed_checkpoint_write_keeps_the_old_one(tmp_path, monkeypatch):
    g = random_connected_graph(6, 8, 0)
    path = tmp_path / "run.ckpt"
    train(g, SMALL, checkpoint_path=path)
    before = path.read_bytes()
    state = resume(path)
    state.epochs_done += 1

    def half_write(self, data):  # a full disk: part of the bytes, then an error
        with open(self, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", half_write)
    with pytest.raises(OSError, match="No space"):
        checkpoint(state, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert resume(path).epochs_done == SMALL.outer_epochs
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("writes", [1, 4])
def test_interrupted_run_resumes_to_the_same_bytes(
    tmp_path, monkeypatch, writes
):
    # a KeyboardInterrupt after the start write (1) or after epoch 2's
    # write (4); the file then holds the last completed epoch
    g = synth_balanced(2, 50, 0.3, 0.2, 0.05, seed=11)
    cfg = dataclasses.replace(
        CRITERION_6, outer_epochs=6, d_epochs=2, g_epochs=2
    )
    full_path, cut_path = tmp_path / "full.ckpt", tmp_path / "cut.ckpt"
    full = train(g, cfg, checkpoint_path=full_path)
    done = []

    def interrupting(state, path):
        checkpoint(state, path)
        done.append(state.epochs_done)
        if len(done) == writes:
            raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(trainer, "checkpoint", interrupting)
        with pytest.raises(KeyboardInterrupt):
            train(g, cfg, checkpoint_path=cut_path)
    state = resume(cut_path)
    assert state.epochs_done == writes - 1
    resumed = train(g, cfg, resume_from=state, checkpoint_path=cut_path)
    assert resumed[0].values.tobytes() == full[0].values.tobytes()
    assert resumed[1].values.tobytes() == full[1].values.tobytes()
    assert resumed[2].theta_j_checksum == full[2].theta_j_checksum
    assert resumed[2].theta_d_checksum == full[2].theta_d_checksum
    assert len(resumed[2].epochs) == cfg.outer_epochs - state.epochs_done
    assert cut_path.read_bytes() == full_path.read_bytes()


class TestEdgeDotTables:
    """D-phase tables from one θ_j dot per graph edge against tables from
    the tree's gathered θ_j rows."""

    def test_criterion_6_config_matches_gathered(self, monkeypatch):
        g = synth_balanced(2, 50, 0.3, 0.2, 0.05, seed=11)
        assert_same_run(
            train(g, CRITERION_6), gathered_train(monkeypatch, g, CRITERION_6)
        )

    @pytest.mark.parametrize("max_depth", [None, 2])
    def test_bitcoin_like_graph_matches_gathered(self, monkeypatch, max_depth):
        g = bitcoin_like(300, 2)
        cfg = TrainConfig(
            outer_epochs=2, d_epochs=2, g_epochs=2, seed=4,
            max_tree_depth=max_depth,
        )
        assert_same_run(train(g, cfg), gathered_train(monkeypatch, g, cfg))

    def test_resumed_run_matches_gathered(self, monkeypatch, tmp_path):
        g = random_connected_graph(30, 60, 4)
        path = tmp_path / "a.ckpt"
        train(g, SMALL, checkpoint_path=path)
        longer = dataclasses.replace(SMALL, outer_epochs=4)
        assert_same_run(
            train(g, longer, resume_from=resume(path)),
            gathered_train(monkeypatch, g, longer, resume_from=resume(path)),
        )
