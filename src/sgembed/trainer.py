"""Adversarial training loop with reproducible configuration.

Per outer epoch the discriminator runs ``d_epochs`` full passes over the
(shuffled) centers, each center contributing a balanced true batch and an
equal-size fake batch, then the generator runs ``g_epochs`` passes where
its samples are rewarded with clamped log(1 - D) and fed to the policy
gradient.

All randomness flows from a single seed: SeedSequence(seed) spawns three
children used, in order, for the generator init, the discriminator init,
and the training sample stream. Runs are bit-reproducible in
single-threaded mode, and checkpoints capture embeddings, the stream
state, and the epoch counter exactly, together with a fingerprint of the
graph they were trained on.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import logging
import math
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import discriminator, generator
from .generator import DivergenceError, EmbeddingMatrix, init_embeddings
from .sgraph import SignedGraph, text_lines
from .treewalk import BfsTree, build_bfs_tree

logger = logging.getLogger(__name__)

_CKPT_MAGIC = b"SGEMBCKP"
_CKPT_VERSION = 2


class CheckpointError(RuntimeError):
    """Raised for unreadable, corrupt, or version-mismatched checkpoints."""


class TrainingDiverged(RuntimeError):
    """Raised when an update produced non-finite values; carries the last
    good state in ``state``."""

    def __init__(self, message: str, state: "TrainState"):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class TrainConfig:
    embedding_dim: int = 50
    learning_rate: float = 0.001
    outer_epochs: int = 10
    d_epochs: int = 10
    g_epochs: int = 10
    samples_per_center: int = 20
    batch_size: int = 32
    seed: int = 0
    max_tree_depth: int | None = None
    reward_clamp: tuple[float, float] = (-20.0, 0.0)

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got "
                f"{self.learning_rate}"
            )
        if self.outer_epochs < 0:
            raise ValueError("outer_epochs must be non-negative")
        for name in ("d_epochs", "g_epochs", "samples_per_center", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_tree_depth is not None and self.max_tree_depth <= 0:
            raise ValueError("max_tree_depth must be positive when set")
        lo, hi = self.reward_clamp
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("reward_clamp bounds must not be NaN")
        if lo > hi:
            raise ValueError("reward_clamp low bound exceeds high bound")
        if lo == math.inf or hi == -math.inf:
            raise ValueError("reward_clamp admits no finite reward")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "reward_clamp" in d:
            d["reward_clamp"] = tuple(d["reward_clamp"])
        return cls(**d)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrainConfig":
        cfg = cls()
        for lineno, line in text_lines(path):
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            try:
                cfg = cfg.merged({key.strip(): value.strip()})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cfg

    def merged(self, overrides: dict[str, str]) -> "TrainConfig":
        """Apply textual key=value overrides (CLI flags beat file values)."""
        known = {f.name: f for f in dataclasses.fields(self)}
        parsed = {}
        for key, value in overrides.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            parsed[key] = _parse_value(key, value)
        return replace(self, **parsed)


def _parse_value(key: str, text: str):
    try:
        if key == "max_tree_depth":
            return None if text.lower() in ("", "none") else int(text)
        if key == "reward_clamp":
            lo, hi = (float(x) for x in text.split(","))
            return (lo, hi)
        if key in ("learning_rate",):
            return float(text)
        return int(text)
    except ValueError:
        raise ValueError(f"config key {key}: bad value {text!r}") from None


@dataclass
class EpochStats:
    epoch: int
    d_loss: float
    g_reward: float
    d_grad_norm: float
    g_grad_norm: float
    wall_time: float
    true_samples: int
    fake_samples: int
    true_positive: int
    true_negative: int


@dataclass
class TrainReport:
    config: TrainConfig
    epochs: list[EpochStats]
    theta_j_checksum: str = ""
    theta_d_checksum: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainState:
    """Everything needed to continue a run bit-exactly."""

    config: TrainConfig
    epochs_done: int
    theta_j: EmbeddingMatrix
    theta_d: EmbeddingMatrix
    rng_state: dict
    graph_fingerprint: str


def _seeded_state(g: SignedGraph, cfg: TrainConfig | None, fingerprint: str):
    """Epoch 0 of a fresh run: both tables and the sample stream seeded
    from ``cfg.seed``."""
    if cfg is None:
        raise ValueError("cfg is required when not resuming")
    *table_ss, stream_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    tables = [init_embeddings(g.node_count, cfg.embedding_dim, s) for s in table_ss]
    rng_state = np.random.default_rng(stream_ss).bit_generator.state
    return TrainState(cfg, 0, *tables, rng_state, fingerprint)


def train(
    g: SignedGraph,
    cfg: TrainConfig | None = None,
    *,
    resume_from: TrainState | None = None,
    checkpoint_path: str | Path | None = None,
) -> tuple[EmbeddingMatrix, EmbeddingMatrix, TrainReport]:
    """Run the adversarial loop, returning both embedding tables.

    With ``resume_from`` the run continues from the saved state, which
    must have been trained on this graph (same fingerprint); the
    supplied config may then differ only in ``outer_epochs``. When
    ``checkpoint_path`` is set the final state is written there, as is the
    last good state if an update diverges (before TrainingDiverged is
    re-raised). Raises ValueError, before any work, for a graph without
    edges and for a resume whose ``outer_epochs`` is below the epochs the
    state has done.
    """
    if g.edge_count == 0:
        raise ValueError(
            f"graph has no edges: none of its {g.node_count} nodes is a center"
        )
    fingerprint = g.fingerprint()
    state = resume_from or _seeded_state(g, cfg, fingerprint)
    if state.graph_fingerprint != fingerprint:
        raise ValueError(
            f"checkpoint was trained on graph {state.graph_fingerprint}, "
            f"not on this graph ({fingerprint})"
        )
    if cfg is None:
        cfg = state.config
    elif replace(cfg, outer_epochs=0) != replace(state.config, outer_epochs=0):
        raise ValueError("resume config may differ only in outer_epochs")
    if cfg.outer_epochs < state.epochs_done:
        raise ValueError(
            f"outer_epochs {cfg.outer_epochs} is below the {state.epochs_done} "
            "epochs the checkpoint has done"
        )
    theta_j = state.theta_j.copy()
    theta_d = state.theta_d.copy()
    stream = np.random.default_rng()
    stream.bit_generator.state = copy.deepcopy(state.rng_state)

    @functools.cache
    def tree_for(center: int) -> BfsTree:
        return build_bfs_tree(g, center, cfg.max_tree_depth)

    active = np.diff(g.indptr) > 0

    def passes(count: int):
        """The active centers of ``count`` passes, each in a fresh
        permutation drawn from the stream when the pass starts."""
        for _ in range(count):
            for center in stream.permutation(g.node_count).tolist():
                if active[center]:
                    yield center

    epochs: list[EpochStats] = []
    last_good = replace(state, config=cfg)

    def diverged(exc: Exception) -> TrainingDiverged:
        if checkpoint_path is not None:
            checkpoint(last_good, checkpoint_path)
        return TrainingDiverged(str(exc), state=last_good)

    # updates check only the rows they write; a resumed table may hold NaN
    for name, table in (("theta_j", theta_j), ("theta_d", theta_d)):
        bad = np.flatnonzero(~np.isfinite(table.values).all(axis=1))
        if len(bad):
            raise diverged(DivergenceError(f"{name} row {bad[0]} is not finite"))

    for epoch in range(state.epochs_done, cfg.outer_epochs):
        t0 = time.perf_counter()
        d_losses: list[float] = []
        d_norms: list[float] = []
        g_rewards: list[float] = []
        g_norms: list[float] = []
        n_true = n_fake = n_true_pos = 0
        try:
            # θ_j is frozen through the D passes: one dot per graph edge
            # serves every table they build
            edge_dots = np.einsum(
                "ij,ij->i", theta_j.values[g.edge_u], theta_j.values[g.edge_v]
            )
            for center in passes(cfg.d_epochs):
                true_batch = discriminator.sample_true_batch(
                    g, center, cfg.samples_per_center, stream
                )
                fakes = generator.generate_fakes(
                    theta_j, tree_for(center), cfg.samples_per_center, stream,
                    edge_dots,
                )
                n_true += len(true_batch)
                n_fake += len(fakes)
                n_true_pos += int(np.count_nonzero(true_batch["sign"] > 0))
                # interleave so every chunk stays balanced; both batches
                # hold samples_per_center edges
                combined = np.empty(2 * len(fakes), discriminator.EDGE_DTYPE)
                combined[0::2] = true_batch
                combined[1::2] = discriminator.edge_batch(
                    center, fakes.targets, fakes.signs, False
                )
                for i in range(0, len(combined), cfg.batch_size):
                    objective, norm = discriminator.update(
                        theta_d,
                        combined[i : i + cfg.batch_size],
                        cfg.learning_rate,
                    )
                    d_losses.append(-objective)
                    d_norms.append(norm)
            for center in passes(cfg.g_epochs):
                fakes = generator.generate_fakes(
                    theta_j, tree_for(center), cfg.samples_per_center, stream
                )
                rewards = discriminator.rewards(theta_d, fakes, cfg.reward_clamp)
                norm = generator.policy_gradient_update(
                    theta_j, fakes, rewards, cfg.learning_rate
                )
                g_rewards.append(float(rewards.mean()))
                g_norms.append(norm)
        except (DivergenceError, FloatingPointError) as exc:
            raise diverged(exc) from exc

        epochs.append(
            EpochStats(
                epoch=epoch,
                d_loss=float(np.mean(d_losses)),
                g_reward=float(np.mean(g_rewards)),
                d_grad_norm=float(np.mean(d_norms)),
                g_grad_norm=float(np.mean(g_norms)),
                wall_time=time.perf_counter() - t0,
                true_samples=n_true,
                fake_samples=n_fake,
                true_positive=n_true_pos,
                true_negative=n_true - n_true_pos,
            )
        )
        logger.info(
            "epoch %d: d_loss=%.4f g_reward=%.4f (%.1fs)",
            epoch, epochs[-1].d_loss, epochs[-1].g_reward,
            epochs[-1].wall_time,
        )
        last_good = TrainState(
            cfg, epoch + 1, theta_j.copy(), theta_d.copy(),
            copy.deepcopy(stream.bit_generator.state), fingerprint,
        )

    report = TrainReport(
        config=cfg,
        epochs=epochs,
        theta_j_checksum=theta_j.checksum(),
        theta_d_checksum=theta_d.checksum(),
    )
    if checkpoint_path is not None:
        checkpoint(last_good, checkpoint_path)
    return theta_j, theta_d, report


def checkpoint(state: TrainState, path: str | Path) -> None:
    """Write a versioned binary checkpoint with a trailing checksum; a
    temporary file replaces ``path`` only once it is complete."""
    header = json.dumps(
        {
            "config": state.config.to_dict(),
            "epochs_done": state.epochs_done,
            "graph": state.graph_fingerprint,
            "rng_state": state.rng_state,
            "rows": state.theta_j.rows,
            "dim": state.theta_j.dim,
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = (
        _CKPT_MAGIC
        + struct.pack("<HI", _CKPT_VERSION, len(header))
        + header
        + np.ascontiguousarray(state.theta_j.values).tobytes()
        + np.ascontiguousarray(state.theta_d.values).tobytes()
    )
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(payload + digest)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def resume(path: str | Path) -> TrainState:
    """Load a checkpoint, verifying magic, version, and checksum."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if len(blob) < len(_CKPT_MAGIC) + 6 + 8:
        raise CheckpointError(f"{path}: truncated checkpoint")
    payload, digest = blob[:-8], blob[-8:]
    if hashlib.blake2b(payload, digest_size=8).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch")
    if not payload.startswith(_CKPT_MAGIC):
        raise CheckpointError(f"{path}: bad magic bytes")
    off = len(_CKPT_MAGIC)
    version, header_len = struct.unpack_from("<HI", payload, off)
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    off += 6
    header = json.loads(payload[off : off + header_len].decode("utf-8"))
    rows, dim = header["rows"], header["dim"]
    theta_j, theta_d = np.frombuffer(
        payload, count=2 * rows * dim, offset=off + header_len
    ).reshape(2, rows, dim).copy()
    return TrainState(
        config=TrainConfig.from_dict(header["config"]),
        epochs_done=header["epochs_done"],
        theta_j=EmbeddingMatrix(values=theta_j),
        theta_d=EmbeddingMatrix(values=theta_d),
        rng_state=header["rng_state"],
        graph_fingerprint=header["graph"],
    )
