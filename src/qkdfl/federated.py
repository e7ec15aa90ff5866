"""Federated rounds with per-round key establishment and QBER abort.

One key-agreement session runs per round between the client cohort and a
key authority; its key (classical_sa: a seeded PRG draw) is the round seed.
The authority is trusted, as trusted-node QKD networks trust their nodes
(Peev et al., New J. Phys. 11, 075001, 2009): it derives the pair keys
(masking.MaskingContext), and client i masks with only its K - 1 of them.
How they reach the clients is not modelled; no client sees the round seed.

If the measured QBER reaches the abort threshold, or the session's final
key is shorter than one pair key (masking.KEY_BITS = 256 bits; a key is
never stretched), the round is consumed with the global model frozen: no
training, no key material used, no bytes moved.  Otherwise every client
trains locally, masks its upload (in the masked modes) and the server
averages.

Aggregation modes:
    plain        uploads are the raw local parameters
    classical_sa pairwise masking, round seed of KEY_BITS from a seeded PRG
    qkd_sa       pairwise masking, round seed from the BB84 session key

All per-round and per-client randomness is derived from one master seed
through the labeled paths of `seeds`, so runs are reproducible and the
two masked modes train identically to plain given the same master seed.

A round's K local trainings are independent, so they run concurrently in
`min(trainers, K)` processes (`trainers` defaults to the cores this
process may run on).  The clients are dealt largest shard first, each to
the group with the fewest samples so far; the calling process trains the
first group, and one forked child per further group (`forks.fan_out`)
trains its own and pipes back each client's update, or the exception it
raised.  Processes, unlike threads, do not contend for the interpreter
lock.  Every client trains on its own model and its own seeded shuffle, so
the round is byte-identical to training the clients one after another.
The same `trainers` budget goes to the masking pass, which expands every
pair's keystream once and parks one count per client, which it pops: one
that would hash at least `masking._PARALLEL_MIN_BLOCKS` SHA-256 blocks
expands them in up to that many processes, forked the same way; the
shipped models' rounds stay below it and expand theirs in this process.
Key agreement, aggregation, leakage and evaluation stay in the calling
process.  A fork copies only the calling thread, so a process with another
Python thread alive, or a platform other than Linux, trains and masks
every client in the calling process.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import params as pvops, seeds
from .datasets import ChannelSample, RadarSample
from .errors import UndefinedProxyError
from .forks import fan_out, may_fork, usable_cores
from .masking import (
    DEFAULT_MASK_SCALE,
    KEY_BITS,
    MaskingContext,
    aggregate,
    apply_pairwise_masks,
    leakage_proxies,
)
from .metrics import eval_channel, eval_radar
from .models import ModelSpec, TASK_CHANNEL
from .params import ParamVec
from .qkd import BB84Config, run_bb84
from .seeds import derive_seed  # also read as federated.derive_seed by perfbench
from .training import train_local

MODES = ("plain", "classical_sa", "qkd_sa")
MASKED_MODES = ("classical_sa", "qkd_sa")

STATUS_SECURE = "SECURE"
STATUS_ABORTED = "ABORTED"


@dataclass(frozen=True)
class RoundConfig:
    """Everything one round needs besides the model state and the shards."""

    num_clients: int
    epochs: int
    mode: str
    model: ModelSpec
    learning_rate: float
    batch_size: int
    master_seed: int
    round_index: int = 0
    qber_threshold: float = 0.08
    bb84: BB84Config = field(default_factory=BB84Config)
    mask_scale: float = DEFAULT_MASK_SCALE

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode in MASKED_MODES and self.num_clients < 2:
            raise ValueError("masked modes need num_clients >= 2")
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 0.0 < self.qber_threshold < 1.0:
            raise ValueError("qber_threshold must be in (0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")


@dataclass
class RoundReport:
    """Per-round outcome, field for field a rounds.jsonl line (the runner
    adds `cell` and `config_hash`).  A client's undefined leakage proxy is
    None, and the means skip it."""

    round: int
    mode: str
    status: str
    qber: float | None
    sifted_len: int | None
    final_len: int | None
    utility: dict[str, float | None]
    recon_error: float | None
    leakage_per_client: list[dict]
    leakage_mean_cosine: float | None
    leakage_mean_pearson: float | None
    bytes_down: int
    bytes_up: int


def _mean_proxy(leakage: list[dict], proxy: str) -> float | None:
    vals = [c[proxy] for c in leakage if c[proxy] is not None]
    return float(np.mean(vals)) if vals else None


def _evaluate(cfg: RoundConfig, pv: ParamVec, val_data: list | None) -> dict:
    if not val_data:
        return {}
    if cfg.model.task == TASK_CHANNEL:
        return {"nmse": eval_channel(cfg.model, pv, val_data)}
    acc, miou = eval_radar(cfg.model, pv, val_data)
    return {"accuracy": acc, "miou": miou}


def _round_seed_bits(cfg: RoundConfig, session_key: np.ndarray | None) -> np.ndarray:
    if cfg.mode == "qkd_sa":
        return session_key
    prg = np.random.default_rng(
        derive_seed(cfg.master_seed, cfg.round_index, seeds.ROUND_KEY)
    )
    return prg.integers(0, 2, size=KEY_BITS, dtype=np.uint8)


def _deal(shards: list[list], groups: int) -> list[list[int]]:
    """Client indices in `groups` groups: largest shard first, each client
    to the group with the fewest samples so far (the lower index on a tie)."""
    dealt: list[list[int]] = [[] for _ in range(groups)]
    loads = [0] * groups
    for k in sorted(range(len(shards)), key=lambda k: -len(shards[k])):
        g = loads.index(min(loads))
        dealt[g].append(k)
        loads[g] += len(shards[k])
    return dealt


def _train_group(
    global_params: ParamVec, shards: list[list], cfg: RoundConfig, group: list[int]
) -> list[tuple[int, ParamVec | Exception]]:
    """(client, update or the exception it raised) for each client of `group`."""
    results = []
    for k in group:
        try:
            # train_local is looked up at call time, so a wrapper installed
            # on this module's name sees every client of this process.
            results.append((k, train_local(
                cfg.model,
                global_params,
                shards[k],
                cfg.epochs,
                cfg.learning_rate,
                cfg.batch_size,
                seed=derive_seed(cfg.master_seed, cfg.round_index, seeds.TRAIN, k),
            )))
        except Exception as exc:  # re-raised by the calling process
            results.append((k, exc))
    return results


def _train_clients(
    global_params: ParamVec, shards: list[list], cfg: RoundConfig, trainers: int
) -> list[ParamVec]:
    """Every client's local update, in client order.

    The clients are dealt to `min(trainers, K)` groups (one group where
    this process may not fork, see the module docstring).  This process
    trains the first group and a forked child trains each other one.  If
    clients fail, the exception of the lowest-index failing client is
    raised, as the serial loop would raise it.  A child that exits without
    its results is a TrainerExitError naming its clients.  No child
    outlives the call: on any failure here, an interrupt included, the
    children are killed and reaped.
    """
    groups = _deal(shards, min(trainers, cfg.num_clients) if may_fork() else 1)
    results = fan_out(
        lambda group: _train_group(global_params, shards, cfg, group),
        groups,
        "trainer process of clients",
    )
    by_client = {k: out for group in results for k, out in group}
    updates = [by_client[k] for k in range(cfg.num_clients)]
    for out in updates:
        if isinstance(out, Exception):
            raise out
    return updates


def _secure_round(
    global_params: ParamVec,
    shards: list[list],
    cfg: RoundConfig,
    session_key: np.ndarray | None,
    trainers: int,
) -> tuple[ParamVec, float, list[dict]]:
    """Train, mask, aggregate and measure leakage: (new global params,
    recon error, per-client leakage).  The K updates, the uploads and the
    leakage deltas are locals, so they are freed on return, before the
    round evaluates the new model."""
    updates = _train_clients(global_params, shards, cfg, trainers)
    if cfg.mode in MASKED_MODES:
        ctx = MaskingContext(
            round_seed=_round_seed_bits(cfg, session_key),
            round_index=cfg.round_index,
            num_clients=cfg.num_clients,
            mask_scale=cfg.mask_scale,
        )
        masked = [
            apply_pairwise_masks(updates[k], k, ctx, trainers)
            for k in range(cfg.num_clients)
        ]
        uploads = [m.params for m in masked]
        new_global = aggregate(masked)
        recon_error = pvops.max_abs_diff(pvops.mean(updates), new_global)
    else:
        uploads = updates
        new_global = pvops.mean(updates)
        recon_error = 0.0

    leakage = []
    for k in range(cfg.num_clients):
        true_delta = pvops.sub(updates[k], global_params)
        masked_delta = pvops.sub(uploads[k], global_params)
        try:
            cosine, pearson = leakage_proxies(true_delta, masked_delta)
        except UndefinedProxyError:
            cosine = pearson = None
        leakage.append({"cosine": cosine, "pearson": pearson})
    return new_global, recon_error, leakage


def run_round(
    global_params: ParamVec,
    shards: list[list],
    cfg: RoundConfig,
    val_data: list | None = None,
    trainers: int | None = None,
) -> tuple[ParamVec, RoundReport]:
    """Execute one federated round; returns (new global params, report).

    `trainers` bounds how many processes train clients, or expand a large
    masking pass's keystreams, at once (the calling process and up to
    `trainers - 1` forked children); None means `usable_cores()`.  It
    changes no output byte.
    """
    if len(shards) != cfg.num_clients:
        raise ValueError(
            f"expected {cfg.num_clients} shards, got {len(shards)}"
        )
    trainers = usable_cores() if trainers is None else trainers
    if trainers < 1:
        raise ValueError(f"trainers must be >= 1, got {trainers}")

    qber = sifted_len = final_len = session_key = None
    status = STATUS_SECURE
    if cfg.mode == "qkd_sa":
        bb84 = dataclasses.replace(
            cfg.bb84,
            rng_seed=derive_seed(cfg.master_seed, cfg.round_index, seeds.QKD),
        )
        session = run_bb84(bb84)
        qber, sifted_len, final_len = session.qber, session.sifted_len, session.final_len
        session_key = session.key
        if session.qber >= cfg.qber_threshold or session.final_len < KEY_BITS:
            status = STATUS_ABORTED

    # An aborted round keeps the global model and moves no bytes.
    new_global, recon_error, leakage, nbytes = global_params, None, [], 0
    if status == STATUS_SECURE:
        new_global, recon_error, leakage = _secure_round(
            global_params, shards, cfg, session_key, trainers
        )
        nbytes = global_params.nbytes_serialized

    report = RoundReport(
        round=cfg.round_index,
        mode=cfg.mode,
        status=status,
        qber=qber,
        sifted_len=sifted_len,
        final_len=final_len,
        utility=_evaluate(cfg, new_global, val_data),
        recon_error=recon_error,
        leakage_per_client=leakage,
        leakage_mean_cosine=_mean_proxy(leakage, "cosine"),
        leakage_mean_pearson=_mean_proxy(leakage, "pearson"),
        bytes_down=nbytes,
        bytes_up=cfg.num_clients * nbytes,
    )
    return new_global, report


def run_training(
    initial: ParamVec,
    num_rounds: int,
    cfg: RoundConfig,
    shards: list[list],
    val_data: list | None = None,
    trainers: int | None = None,
) -> tuple[ParamVec, list[RoundReport]]:
    """Fold run_round over `num_rounds` rounds starting from `initial`."""
    if num_rounds < 1:
        raise ValueError("num_rounds must be >= 1")
    current = initial
    reports = []
    for r in range(num_rounds):
        round_cfg = dataclasses.replace(cfg, round_index=r)
        current, report = run_round(current, shards, round_cfg, val_data, trainers)
        reports.append(report)
    return current, reports


def _default_skew_feature(sample, index: int) -> float:
    if isinstance(sample, ChannelSample):
        return float(np.mean(sample.truth**2))
    if isinstance(sample, RadarSample):
        return float(np.count_nonzero(sample.labels) / sample.labels.size)
    return float(index)


def partition_non_iid(
    dataset: list, num_clients: int, skew: float, seed: int
) -> list[list]:
    """Split a dataset into disjoint, covering, feature-skewed shards.

    Shard sizes follow a Dirichlet(skew, ..., skew) draw (largest-remainder
    rounding, minimum one sample per shard); samples are dealt contiguously
    in feature-sorted order, so low concentration also skews what each
    client sees, not just how much.  skew = inf gives a balanced split.
    """
    n = len(dataset)
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if n < num_clients:
        raise ValueError(f"dataset of {n} samples cannot feed {num_clients} clients")
    if not skew > 0:
        raise ValueError(f"skew must be positive, got {skew}")
    rng = np.random.default_rng(seed)

    if math.isinf(skew):
        props = np.full(num_clients, 1.0 / num_clients)
    else:
        props = rng.dirichlet(np.full(num_clients, skew))

    raw = props * n
    sizes = np.floor(raw).astype(int)
    remainder = n - sizes.sum()
    order = np.argsort(-(raw - sizes), kind="stable")
    sizes[order[:remainder]] += 1
    # Every shard nonempty: move singles from the largest shards.
    while (sizes == 0).any():
        sizes[np.argmax(sizes)] -= 1
        sizes[np.argmin(sizes)] += 1

    feats = np.array([_default_skew_feature(s, i) for i, s in enumerate(dataset)])
    sorted_idx = np.argsort(feats, kind="stable")

    shards = []
    cursor = 0
    for size in sizes:
        shard_idx = sorted_idx[cursor : cursor + size]
        shards.append([dataset[i] for i in shard_idx])
        cursor += size
    return shards
