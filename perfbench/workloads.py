"""The four benchmark workloads.

Each workload drives the public qkdfl API on inputs derived only from the
workload seed.  `setup` builds the inputs, `op` runs one unit of work and
returns what `check` needs, and `finish` runs the checks that need a whole
cycle of ops.  Ops repeat in cycles over the same inputs, so every cycle
must reproduce the first one exactly; a mismatch is a correctness failure.

The benchmark resolves every qkdfl function through its module at call
time (`federated.run_round`, not a name bound at import), so the traced run
can wrap it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from qkdfl import experiments, federated, masking, models, params, qkd

# The FL checks below, and criterion 1's bound for the masked aggregate.
RECON_TOL = 1e-5
# Criterion 4: mean QBER within this of eta / 2 at every noise level.
QBER_TOL = 0.01

SECURE = federated.STATUS_SECURE


def _digest(pv) -> str:
    h = hashlib.sha256()
    for name, arr in pv.entries:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclasses.dataclass
class FederatedState:
    rcfg: federated.RoundConfig
    shards: list
    val: list
    initial: params.ParamVec
    rounds: int
    current: params.ParamVec | None = None
    next_round: int = 0
    cell_digests: list = dataclasses.field(default_factory=list)
    final_quality: list = dataclasses.field(default_factory=list)

    @property
    def qber_threshold(self) -> float:
        return self.rcfg.qber_threshold


class FederatedCell:
    """One experiment-A cell in qkd_sa mode; an op is one `run_round`.

    Ops walk the cell's rounds and restart from the initial model after
    the last one, exactly as `qkdfl run` executes the cell, so every cell
    must end on byte-identical parameters and the same quality.
    """

    setup_repeats = 5
    probe_parts = None  # every part of the speed probe

    def __init__(self, name: str, config: str, clients: int, quality_key: str):
        self.name = name
        self.config = config
        self.clients = clients
        self.quality_key = quality_key

    def cycle(self, state) -> int:
        return state.rounds

    def setup(self, root: Path, seed: int) -> FederatedState:
        cfg = experiments.ExperimentConfig.from_file(root / "configs" / self.config)
        cfg = dataclasses.replace(cfg, seed=seed)
        train, val = cfg.make_datasets()
        # The same partition seed path as the experiment runner's cells.
        shards = federated.partition_non_iid(
            train, self.clients, cfg.partition_skew,
            federated.derive_seed(cfg.seed, experiments._TAG_PARTITION, self.clients),
        )
        return FederatedState(
            rcfg=cfg.round_config(self.clients, "qkd_sa", eve=False),
            shards=shards,
            val=val,
            initial=models.init_params(cfg.model_spec()),
            rounds=cfg.rounds,
        )

    def restart(self, state) -> None:
        state.next_round = 0

    def op(self, state):
        r = state.next_round
        start = state.initial if r == 0 else state.current
        # Restart the cell if this op fails part-way.
        state.next_round = 0
        new, report = federated.run_round(
            start, state.shards, dataclasses.replace(state.rcfg, round_index=r), state.val
        )
        state.current = new
        state.next_round = (r + 1) % state.rounds
        return r, new, report

    def check(self, state, result) -> list[str]:
        r, new, report = result
        errors = []
        if report.status != SECURE:
            errors.append(f"round {r}: status {report.status}, expected {SECURE}")
        if report.recon_error is None or not report.recon_error < RECON_TOL:
            errors.append(f"round {r}: recon_error {report.recon_error} >= {RECON_TOL}")
        expected_up = self.clients * state.initial.nbytes_serialized
        if report.bytes_up != expected_up:
            errors.append(f"round {r}: bytes_up {report.bytes_up} != {expected_up}")
        if r == state.rounds - 1 and not errors:
            state.cell_digests.append(_digest(new))
            state.final_quality.append(report.utility[self.quality_key])
            if state.cell_digests[-1] != state.cell_digests[0]:
                errors.append(
                    f"cell {len(state.cell_digests)} ended on other parameters than cell 1"
                )
        return errors

    def finish(self, state) -> tuple[dict, list[str]]:
        if not state.final_quality:
            return {}, ["no cell completed"]
        # The untrained model's quality, for reference only: at the radar
        # config's learning rate five rounds do not always raise mIoU.
        spec = state.rcfg.model
        if self.quality_key == "nmse":
            before = federated.eval_channel(spec, state.initial, state.val)
        else:
            before = federated.eval_radar(spec, state.initial, state.val)[1]
        return {
            f"final_{self.quality_key}": state.final_quality[0],
            f"initial_{self.quality_key}": before,
            "cells": len(state.final_quality),
        }, []


@dataclasses.dataclass
class SecAggState:
    ctx: masking.MaskingContext
    updates: list
    expected: params.ParamVec | None = None


class SecAggRound:
    """K masked uploads of one large SegNet update, then `aggregate`.

    The op is one masking round: K x `apply_pairwise_masks` + `aggregate`.
    The round seed is a BB84 session key, as in qkd_sa rounds.
    """

    setup_repeats = 3
    probe_parts = None
    clients = 20
    spec_fields = {"encoder_filters": (32, 64, 128), "bottleneck_filters": 256}
    # Client updates are the global model plus seeded N(0, UPDATE_SCALE^2) noise.
    UPDATE_SCALE = 1e-2

    def __init__(self, name: str):
        self.name = name

    def cycle(self, state) -> int:
        return 1

    def setup(self, root: Path, seed: int) -> SecAggState:
        spec = models.ModelSpec(
            task=models.TASK_RADAR, init_seed=federated.derive_seed(seed, 0),
            **self.spec_fields,
        )
        base = models.init_params(spec)
        updates = []
        for k in range(self.clients):
            rng = np.random.default_rng(federated.derive_seed(seed, 1, k))
            updates.append(params.ParamVec([
                (name, arr + self.UPDATE_SCALE * rng.standard_normal(arr.shape))
                for name, arr in base.entries
            ]))
        session = qkd.run_bb84(qkd.BB84Config(rng_seed=federated.derive_seed(seed, 2)))
        ctx = masking.MaskingContext(
            round_seed=session.key, round_index=0, num_clients=self.clients
        )
        return SecAggState(ctx=ctx, updates=updates)

    def restart(self, state) -> None:
        pass

    def op(self, state):
        masked = [
            masking.apply_pairwise_masks(u, k, state.ctx)
            for k, u in enumerate(state.updates)
        ]
        return masking.aggregate(masked)

    def check(self, state, result) -> list[str]:
        if state.expected is None:
            state.expected = params.mean(state.updates)
        diff = params.max_abs_diff(result, state.expected)
        if not diff < RECON_TOL:
            return [f"max_abs_diff(aggregate, mean) = {diff} >= {RECON_TOL}"]
        return []

    def finish(self, state) -> tuple[dict, list[str]]:
        return {"parameters": state.updates[0].total_len}, []


@dataclasses.dataclass
class SweepState:
    plan: list
    grid: tuple
    per_point: int
    qber_threshold: float
    first: list
    next_index: int = 0


class NoiseSweep:
    """Experiment C: BB84 sessions over the noise grid; an op is one session.

    Sessions run point by point in the experiment runner's order and seeds.
    """

    setup_repeats = 5
    # Session cost tracks the Generator part of the probe one to one; the
    # conv part, which dominates the full probe, moves less than a session.
    probe_parts = ("numpy_rng",)

    def __init__(self, name: str, config: str):
        self.name = name
        self.config = config

    def cycle(self, state) -> int:
        return len(state.plan)

    def setup(self, root: Path, seed: int) -> SweepState:
        cfg = experiments.ExperimentConfig.from_file(root / "configs" / self.config)
        cfg = dataclasses.replace(cfg, seed=seed)
        plan = [
            qkd.BB84Config(
                raw_len=cfg.raw_key_len,
                pa_ratio=cfg.pa_ratio,
                depolarize_prob=eta,
                eve_present=cfg.eve,
                rng_seed=federated.derive_seed(cfg.seed, experiments._TAG_SWEEP, p, s),
            )
            for p, eta in enumerate(cfg.noise_grid)
            for s in range(cfg.sessions_per_point)
        ]
        return SweepState(
            plan=plan, grid=cfg.noise_grid, per_point=cfg.sessions_per_point,
            qber_threshold=cfg.qber_threshold, first=[None] * len(plan),
        )

    def restart(self, state) -> None:
        state.next_index = 0

    def op(self, state):
        i = state.next_index
        state.next_index = (i + 1) % len(state.plan)
        return i, qkd.run_bb84(state.plan[i])

    def check(self, state, result) -> list[str]:
        i, session = result
        got = (session.qber, session.sifted_len, session.final_len, session.key.tobytes())
        if state.first[i] is None:
            state.first[i] = got
        elif state.first[i] != got:
            return [f"session {i} differs from its first run"]
        return []

    def finish(self, state) -> tuple[dict, list[str]]:
        if any(f is None for f in state.first):
            return {}, ["the sweep did not complete one pass"]
        errors = []
        points = []
        for p, eta in enumerate(state.grid):
            qbers = np.array(
                [f[0] for f in state.first[p * state.per_point:(p + 1) * state.per_point]]
            )
            mean_qber = float(qbers.mean())
            abort_rate = float(np.mean(qbers >= state.qber_threshold))
            points.append({"eta": eta, "mean_qber": mean_qber, "abort_rate": abort_rate})
            if abs(mean_qber - eta / 2) > QBER_TOL:
                errors.append(f"eta {eta}: mean QBER {mean_qber} not within {QBER_TOL} of {eta / 2}")
            if eta == 0.0 and abort_rate != 0.0:
                errors.append(f"eta 0: abort rate {abort_rate}, expected 0")
        return {"sweep": points}, errors


WORKLOADS = {
    wl.name: wl
    for wl in (
        FederatedCell("channel_k20", "exp_a_channel.json", 20, "nmse"),
        FederatedCell("radar_k10", "exp_a_radar.json", 10, "miou"),
        SecAggRound("secagg_k20_1m"),
        NoiseSweep("qkd_sweep", "exp_c_noise_sweep.json"),
    )
}
