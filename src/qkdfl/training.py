"""Local (per-client) training: minibatch Adam over a data shard."""

from __future__ import annotations

import numpy as np

from .datasets import stack_batch
from .errors import DivergenceError
from .models import ModelSpec, build_model, get_params, set_params
from .nn import Adam
from .params import ParamVec


def train_local(
    spec: ModelSpec,
    pv: ParamVec,
    shard: list,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> ParamVec:
    """Train a copy of `pv` on one shard for `epochs` epochs.

    Deterministic: the shuffle order is the only randomness and comes from
    `seed`.  Optimizer state starts fresh (standard federated local step).
    epochs = 0 returns an unchanged copy, still checked against `spec`.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if not shard:
        raise ValueError("empty training shard")

    net = build_model(spec)
    set_params(net, pv)
    opt = Adam(net.params.buf, lr)
    rng = np.random.default_rng(seed)
    n = len(shard)

    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = [shard[i] for i in order[start : start + batch_size]]
            x, y = stack_batch(batch)
            loss, grads = net.loss_and_grads(x, y)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch starting at {start}"
                )
            opt.step(net.params.buf, grads.buf)
    return get_params(net)
