"""Traced run: spans and computed counts around the public qkdfl functions.

`install` wraps each public function at every name its callers resolve.
Callers bind names with `from .x import f`, so a function is patched in the
namespace of each calling module (and methods on their class).  A span
stores its name, start, end, parent and op id; spans are recorded only
while an op (or the traced set-up) is running, so the benchmark's own
checks stay out of the trace.  Counts are computed from argument shapes
and lengths, never measured, so they repeat exactly for the same code and
seed.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
from collections import defaultdict
from time import perf_counter

from qkdfl import (
    bits,
    experiments,
    federated,
    masking,
    metrics,
    models,
    nn,
    params,
    qkd,
    training,
)

CHANNEL_CONVS = ("conv1", "conv2", "conv3")
RADAR_CONVS = ("enc1", "enc2", "enc3", "bott", "dec3", "dec2", "dec1", "head")
SETUP = "setup"


class Tracer:
    def __init__(self, qber_threshold: float | None = None):
        self.op = None
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> name -> count
        self.qber_threshold = qber_threshold
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, counter=None):
        """`fn` recording a span; `name` may be a function of the call's args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name(args) if callable(name) else name, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, self.counts[self.op], result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every site; a site that no longer exists leaves its span silent."""
        for name, owner, attr, counter in SITES:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path, t0: float) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Computed counts
# ---------------------------------------------------------------------------


def _conv_fwd(t, c, result, layer, x):
    n, h, w, cin = x.shape
    c["nn.conv_fwd.calls"] += 1
    c["nn.conv_fwd.flop"] += 2 * n * h * w * layer.kh * layer.kw * cin * layer.cout


def _conv_bwd(t, c, result, layer, dy):
    n, h, w, cin = layer._xshape
    c["nn.conv_bwd.calls"] += 1
    # dW = cols^T dy and dcols = dy W^T, each as many multiply-adds as forward.
    c["nn.conv_bwd.flop"] += 4 * n * h * w * layer.kh * layer.kw * cin * layer.cout


def _train_local(t, c, result, spec, pv, shard, epochs, lr, batch_size, seed):
    c["training.batches"] += epochs * math.ceil(len(shard) / batch_size)
    c["training.samples"] += epochs * len(shard)


def _derive_pair_key(t, c, result, *args):
    c["masking.derive_pair_key.calls"] += 1


def _mask_keystream(t, c, result, key_bits, tensor_ordinal, num_bits):
    c["masking.mask_keystream.calls"] += 1
    c["masking.keystream_bytes"] += (num_bits + 7) // 8


def _sha256_expand(t, c, result, prefix, num_bits):
    digests = math.ceil((num_bits + 7) // 8 / 32)
    # Message = prefix || LE64(counter); padding adds 9 bytes, rounded to 64.
    c["bits.sha256_blocks"] += digests * ((len(prefix) + 8 + 9 + 63) // 64)


def _params_call(t, c, result, *args):
    c["params.calls"] += 1


def _run_bb84(t, c, result, cfg):
    c["qkd.sessions"] += 1
    c["qkd.qubits"] += cfg.raw_len
    c["qkd.sifted_bits"] += result.sifted_len
    c["qkd.final_key_bits"] += result.final_len
    if t.qber_threshold is not None and result.qber >= t.qber_threshold:
        c["qkd.aborts"] += 1


def _run_round(t, c, result, *args, **kwargs):
    c["federated.rounds"] += 1
    c["federated.secure_rounds"] += result[1].status == federated.STATUS_SECURE


def _conv_name(kind):
    return lambda args: f"nn.{kind}.{args[0].name}"


# (span name, owner, attribute, counter): every place a caller resolves the name.
SITES = [
    (_conv_name("conv_fwd"), nn.Conv2D, "forward", _conv_fwd),
    (_conv_name("conv_bwd"), nn.Conv2D, "backward", _conv_bwd),
    ("nn.activation", nn.Activation, "forward", None),
    ("nn.activation", nn.Activation, "backward", None),
    ("nn.pool_upsample", nn.MaxPool2, "forward", None),
    ("nn.pool_upsample", nn.MaxPool2, "backward", None),
    ("nn.pool_upsample", nn.UpsampleNearest2, "forward", None),
    ("nn.pool_upsample", nn.UpsampleNearest2, "backward", None),
    ("nn.loss", models, "mse_loss", None),
    ("nn.loss", models, "softmax_cross_entropy", None),
    ("nn.adam", nn.Adam, "step", None),
    ("models.loss_and_grads", models.ChannelNet, "loss_and_grads", None),
    ("models.loss_and_grads", models.SegNet, "loss_and_grads", None),
    ("models.set_params", training, "set_params", None),
    ("models.set_params", metrics, "set_params", None),
    ("models.get_params", training, "get_params", None),
    ("models.get_params", models, "get_params", None),
    ("training.train_local", federated, "train_local", _train_local),
    ("datasets.gen", experiments, "gen_channel_dataset", None),
    ("datasets.gen", experiments, "gen_radar_dataset", None),
    ("datasets.stack_batch", training, "stack_batch", None),
    ("datasets.stack_batch", metrics, "stack_batch", None),
    ("experiments.make_datasets", experiments.ExperimentConfig, "make_datasets", None),
    ("metrics.eval", federated, "eval_channel", None),
    ("metrics.eval", federated, "eval_radar", None),
    ("masking.derive_pair_key", masking, "derive_pair_key", _derive_pair_key),
    ("masking.mask_keystream", masking, "mask_keystream", _mask_keystream),
    ("masking.signs", masking, "signs_from_bits", None),
    ("masking.bits_to_mask", masking, "bits_to_mask", None),
    ("masking.pair_mask_sum", masking, "pair_mask_sum", None),
    ("masking.apply", federated, "apply_pairwise_masks", None),
    ("masking.apply", masking, "apply_pairwise_masks", None),
    ("masking.aggregate", federated, "aggregate", None),
    ("masking.aggregate", masking, "aggregate", None),
    ("masking.leakage", federated, "leakage_proxies", None),
    ("bits.sha256_expand", masking, "sha256_expand_bits", _sha256_expand),
    ("bits.sha256_expand", qkd, "sha256_expand_bits", _sha256_expand),
    ("bits.pack_unpack", masking, "pack_bits", None),
    ("bits.pack_unpack", qkd, "pack_bits", None),
    ("bits.pack_unpack", bits, "unpack_bits", None),
    ("params.add", params, "add", _params_call),
    ("params.sub", params, "sub", _params_call),
    ("params.mean", params, "mean", _params_call),
    ("params.max_abs_diff", params, "max_abs_diff", _params_call),
    ("params.flat", params.ParamVec, "flat", _params_call),
    ("qkd.run_bb84", federated, "run_bb84", _run_bb84),
    ("qkd.run_bb84", qkd, "run_bb84", _run_bb84),
    ("qkd.privacy_amplify", qkd, "privacy_amplify", None),
    ("qkd.qber", qkd, "qber_of", None),
    ("federated.run_round", federated, "run_round", _run_round),
    ("federated.partition", federated, "partition_non_iid", None),
]

_FL_SPANS = [
    "nn.activation", "nn.loss", "nn.adam", "models.loss_and_grads",
    "models.set_params", "models.get_params", "training.train_local",
    "datasets.gen", "datasets.stack_batch", "experiments.make_datasets",
    "metrics.eval", "masking.derive_pair_key", "masking.mask_keystream",
    "masking.signs", "masking.pair_mask_sum", "masking.apply",
    "masking.aggregate", "masking.leakage", "bits.sha256_expand",
    "bits.pack_unpack", "params.add", "params.sub", "params.mean",
    "params.max_abs_diff", "params.flat", "qkd.run_bb84",
    "qkd.privacy_amplify", "qkd.qber", "federated.run_round",
    "federated.partition",
]

# Spans that must fire on each workload; a silent one fails the traced run.
REQUIRED_SPANS = {
    "channel_k20": _FL_SPANS
    + [f"nn.conv_{k}.{c}" for k in ("fwd", "bwd") for c in CHANNEL_CONVS],
    "radar_k10": _FL_SPANS + ["nn.pool_upsample"]
    + [f"nn.conv_{k}.{c}" for k in ("fwd", "bwd") for c in RADAR_CONVS],
    "secagg_k20_1m": [
        "masking.derive_pair_key", "masking.mask_keystream", "masking.signs",
        "masking.pair_mask_sum", "masking.apply", "masking.aggregate",
        "bits.sha256_expand", "bits.pack_unpack", "params.add", "params.mean",
        "models.get_params", "qkd.run_bb84",
    ],
    "qkd_sweep": [
        "qkd.run_bb84", "qkd.privacy_amplify", "qkd.qber",
        "bits.sha256_expand", "bits.pack_unpack",
    ],
}

# Phases of a round: spans whose parent is `federated.run_round`.
PHASES = {
    "federated.qkd_ms": ("qkd.run_bb84",),
    "federated.train_ms": ("training.train_local",),
    "federated.mask_ms": ("masking.apply",),
    "federated.aggregate_ms": ("masking.aggregate", "params.mean", "params.max_abs_diff"),
    "federated.eval_ms": ("metrics.eval",),
    "federated.leakage_ms": ("params.sub", "masking.leakage"),
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def summarize(tracer: Tracer):
    """Aggregate the spans: per-name calls/total/self over ops and set-up."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    ops = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
    setup = defaultdict(lambda: [0, 0.0, 0.0])
    phase = defaultdict(float)  # child name under run_round -> total s
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op == SETUP:
            agg = setup
        elif isinstance(op, int):
            agg = ops
        else:
            continue
        dur = end - start
        rec = agg[name]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child[i]
        if agg is ops and parent >= 0 and tracer.spans[parent][0] == "federated.run_round":
            phase[name] += dur
    return ops, setup, phase


def silent_spans(workload: str, ops, setup) -> list[str]:
    return [s for s in REQUIRED_SPANS[workload] if ops[s][0] + setup[s][0] == 0]


def per_layer_metrics(tracer: Tracer, summary, n_ops: int, cycle_counts: dict,
                      overhead: float):
    """Every per-layer metric; 0 where the layer does not run on the workload.

    `summary` is `summarize(tracer)`.  Times are per traced op (per set-up
    for set-up layers), in ms.  Counts are per op over the first cycle of
    ops, so they repeat exactly.
    """
    ops, setup, phase = summary
    total_counts = defaultdict(int)
    for op, per_op in tracer.counts.items():
        if isinstance(op, int):
            for k, v in per_op.items():
                total_counts[k] += v

    def per_op_ms(name, field=1):
        return 1e3 * ops[name][field] / n_ops

    def total_ms(*names):
        return sum(per_op_ms(n) for n in names)

    def setup_ms(name):
        return 1e3 * setup[name][1]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for c in CHANNEL_CONVS + RADAR_CONVS:
        m[f"nn.conv_fwd_ms.{c}"] = (per_op_ms(f"nn.conv_fwd.{c}"), "ms")
        m[f"nn.conv_bwd_ms.{c}"] = (per_op_ms(f"nn.conv_bwd.{c}"), "ms")
    for kind in ("fwd", "bwd"):
        m[f"nn.conv_{kind}.calls"] = (cycle_counts.get(f"nn.conv_{kind}.calls", 0), "count")
        m[f"nn.conv_{kind}.gflop"] = (cycle_counts.get(f"nn.conv_{kind}.flop", 0) / 1e9, "GFLOP")
    conv_s = sum(rec[1] for name, rec in ops.items() if name.startswith("nn.conv_"))
    conv_flop = total_counts["nn.conv_fwd.flop"] + total_counts["nn.conv_bwd.flop"]
    m["nn.conv.gflop_per_s"] = (ratio(conv_flop / 1e9, conv_s), "GFLOP/s")
    m["nn.activation_ms"] = (total_ms("nn.activation"), "ms")
    m["nn.pool_upsample_ms"] = (total_ms("nn.pool_upsample"), "ms")
    m["nn.loss_ms"] = (total_ms("nn.loss"), "ms")
    m["nn.adam_ms"] = (total_ms("nn.adam"), "ms")

    m["models.loss_and_grads.self_ms"] = (per_op_ms("models.loss_and_grads", 2), "ms")
    m["models.set_params_ms"] = (total_ms("models.set_params"), "ms")
    m["models.get_params_ms"] = (total_ms("models.get_params"), "ms")

    m["training.train_local_ms"] = (total_ms("training.train_local"), "ms")
    m["training.train_local.self_ms"] = (per_op_ms("training.train_local", 2), "ms")
    m["training.batches"] = (cycle_counts.get("training.batches", 0), "count")
    m["training.samples"] = (cycle_counts.get("training.samples", 0), "count")
    m["training.samples_per_s"] = (
        ratio(total_counts["training.samples"], ops["training.train_local"][1]), "1/s")

    m["datasets.gen_ms"] = (setup_ms("datasets.gen"), "ms")
    m["datasets.stack_batch_ms"] = (total_ms("datasets.stack_batch"), "ms")
    m["experiments.make_datasets_ms"] = (setup_ms("experiments.make_datasets"), "ms")
    m["metrics.eval_ms"] = (total_ms("metrics.eval"), "ms")

    m["masking.derive_pair_key.calls"] = (
        cycle_counts.get("masking.derive_pair_key.calls", 0), "count")
    m["masking.derive_pair_key_ms"] = (total_ms("masking.derive_pair_key"), "ms")
    m["masking.mask_keystream.calls"] = (
        cycle_counts.get("masking.mask_keystream.calls", 0), "count")
    m["masking.keystream_bytes"] = (cycle_counts.get("masking.keystream_bytes", 0), "bytes")
    m["masking.signs_ms"] = (total_ms("masking.signs"), "ms")
    m["masking.pair_mask_sum.self_ms"] = (per_op_ms("masking.pair_mask_sum", 2), "ms")
    m["masking.apply.self_ms"] = (per_op_ms("masking.apply", 2), "ms")
    m["masking.aggregate_ms"] = (total_ms("masking.aggregate"), "ms")
    m["masking.leakage_ms"] = (total_ms("masking.leakage"), "ms")

    m["bits.sha256_blocks"] = (cycle_counts.get("bits.sha256_blocks", 0), "blocks")
    m["bits.sha256_expand_ms"] = (per_op_ms("bits.sha256_expand", 2), "ms")
    m["bits.pack_unpack_ms"] = (total_ms("bits.pack_unpack"), "ms")

    for op in ("add", "sub", "mean", "max_abs_diff", "flat"):
        m[f"params.{op}_ms"] = (total_ms(f"params.{op}"), "ms")
    m["params.calls"] = (cycle_counts.get("params.calls", 0), "count")

    sessions = cycle_counts.get("qkd.sessions", 0)
    m["qkd.run_bb84.calls"] = (sessions, "count")
    m["qkd.run_bb84.self_ms"] = (per_op_ms("qkd.run_bb84", 2), "ms")
    m["qkd.privacy_amplify_ms"] = (total_ms("qkd.privacy_amplify"), "ms")
    m["qkd.qber_ms"] = (total_ms("qkd.qber"), "ms")
    m["qkd.qubits"] = (cycle_counts.get("qkd.qubits", 0), "count")
    m["qkd.sifted_bits"] = (cycle_counts.get("qkd.sifted_bits", 0), "count")
    m["qkd.final_key_bits"] = (cycle_counts.get("qkd.final_key_bits", 0), "count")
    m["qkd.key_yield"] = (
        ratio(cycle_counts.get("qkd.final_key_bits", 0), cycle_counts.get("qkd.qubits", 0)),
        "ratio")
    m["qkd.abort_ratio"] = (ratio(cycle_counts.get("qkd.aborts", 0), sessions), "ratio")

    m["federated.run_round.self_ms"] = (per_op_ms("federated.run_round", 2), "ms")
    for metric, names in PHASES.items():
        m[metric] = (1e3 * sum(phase[n] for n in names) / n_ops, "ms")
    m["federated.partition_ms"] = (setup_ms("federated.partition"), "ms")
    m["federated.secure_round_ratio"] = (
        ratio(total_counts["federated.secure_rounds"], total_counts["federated.rounds"]),
        "ratio")
    m["bench.tracing_overhead"] = (overhead, "ratio")
    return m
