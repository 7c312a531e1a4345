"""Per-layer tracing from outside the program.

`patched` swaps drdt3's public functions for wrappers for the length of a
`with` block: a function everywhere a drdt3 module holds it (so calls from
inside the package are wrapped too), a method on its class. `Tracer` makes
the wrappers record spans. The probes run one layer's forward and backward
in isolation, which a span cannot split, and count autodiff graph nodes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time
import tracemalloc
from bisect import bisect_left

import numpy as np

from drdt3 import autodiff, bundle, diffusion, dt3, envs, training

# (module of drdt3, attribute): the layer boundaries the tracer wraps.
SPANS = (
    ("autodiff", "backward"), ("autodiff", "check_gradients"),
    ("bundle", "save_bundle"), ("bundle", "load_bundle"),
    ("diffusion", "diffusion_loss"), ("diffusion", "predict_noise"),
    ("diffusion", "sample_action"),
    ("dt3", "predict_coarse_actions_batch"), ("dt3", "embed_context"),
    ("dt3", "causal_attention"), ("dt3", "ttt_sublayer"),
    ("envs", "generate_dataset"), ("envs", "rollout"),
    ("envs", "PointReach.step"), ("envs", "StitchChain.step"),
    ("training", "train"), ("training", "evaluate_bundle"),
    ("training", "sample_context_batch"), ("training", "dt3_loss"),
    ("training", "clip_grad_norm"), ("training", "AdamW.step"),
)
MIB = 2.0 ** 20


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each target by `make_wrapper(name, original)` inside the block.

    `name` is "module.attr". Everything is restored on exit, in reverse order.
    """
    undo = []
    try:
        for mod_name, attr in targets:
            owner = importlib.import_module("drdt3." + mod_name)
            *classes, leaf = attr.split(".")
            for c in classes:
                owner = getattr(owner, c)
            orig = vars(owner)[leaf]
            wrapper = make_wrapper(f"{mod_name}.{attr}", orig)
            holders = [owner] if classes else [
                m for n, m in list(sys.modules.items())
                if n == "drdt3" or n.startswith("drdt3.")]
            for h in holders:
                for key, val in list(vars(h).items()):
                    if val is orig:
                        setattr(h, key, wrapper)
                        undo.append((h, key, orig))
        yield
    finally:
        for h, key, orig in reversed(undo):
            setattr(h, key, orig)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
        return traced

    def tracing(self):
        return patched(SPANS, self.wrap)

    def by_name(self):
        """name -> (durations, self times) in seconds. A span's self time is
        its duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), c in zip(self.spans, child):
            total, own = out.setdefault(name, ([], []))
            total.append(end - start)
            own.append(end - start - c)
        return out

    def records(self, stamps):
        """Spans relative to the first, each with the index of the operation
        it belongs to (the first operation ending at or after its start)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start_ms": 1e3 * (s - t0), "end_ms": 1e3 * (e - t0),
             "parent": p, "op": bisect_left(stamps, s)}
            for n, s, e, p in self.spans
        ]


def count_nodes(out):
    """Recorded operations in the autodiff graph that produced `out`.

    autodiff exposes no graph walker, so this reads the node fields that
    `autodiff.backward` itself walks.
    """
    seen, stack, n = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        n += node._backward is not None
        stack.extend(node._parents)
    return n


@contextlib.contextmanager
def traced_peak():
    """Yields a list that receives the tracemalloc peak (MiB) over the block,
    above what was allocated when it began."""
    result = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield result
        result.append((tracemalloc.get_traced_memory()[1] - base) / MIB)
    finally:
        tracemalloc.stop()


def _reduce(out, rng):
    """A scalar that depends on every output entry, to start backward from."""
    if out.data.size == 1:
        return out
    cot = autodiff.DArray(rng.standard_normal(out.shape))
    return autodiff.sum_all(autodiff.mul(out, cot))


PROBE_REPEATS = 3


def backward_probes(state):
    """Forward and backward of each dt3 and diffusion layer in isolation, at
    the training workload's shapes. Returns (bwd seconds by layer, TTT
    sub-layer peak MiB). Each layer's input is a fresh leaf, so its backward
    stops at the layer boundary."""
    cfg, p = state.cfg, state.bundle
    rng = np.random.default_rng(state.seed)
    batch, targets = training.sample_context_batch(
        state.store, cfg.context_len, cfg.batch_size, rng, state.spec)
    tokens, mask = dt3.embed_context(batch, p.dt3)
    x_attn = autodiff.DArray(tokens.data, requires_grad=True)
    x_ttt = autodiff.DArray(
        dt3.causal_attention(x_attn, p.dt3.block, mask).data,
        requires_grad=True)
    pred = dt3.predict_coarse_actions_batch(batch, p.dt3)
    cond = autodiff.DArray(pred.data[:, -1, :], requires_grad=True)
    a0 = targets[:, -1, :]
    n = cfg.n_diffusion_steps
    i = rng.integers(1, n + 1, size=cfg.batch_size)
    eps = rng.standard_normal(a0.shape)
    sched = diffusion.vp_schedule(n, cfg.beta_min, cfg.beta_max)
    layers = {
        "dt3.embed_context": lambda: dt3.embed_context(batch, p.dt3)[0],
        "dt3.causal_attention":
            lambda: dt3.causal_attention(x_attn, p.dt3.block, mask),
        "dt3.ttt_sublayer": lambda: dt3.ttt_sublayer(x_ttt, p.dt3.block, mask),
        "diffusion.diffusion_loss":
            lambda: diffusion.diffusion_loss(a0, cond, i, eps, p.noise, sched),
    }
    bwd = {}
    for name, fwd in layers.items():
        times = []
        for _ in range(PROBE_REPEATS):
            loss = _reduce(fwd(), rng)
            t = time.perf_counter()
            autodiff.backward(loss)
            times.append(time.perf_counter() - t)
            del loss  # free this graph before the next forward builds one
        bwd[name] = float(np.median(times))
    with traced_peak() as peak:
        autodiff.backward(_reduce(layers["dt3.ttt_sublayer"](), rng))
    autodiff.zero_grads(p.parameters())
    return bwd, peak[0]


def one_update(state):
    """Run a single update through `training.train` on a fresh bundle."""
    cfg = dataclasses.replace(state.cfg, updates_per_epoch=1)
    b = bundle.fresh_bundle(cfg, state.store)
    training.train(cfg, state.store, bundle=b, eval_each_epoch=False)


def update_nodes_and_peak(state):
    """Graph nodes of one update's loss, and the update's tracemalloc peak."""
    counts = []

    def counting(name, fn):
        def backward(loss, *args, **kwargs):
            counts.append(count_nodes(loss))
            return fn(loss, *args, **kwargs)
        return backward

    with patched([("autodiff", "backward")], counting):
        one_update(state)
    with traced_peak() as peak:
        one_update(state)
    return counts[0], peak[0]


def eval_step_nodes(state):
    """Graph nodes recorded per env-step by one drdt3-mode episode."""
    nodes, steps = [0], [0]
    env_name = type(envs.make_env(state.bundle.env_id)).__name__

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if name.endswith(".step"):
                steps[0] += 1
            else:
                nodes[0] += count_nodes(out)
            return out
        return wrapper

    targets = [("dt3", "predict_coarse_actions_batch"),
               ("diffusion", "predict_noise"), ("envs", f"{env_name}.step")]
    with patched(targets, counting):
        training.evaluate_bundle(state.bundle, 1, seed=state.seed,
                                 mode="drdt3")
    return nodes[0] / steps[0]


def span_metrics(run_tracer, setup_tracer, ops):
    """Per-layer metrics from the spans of the traced run and set-up: median
    milliseconds per call (self time where the name says so), calls per
    operation, and set-up seconds."""
    spans, setup = run_tracer.by_name(), setup_tracer.by_name()

    def med(name, own=False, spans=spans, scale=1e3):
        if name not in spans:
            return 0.0
        return scale * float(np.median(spans[name][1 if own else 0]))

    out = {f"dt3.{layer}.fwd_ms": med(f"dt3.{layer}", own=True)
           for layer in ("embed_context", "causal_attention", "ttt_sublayer")}
    for name in ("dt3.predict_coarse_actions_batch", "autodiff.backward"):
        out[f"{name}.self_ms"] = med(name, own=True)
    for name in ("autodiff.check_gradients", "diffusion.sample_action",
                 "training.sample_context_batch", "training.clip_grad_norm",
                 "training.AdamW.step"):
        out[f"{name}.ms"] = med(name)
    for name in ("diffusion.diffusion_loss", "training.dt3_loss"):
        out[f"{name}.fwd_ms"] = med(name)
    out["diffusion.predict_noise.calls"] = len(
        spans.get("diffusion.predict_noise", ((), ()))[0]) / ops
    out["envs.env_step.ms"] = max(med("envs.PointReach.step"),
                                  med("envs.StitchChain.step"))
    out["envs.generate_dataset.s"] = med("envs.generate_dataset", spans=setup,
                                         scale=1.0)
    for name in ("bundle.save_bundle", "bundle.load_bundle"):
        out[f"{name}.ms"] = med(name, spans=setup)
    return out


def probe_metrics(family, state):
    """Per-layer metrics that need their own runs: backward and memory probes
    for training, graph node counts for every workload."""
    if family == "train":
        bwd, ttt_peak = backward_probes(state)
        nodes, peak = update_nodes_and_peak(state)
        out = {f"{layer}.bwd_ms": 1e3 * s for layer, s in bwd.items()}
        out.update({"dt3.ttt_sublayer.peak_mib": ttt_peak,
                    "autodiff.nodes_per_update": nodes,
                    "training.update.peak_traced_mib": peak})
        return out
    if family == "gradcheck":
        return {"autodiff.nodes_per_update": count_nodes(state.loss())}
    return {"autodiff.nodes_per_eval_step": eval_step_nodes(state)}
