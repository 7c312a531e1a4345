"""The benchmark's metrics: names, units, and what each layer should move.

Every workload is a closed loop over one kind of operation: a training
update (train-stitch, train-default), an env-step (eval-stitch) or a loss
evaluation (gradcheck). The end-to-end metrics are defined per operation, so
every workload reports every one of them.
"""

# name: (unit, better). The operation rate and the other latency percentiles
# are printed but not declared. The shared CPU they were measured on switches
# between a fast and a slow state (about 1.5x apart) every few seconds, and
# some runs never see the fast state, so the rate, the median and the 10th
# percentile moved by up to 35-50% between runs. The 95th percentile sits in
# the slow state, which every run visits; it moved by at most 18%.
END_TO_END = {
    "latency_ms.p95": ("ms", "lower"),
    "loss_final": ("1", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

# The declared latency moves with the printed rate, as the loop is closed.
_TRAIN = "latency_ms.p95 on train-stitch and train-default"

# name: (unit, better, the end-to-end metric and workload it should move).
# Metrics of a layer a workload does not exercise read 0 on that workload.
PER_LAYER = {
    "dt3.ttt_sublayer.fwd_ms": (
        "ms", "lower",
        "latency_ms.p95 on train-stitch (largest share) and eval-stitch"),
    "dt3.ttt_sublayer.bwd_ms": (
        "ms", "lower", "latency_ms.p95 on train-stitch (largest share)"),
    "dt3.ttt_sublayer.peak_mib": (
        "MiB", "lower", "peak_rss_mib on train-default"),
    "dt3.embed_context.fwd_ms": ("ms", "lower", _TRAIN),
    "dt3.embed_context.bwd_ms": ("ms", "lower", _TRAIN),
    "dt3.causal_attention.fwd_ms": ("ms", "lower", _TRAIN),
    "dt3.causal_attention.bwd_ms": ("ms", "lower", _TRAIN),
    "dt3.predict_coarse_actions_batch.self_ms": ("ms", "lower", _TRAIN),
    "autodiff.backward.self_ms": (
        "ms", "lower", _TRAIN + "; peak_rss_mib on train-default"),
    "autodiff.nodes_per_update": (
        "count", "lower", _TRAIN + "; peak_rss_mib on train-default"),
    "autodiff.nodes_per_eval_step": (
        "count", "lower", "latency_ms.p95 on eval-stitch"),
    "autodiff.check_gradients.ms": (
        "ms", "lower", "latency_ms.p95 on gradcheck"),
    "diffusion.sample_action.ms": (
        "ms", "lower", "latency_ms.p95 on eval-stitch"),
    "diffusion.predict_noise.calls": (
        "count", "lower", "latency_ms.p95 on eval-stitch"),
    "diffusion.diffusion_loss.fwd_ms": (
        "ms", "lower", _TRAIN + " (small share)"),
    "diffusion.diffusion_loss.bwd_ms": (
        "ms", "lower", _TRAIN + " (small share)"),
    "training.sample_context_batch.ms": (
        "ms", "lower",
        "latency_ms.p95 on train-stitch; negligible on train-default"),
    "training.dt3_loss.fwd_ms": (
        "ms", "lower", _TRAIN + " (larger share on train-default)"),
    "training.clip_grad_norm.ms": (
        "ms", "lower", _TRAIN + " (larger share on train-default)"),
    "training.AdamW.step.ms": (
        "ms", "lower", _TRAIN + " (larger share on train-default)"),
    "training.update.peak_traced_mib": (
        "MiB", "lower", "peak_rss_mib on train-default"),
    "envs.generate_dataset.s": (
        "s", "lower",
        "setup_s, mostly the sigma calibration on train-default"),
    "envs.env_step.ms": ("ms", "lower", "latency_ms.p95 on eval-stitch"),
    "bundle.save_bundle.ms": ("ms", "lower", "setup_s on eval-stitch"),
    "bundle.load_bundle.ms": ("ms", "lower", "setup_s on eval-stitch"),
    "trace.overhead_pct": (
        "%", "lower", "none: the traced run's cost over the untraced run"),
}
