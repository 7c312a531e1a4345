r"""drdt3 benchmark: training, rollout and gradient-check throughput.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-stitch --seed 1 \
        --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics of `perfbench/metrics.py`;
with --trace 1 it prints the per-layer metrics from a separate traced run.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it restate the metrics for a reader. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: one OpenBLAS thread was as fast as two
# at d=128 on a 2-core machine, and steadier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("train-stitch", "train-default", "eval-stitch", "gradcheck")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine():
    """The machine and the numeric stack the numbers were measured on."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:  # not Linux
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """The thread count OpenBLAS reports, or the pinned value if the library
    cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return BLAS_THREADS


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so a set-up of milliseconds gets enough samples for a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 100


def timed_setups(wl, seed, workdir):
    """The median set-up time, and the state of the last set-up."""
    times = []
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS):
        t = time.perf_counter()
        state = wl.setup(seed, workdir)
        times.append(time.perf_counter() - t)
    return statistics.median(times), state


def end_to_end(wl, args, workdir):
    from perfbench import metrics

    setup_s, state = timed_setups(wl, args.seed, workdir)
    m = wl.run(state, args.seconds, wl.min_ops)
    values = {
        "latency_ms.p95": m.percentile_ms(95),
        "loss_final": wl.loss_final(state) if wl.loss_final else m.loss_final,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": setup_s,
    }
    out = {n: {"value": values[n], "unit": u}
           for n, (u, _) in metrics.END_TO_END.items()}
    return m, out, _readable(wl.family, m, values)


# The readable metric names of each workload family, and its printed tail
# percentile.
_FAMILY = {
    "train": ("train.updates_per_s", "train.update_ms", 95),
    "eval": ("eval.env_steps_per_s", "eval.step_ms", 99),
    "gradcheck": ("gradcheck.loss_evals_per_s", "gradcheck.eval_ms", 99),
}


def _readable(family, m, values):
    rate, lat, tail = _FAMILY[family]
    n = m.ops
    lines = [
        f"{rate} = {m.throughput():.6g} 1/s "
        f"({n} {m.op}s in {m.elapsed:.3f} s after {m.warmup} warm-up)",
    ]
    lines += [f"{lat}.p{q} = {m.percentile_ms(q):.6g} ms (n={n})"
              for q in sorted({10, 50, 95, tail})]
    lines += [
        f"{family}.loss_final = {values['loss_final']:.12g}",
        f"peak_rss_mib = {values['peak_rss_mib']:.6g} MiB",
        f"setup_s = {values['setup_s']:.6g} s (median of set-ups)",
        f"failed_share = {m.failed / max(m.attempted, 1):.6g} "
        f"({m.failed}/{m.attempted} {m.op}s)",
    ]
    return lines


def per_layer(wl, args, workdir):
    """The traced run: an untraced half, then a traced half, then probes."""
    from perfbench import metrics, tracing

    half = args.seconds / 2.0
    plain = wl.run(wl.setup(args.seed, workdir), half, 1)
    setup_tracer, run_tracer = tracing.Tracer(), tracing.Tracer()
    with setup_tracer.tracing():
        state = wl.setup(args.seed, workdir)
    with run_tracer.tracing():
        traced = wl.run(state, half, 1)

    values = dict.fromkeys(metrics.PER_LAYER, 0.0)
    values.update(tracing.span_metrics(run_tracer, setup_tracer,
                                       traced.attempted))
    values.update(tracing.probe_metrics(wl.family, state))
    # The declared percentile, which is steady on a CPU that switches speed.
    values["trace.overhead_pct"] = 100.0 * (
        traced.percentile_ms(95) / plain.percentile_ms(95) - 1.0)

    trace_file = ROOT / ".perfbench" / \
        f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps(run_tracer.records(traced.stamps)))

    out = {n: {"value": values[n], "unit": u}
           for n, (u, _, _) in metrics.PER_LAYER.items()}
    lines = [f"{n} = {values[n]:.6g} {u}  -> moves {moves}"
             for n, (u, _, moves) in metrics.PER_LAYER.items()]
    lines.append(f"spans written to {trace_file.relative_to(ROOT)} "
                 f"({len(run_tracer.spans)} spans, "
                 f"{traced.attempted} {traced.op}s)")
    both = type(traced)(traced.op,
                        attempted=plain.attempted + traced.attempted,
                        failed=plain.failed + traced.failed,
                        problems=plain.problems + traced.problems)
    return both, out, lines


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "drdt3").is_dir():
        print(f"perfbench: no drdt3 sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    wl = workloads.WORKLOADS[args.workload]
    info = machine()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        measure = per_layer if args.trace else end_to_end
        m, metrics_out, lines = measure(wl, args, work)

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(info, sort_keys=True))
    for line in lines:
        print(line)
    for problem in m.problems:
        print(f"FAILED: {problem}")
    if any(not math.isfinite(v["value"]) for v in metrics_out.values()) \
            and m.failed == 0:
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 3
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
