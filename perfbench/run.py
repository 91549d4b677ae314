"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fairgen-blog --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates traced and untraced ops, reports the per-layer metrics of the
traced ones, prints an inclusive/self/count table per span and the
tracing overhead, and writes the spans to
``perfbench/out/trace-<workload>-s<seed>.json``.  The last line of
standard output is always the JSON result; everything else goes before
it.  The exit code is 0 only when every output check passed.
"""

import time

_START = (time.perf_counter(), time.process_time())

import argparse  # noqa: E402  (the clock starts before any import)
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (pure Python: sampling starts before numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set to one thread before numpy is imported
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: setup runs this many times per process; setup_s takes the median
SETUP_REPEATS = 3
#: a run measures at least --seconds and at least this many whole ops, so
#: op_ref_s is a median of two ops or more even when one op outlasts
#: --seconds
MIN_OPS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance() -> dict:
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = (ref_file.read_text().strip() if ref_file.is_file()
                   else "unknown")
        else:
            sha = ref
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {var: os.environ[var] for var in THREAD_ENV},
            "cpu_count": os.cpu_count()}


def layer_metrics(spans, table: dict, ops: int, rounds,
                  op_wall_s: float) -> dict:
    """Per-layer metrics of the traced ops (seconds or counts per op);
    ``table`` is ``tracing.aggregate(spans)``.  ``op_wall_s``, the median
    raw wall time of the untraced ops, is passed through as the reading
    behind ``op_ref_s``."""
    from workloads import serving_figures

    def field(name, key):
        return table.get(name, {}).get(key, 0.0)

    def per_op(name, key="inclusive_s"):
        return field(name, key) / ops

    sgns_s = field("embedding.sgns", "inclusive_s")
    metrics = {
        "graph.walks_s": per_op("graph.walks"),
        "embedding.sgns_s": per_op("embedding.sgns"),
        "embedding.sgns_pairs_per_s": (field("embedding.sgns", "amount")
                                       / sgns_s if sgns_s else 0.0),
        "nn.backward_s": per_op("nn.backward"),
        "nn.backward_calls": per_op("nn.backward", "calls"),
        "nn.lstm_cell_s": per_op("nn.lstm_cell"),
        "nn.lstm_cell_calls": per_op("nn.lstm_cell", "calls"),
        "nn.decode_step_s": per_op("nn.decode_step"),
        "nn.decode_rows": per_op("nn.decode_step", "amount"),
        "train.step_s": per_op("train.step"),
        "train.steps": per_op("train.step", "calls"),
        "core.context_sample_s": per_op("core.context_sample"),
        "core.discriminator_s": per_op("core.discriminator"),
    }
    for model in ("fairgen", "graphrnn", "netgan"):
        for stage in ("fit", "generate"):
            name = f"models.{model}.{stage}"
            metrics[f"{name}_s"] = per_op(name)
    metrics.update({
        "models.sample_s": per_op("models.sample"),
        "models.assemble_s": per_op("models.assemble"),
        "models.propose_s": per_op("models.propose"),
        "eval.classify_s": per_op("eval.classify"),
    })

    # Serving layers: phase (a) engine ticks that decoded rows, and the
    # daemon-reported seconds of phase (b), paired with the client's.
    ticks = [s for s in spans if s.name == "serve.step" and s.phase == "a"
             and s.amount]
    rows = sum(s.amount for s in ticks)
    prefill = [s for s in spans if s.name == "nn.prefill" and s.phase == "a"]
    server = sorted((s for s in spans if s.name == "serve.server"),
                    key=lambda s: s.start)
    traced_rounds = [r for r in rounds if r["traced"]]
    untraced_rounds = [r for r in rounds if not r["traced"]]
    client = [x for r in traced_rounds for x in r["req_latency_s"]]
    if len(server) != len(client):
        raise RuntimeError(f"{len(server)} daemon spans for {len(client)} "
                           "client requests")
    lag_ticks = [x for r in traced_rounds for x in r["batch_latency_ticks"]]
    metrics.update({
        "serve.step_s": sum(s.seconds for s in ticks) / ops,
        "serve.steps": len(ticks) / ops,
        "serve.rows_per_step": rows / len(ticks) if ticks else 0.0,
        "serve.prefill_s": sum(s.seconds for s in prefill) / ops,
        "serve.latency_ticks_p50": (statistics.median(lag_ticks)
                                    if lag_ticks else 0.0),
        "serve.server_s": (statistics.median(s.amount for s in server)
                           if server else 0.0),
        "serve.http_overhead_s": (
            statistics.median(c - s.amount for c, s in zip(client, server))
            if server else 0.0),
    })
    figures = serving_figures(untraced_rounds) if untraced_rounds else {}
    for name in ("walks_per_s", "batch_p50_s", "batch_p90_s", "req_p50_s",
                 "req_p90_s"):
        metrics[f"serve.{name}"] = figures.get(name, 0.0)
    metrics["op_wall_s"] = op_wall_s
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", "_rows", "steps", "rows_per_step")):
        return "count"
    if name.endswith("_ticks_p50"):
        return "ticks"
    return "1/s" if name.endswith("_per_s") else "s"


def print_span_table(table: dict, ops: int) -> None:
    print(f"# per-layer spans over {ops} traced op(s), per op:")
    print(f"# {'span':<26}{'calls':>12}{'inclusive_s':>14}{'self_s':>12}")
    for name in sorted(table):
        row = table[name]
        print(f"# {name:<26}{row['calls'] / ops:>12.1f}"
              f"{row['inclusive_s'] / ops:>14.6f}{row['self_s'] / ops:>12.6f}")


def main(argv=None) -> int:
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        return run(parse_args(argv), sampler, sampler.mark(_START))
    finally:
        sampler.stop()


def median_of(timings, field: str) -> float:
    return statistics.median(getattr(t, field) for t in timings)


def run(args, sampler, imports_mark) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src})",
              file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    os.environ.pop("REPRO_TRACE", None)  # the program's own tracer stays off
    sys.path[:0] = [str(HERE), str(src)]

    from checks import CheckError
    from tracing import Recorder, aggregate
    from workloads import WORKLOADS, derive_seed, serving_figures

    imports = sampler.since(imports_mark)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"# provenance: {json.dumps(provenance())}")

    # Set-up: imports once, then the in-process set-up several times
    # (dataset, setup fit, untimed warm-up op); the last one is kept.
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[args.workload]()
        gc.collect()
        mark = sampler.mark()
        workload.setup(args.seed)
        setups.append(sampler.since(mark))
    setup_s = imports.ref_s + median_of(setups, "ref_s")

    recorder = Recorder() if args.trace else None
    workload.recorder = recorder
    ops = {False: [], True: []}  # keyed by "traced": a Timing per op
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while index < MIN_OPS or time.perf_counter() - start < args.seconds:
        traced = recorder is not None and index % 2 == 0
        if traced:
            recorder.install()
        attempted += workload.units
        gc.collect()  # an op does not inherit the last one's garbage
        mark = sampler.mark()
        try:
            workload.op(index, derive_seed(args.seed, 2, index))
        except Exception:
            failed += workload.units
            traceback.print_exc()
        else:
            ops[traced].append(sampler.since(mark))
        finally:
            if traced:
                recorder.uninstall()
        index += 1
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = True
    try:
        workload.check()
    except CheckError as exc:
        correct = False
        print(f"# CHECK FAILED: {exc}")
    finally:
        workload.close()

    for label, timings in (("imports", [imports]), ("setup", setups),
                           ("untraced ops", ops[False]),
                           ("traced ops", ops[True])):
        if timings:
            print(f"# {label}: " + ", ".join(
                f"{field} {[round(getattr(t, field), 4) for t in timings]}"
                for field in ("wall_s", "ref_s", "cpu_ref_s", "kernel_s")))
    rounds = getattr(workload, "rounds", [])
    if rounds and not recorder:
        print(f"# serving: {json.dumps(serving_figures(rounds))}")

    untraced, traced = ops[False], ops[True]
    if recorder is None:
        if not untraced:
            correct = False
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ref_s": (median_of(untraced, "ref_s") if untraced else 0.0,
                         "s"),
            "op_cpu_ref_s": (median_of(untraced, "cpu_ref_s")
                             if untraced else 0.0, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        if not traced or not untraced:
            correct = False
            layer = {}
        else:
            table = aggregate(recorder.spans)
            print_span_table(table, len(traced))
            layer = layer_metrics(recorder.spans, table, len(traced), rounds,
                                  median_of(untraced, "wall_s"))
            with_trace = median_of(traced, "ref_s")
            without = median_of(untraced, "ref_s")
            over = with_trace - without
            print(f"# tracing overhead: traced op_ref_s {with_trace:.4f} - "
                  f"untraced op_ref_s {without:.4f} = {over:+.4f} s "
                  f"({over / without:+.1%})")
        out = HERE / "out" / f"trace-{args.workload}-s{args.seed}.json"
        recorder.write_chrome_trace(out)
        print(f"# spans written to {out.relative_to(ROOT)}")
        metrics = {name: (value, layer_unit(name))
                   for name, value in layer.items()}

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
