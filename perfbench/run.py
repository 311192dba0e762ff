"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload plan_serve --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the workload's fixed traced work three times (untraced,
with spans around every layer boundary, untraced again) and reports the
per-layer metrics.  Each run writes a result file (host, seed, metrics, the
workload's own figures) under ``perfbench/results/``; a traced run also
writes its spans there.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Run from the repository root.  The program is imported from ``src/``;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")
NAMES = ("alf_train", "plan_serve", "sweep_store")


def _percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else float("nan")


def end_to_end(m) -> Dict[str, Dict[str, Any]]:
    lat = m.latencies
    values = {
        "setup_s": (float(np.median(m.setup)), "s"),
        "op_p50_ms": (_percentile_ms(lat, 50), "ms"),
        "op_p90_ms": (_percentile_ms(lat, 90), "ms"),
        "ops_per_s": (len(lat) / sum(lat) if lat else float("nan"), "1/s"),
        "ok_frac": (1.0 - m.failed / max(m.attempted, 1), "ratio"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def per_layer(workload: str, seed: int, summary, untraced: List[float],
              traced) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of a traced run; layers it bypasses read 0.

    ``untraced`` holds the operation latencies of the same work run
    without spans, the base of ``trace.overhead_ratio`` and of the
    served plan's ``deploy.bound_ratio``.
    """
    from workloads import dense_plan_p50_ms, gemm_bound_ms, TRACE_WORK

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ms(name, q, key="durations"):
        values = summary.get(name, {}).get(key, [])
        return float(np.percentile(values, q)) * 1e3 if values else 0.0

    out: Dict[str, tuple] = {}
    for kernel in ("im2col", "col2im", "einsum", "matmul", "im2col_out",
                   "einsum_out", "matmul_out", "backward"):
        out[f"nn.{kernel}.s"] = (self_s(f"nn.{kernel}"), "s")
    out["nn.im2col.calls"] = (calls("nn.im2col"), "count")
    out["nn.einsum.calls"] = (calls("nn.einsum"), "count")
    out["core.train_batch.calls"] = (calls("core.train_batch"), "count")
    out["core.train_batch.ms_p50"] = (ms("core.train_batch", 50), "ms")
    # Inclusive training time over the wall time of the compress() calls
    # that ran it: how much of alf_train the training step decides.
    compress_total = traced.extra.get("compress_total_s", 0.0)
    train_total = sum(summary.get("core.train_batch", {}).get("durations", []))
    out["core.train_batch.share"] = (train_total / compress_total
                                     if compress_total else 0.0, "ratio")
    out["core.evaluate.s"] = (self_s("core.evaluate"), "s")
    out["core.compress_model.s"] = (self_s("core.compress_model"), "s")
    out["data.batches.s"] = (self_s("data.batches"), "s")
    for stage in ("fit", "finalize", "eval"):
        out[f"pipeline.{stage}.s"] = (self_s(f"pipeline.{stage}"), "s")
    out["metrics.profile_model.s"] = (self_s("metrics.profile_model"), "s")
    out["metrics.profile_model.calls"] = (calls("metrics.profile_model"),
                                          "count")
    out["hardware.evaluate_layers.s"] = (self_s("hardware.evaluate_layers"),
                                         "s")
    out["hardware.evaluate_layers.calls"] = (
        calls("hardware.evaluate_layers"), "count")
    report = traced.extra.get("report")
    out["hardware.latency_reduction"] = (
        (report.latency_reduction or 0.0) if report is not None else 0.0,
        "ratio")
    out["hardware.energy_reduction"] = (
        (report.energy_reduction or 0.0) if report is not None else 0.0,
        "ratio")
    out["session.submit.self_ms_p50"] = (ms("session.submit", 50, "self"),
                                         "ms")
    out["session.shard.s"] = (self_s("session.shard"), "s")

    out["cache.get_hit.ms_p50"] = (ms("cache.get_hit", 50), "ms")
    out["cache.get_hit.ms_p90"] = (ms("cache.get_hit", 90), "ms")
    out["cache.get_miss.ms_p50"] = (ms("cache.get_miss", 50), "ms")
    out["cache.put.ms_p50"] = (ms("cache.put", 50), "ms")
    out["cache.put.ms_p90"] = (ms("cache.put", 90), "ms")
    lookups = calls("cache.get_hit") + calls("cache.get_miss")
    out["cache.hit_ratio"] = (calls("cache.get_hit") / lookups
                              if lookups else 0.0, "ratio")
    stats = traced.extra.get("store_stats")
    out["cache.entries"] = ((stats.entries + stats.plans) if stats else 0,
                            "count")
    out["cache.store_bytes"] = (stats.total_bytes if stats else 0, "bytes")
    out["cache.get_plan.s"] = (self_s("cache.get_plan"), "s")
    out["cache.put_plan.s"] = (self_s("cache.put_plan"), "s")
    out["digests.payload_digest.s"] = (self_s("digests.payload_digest"), "s")
    out["digests.payload_digest.calls"] = (calls("digests.payload_digest"),
                                           "count")
    out["digests.canonical_json.s"] = (self_s("digests.canonical_json"), "s")

    out["deploy.compile.s"] = (self_s("deploy.compile"), "s")
    out["deploy.to_dict.s"] = (self_s("deploy.to_dict"), "s")
    out["deploy.from_dict.s"] = (self_s("deploy.from_dict"), "s")
    deploy = dict.fromkeys(
        ("steps", "peak_buffer_bytes", "payload_bytes", "macs", "params",
         "dense_macs", "dense_params", "gemm_bound_ms", "bound_ratio",
         "dense_p50_ms"), 0)
    base = float(np.median(untraced))
    plan = traced.extra.get("plan")
    if plan is not None:
        from repro.api import canonical_json
        shapes = [shape.with_batch(1)
                  for shape in report.compressed.layer_shapes]
        bound = gemm_bound_ms(shapes, seed)
        deploy.update(
            steps=len(plan.steps),
            peak_buffer_bytes=plan.peak_buffer_bytes,
            payload_bytes=len(canonical_json(plan.to_dict()).encode("utf-8")),
            macs=sum(shape.macs for shape in shapes),
            params=report.cost["params"],
            dense_macs=report.dense.cost["macs"],
            dense_params=report.dense.cost["params"],
            gemm_bound_ms=bound,
            bound_ratio=base * 1e3 / bound,
            dense_p50_ms=dense_plan_p50_ms(seed, TRACE_WORK[workload]))
    units = {"steps": "count", "peak_buffer_bytes": "bytes",
             "payload_bytes": "bytes", "macs": "count", "params": "count",
             "dense_macs": "count", "dense_params": "count",
             "gemm_bound_ms": "ms", "bound_ratio": "ratio",
             "dense_p50_ms": "ms"}
    for key, value in deploy.items():
        out[f"deploy.{key}"] = (value, units[key])

    out["trace.overhead_ratio"] = (float(np.median(traced.latencies)) / base,
                                   "ratio")
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in out.items()}


def _print_metrics(workload: str, metrics: Dict[str, Dict[str, Any]],
                   detail: Dict[str, Any]) -> None:
    print(f"== {workload}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    for name, value in detail.items():
        print(f"  ({name:32s} {value:.6g})")


def _ledger(metrics: Dict[str, Dict[str, Any]]) -> None:
    """The paper's hardware-model counts beside this CPU's measured time."""
    v = {name: metric["value"] for name, metric in metrics.items()}
    serve = v["deploy.bound_ratio"] * v["deploy.gemm_bound_ms"]
    dense = v["deploy.dense_p50_ms"]
    print("== paper model vs measured (plan_serve, batch 1, float32)")
    for label, alf, base in (("params", v["deploy.params"],
                              v["deploy.dense_params"]),
                             ("MACs", v["deploy.macs"], v["deploy.dense_macs"])):
        print(f"  {label:6s} {alf:.0f} vs dense {base:.0f}: ALF/dense "
              f"{alf / base:.3f} (base: dense {label})")
    print(f"  Eyeriss model: latency reduction "
          f"{v['hardware.latency_reduction']:.3f}, energy reduction "
          f"{v['hardware.energy_reduction']:.3f} (base: dense model)")
    print(f"  measured p50 {serve:.3f} ms vs dense plan {dense:.3f} ms: "
          f"ALF/dense {serve / dense:.3f} (base: dense plan p50)")
    print(f"  GEMM bound {v['deploy.gemm_bound_ms']:.3f} ms: p50/bound "
          f"{v['deploy.bound_ratio']:.2f} (base: GEMM bound)")


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import workloads
    from host import host_info
    from spans import Tracer

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}"
    workload = workloads.WORKLOADS[args.workload]
    record: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            # Untraced, traced, untraced: the two untraced phases bracket
            # the traced one, so warm-up lands outside the overhead ratio.
            work = workloads.TRACE_WORK[args.workload]
            phase = functools.partial(workload, args.seed, setup_repeats=1)
            before = phase(workloads.Stop(count=work),
                           work_dir=os.path.join(work_dir, "before"))
            tracer = Tracer().install()
            origin = time.perf_counter()
            try:
                traced = phase(workloads.Stop(count=work), tracer=tracer,
                               work_dir=os.path.join(work_dir, "traced"))
            finally:
                tracer.uninstall()
            after = phase(workloads.Stop(count=work),
                          work_dir=os.path.join(work_dir, "after"))
            metrics = per_layer(args.workload, args.seed, tracer.summary(),
                                before.latencies + after.latencies, traced)
            span_file = os.path.join(RESULTS, f"spans-{tag}.jsonl.gz")
            record["spans"] = {"file": os.path.relpath(span_file, ROOT),
                               "count": tracer.write(span_file, origin)}
            measured = [before, traced, after]
            detail = traced.detail
        else:
            m = workload(args.seed, workloads.Stop(seconds=args.seconds),
                         work_dir=work_dir)
            metrics = end_to_end(m)
            measured = [m]
            detail = m.detail
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed for m in measured)
    detail = {**detail, "failed_frac": failed / max(attempted, 1)}
    record.update(host=host_info(ROOT), metrics=metrics, detail=detail,
                  attempted=attempted, failed=failed)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    _print_metrics(args.workload, metrics, detail)
    if args.trace and args.workload == "plan_serve":
        _ledger(metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined: Dict[str, Any] = {}
    attempted = failed = 0
    for name in NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                check=False)
        lines = result.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if result.returncode != 0 or not lines:
            print(f"workload {name} exited with status {result.returncode}",
                  file=sys.stderr)
            return result.returncode or 1
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        for metric, value in last["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {os.path.relpath(SRC, os.getcwd())}"
              "/repro is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
