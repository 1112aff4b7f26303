"""The metrics a run reports, by name and unit, in BENCHMARK.json order.

An untraced run reports END_TO_END for every workload. A traced run
reports the full PER_LAYER list, with 0 for what a workload does not
exercise (for example `tensor.backward.calls` on decode); its times are
self times, a span's duration minus that of the spans it called.
"""

from __future__ import annotations

import statistics

from tracer import LAYER_MODULES, RSS_SPANS, TENSOR_OPS

END_TO_END = (("setup_s", "s"), ("command_s", "s"), ("frames_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("quality_db", "dB"))

SELF_TIMED = ("tensor.backward", "model.forward_batch", "model.replace_params",
              "training.meta_step", "training.sample_batch",
              "data.load_video", "data.save_video",
              "codec.encode_video", "codec.decode_video",
              "codec.load_encoding", "codec.save_encoding",
              "container.load_model", "container.model_fingerprint",
              "container.save_model", "container.fnv1a64", "manifest.hash_file",
              "metrics.quality_report", "cli.train", "cli.encode", "cli.decode")

PER_LAYER = (
    [(f"tensor.{op}.fwd_s", "s") for op in TENSOR_OPS]
    + [(f"tensor.{op}.calls", "count") for op in TENSOR_OPS]
    + [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [("tensor.backward.calls", "count"), ("model.forward_batch.calls", "count"),
       ("model.forward_batch.rows", "count"), ("tensor.fwd_bytes", "B"),
       ("tensor.graph_bytes_at_backward", "B"), ("container.fnv1a64.bytes", "B"),
       ("manifest.hash_file.bytes", "B")]
    + [(f"{name}.rss_rise_mb", "MB") for name in RSS_SPANS]
    + [(f"{layer}.self_s", "s") for layer in (*LAYER_MODULES, "cli")]
    + [("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.overhead_s", "s"),
       ("trace.span_self_s", "s"), ("trace.spans", "count")]
)


def per_layer_metrics(tracer, untraced_command_s, traced_command_s) -> dict:
    """{name: (value, unit)} for every PER_LAYER metric."""
    rows = tracer.summary()
    absent = {"calls": 0, "self_s": 0.0, "count": 0, "rss_rise_mb": 0.0}

    def row(name):
        return rows.get(name, absent)

    values = {}
    for op in TENSOR_OPS:
        values[f"tensor.{op}.fwd_s"] = row(f"tensor.{op}")["self_s"]
        values[f"tensor.{op}.calls"] = row(f"tensor.{op}")["calls"]
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = row(name)["self_s"]
    values["tensor.backward.calls"] = row("tensor.backward")["calls"]
    values["model.forward_batch.calls"] = row("model.forward_batch")["calls"]
    values["model.forward_batch.rows"] = row("model.forward_batch")["count"]
    values["tensor.fwd_bytes"] = sum(r["count"] for n, r in rows.items()
                                     if n.startswith("tensor.") and n != "tensor.backward")
    values["tensor.graph_bytes_at_backward"] = tracer.graph_bytes_at_backward
    values["container.fnv1a64.bytes"] = row("container.fnv1a64")["count"]
    values["manifest.hash_file.bytes"] = row("manifest.hash_file")["count"]
    for name in RSS_SPANS:
        values[f"{name}.rss_rise_mb"] = row(name)["rss_rise_mb"]
    for layer in (*LAYER_MODULES, "cli"):
        values[f"{layer}.self_s"] = sum(r["self_s"] for n, r in rows.items()
                                        if n.startswith(layer + "."))
    untraced, traced = sum(untraced_command_s), sum(traced_command_s)
    values["trace.untraced_s"] = untraced
    values["trace.traced_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.span_self_s"] = sum(r["self_s"] for r in rows.values())
    values["trace.spans"] = len(tracer.spans)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def end_to_end_metrics(setup_times, result: dict, peak_rss_mb: float) -> dict:
    """{name: (value, unit)} for every END_TO_END metric."""
    values = {"setup_s": statistics.median(setup_times),
              "command_s": statistics.median(result["command_s"]),
              "frames_per_s": result["frames_per_s"],
              "peak_rss_mb": peak_rss_mb,
              "quality_db": result["quality_db"]}
    return {name: (values[name], unit) for name, unit in END_TO_END}
