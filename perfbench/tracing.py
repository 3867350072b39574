"""Spans around locodec's public functions, for the traced run.

The tracer replaces a function at the module attribute where its callers
look it up (``locodec.cli.ingest_session``, ``locodec.protocols.train``,
``locodec.autodiff.backward``, ...) with a wrapper that records one span:
name, start, end and the index of the enclosing span. Spans stay in memory
and are written out once the round ends. Nothing inside ``src/`` changes.

Spans recorded inside ``--jobs`` worker processes stay in those processes
and are not collected; the run's own ``timings.csv`` covers that work.
"""

from __future__ import annotations

import functools
import time

# (span name, module, attribute) for plain functions.
FUNCTION_SPANS = (
    ("synthetic.fleet", "locodec.cli", "generate_synthetic_fleet"),
    ("sessions.ingest", "locodec.cli", "ingest_session"),
    ("sessions.ingest", "locodec.sessions", "ingest_session"),
    ("sessions.window", "locodec.protocols", "window_arrays"),
    ("sessions.window", "locodec.protocols", "speed_window_arrays"),
    ("sessions.normalize", "locodec.protocols", "fit_normalizer"),
    ("sessions.normalize", "locodec.protocols", "normalized_session"),
    ("dsp.band_isolate", "locodec.protocols", "band_isolate"),
    ("dsp.spectra", "locodec.reporting", "speed_decile_spectra"),
    ("dsp.spectra", "locodec.reporting", "aggregate_decile_spectra"),
    ("autodiff.backward", "locodec.autodiff", "backward"),
    ("trainer.train", "locodec.protocols", "train"),
    ("trainer.fine_tune", "locodec.protocols", "fine_tune"),
    ("forest.fit", "locodec.decoders", "forest_fit"),
    ("forest.predict", "locodec.decoders", "forest_predict"),
    ("reporting.report", "locodec.cli", "medians_csv_text"),
    ("reporting.report", "locodec.cli", "tests_csv_text"),
    ("reporting.report", "locodec.cli", "curves_csv_text"),
    ("reporting.report", "locodec.cli", "spectra_csv_text"),
)

# (span name, attribute of locodec.decoders.Decoder) for methods.
METHOD_SPANS = (
    ("decoders.loss_batch", "loss_batch"),
    ("decoders.predict_batch", "predict_batch"),
)

FAMILIES = ("linear", "ffnn", "lstm_rnn", "transformer_encoder", "speed_rnn")


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_s", "_s_per_tree")) or "_s." in metric:
        return "s"
    if ".nodes_per" in metric:
        return "nodes"
    return "count"


def graph_size(root) -> int:
    """Number of autodiff nodes reachable from ``root`` through parents."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


class Tracer:
    """Span recorder. Each span is ``[name, start, end, parent, info]``;
    ``info`` holds counts the wrapped call makes visible (family, windows,
    epochs, trees, nodes)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.nodes_per_batch: dict[str, int] = {}

    def install(self) -> None:
        import importlib

        for name, module, attr in FUNCTION_SPANS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
        decoder_cls = importlib.import_module("locodec.decoders").Decoder
        for name, attr in METHOD_SPANS:
            setattr(decoder_cls, attr, self._wrap(name, getattr(decoder_cls, attr)))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            span[4] = self._info(name, args, out)
            return out

        return traced

    def _info(self, name, args, out):
        if name in ("trainer.train", "trainer.fine_tune"):
            return {"family": args[0].spec.family, "epochs": out[1].n_epochs_run}
        if name == "decoders.loss_batch":
            family = args[0].spec.family
            if family not in self.nodes_per_batch:
                self.nodes_per_batch[family] = graph_size(out)
            return None
        if name == "decoders.predict_batch":
            return {"windows": int(args[1].shape[0])}
        if name == "forest.fit":
            return {"trees": len(out.trees), "nodes": sum(t.n_nodes for t in out.trees)}
        return None


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    out: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def layer_metrics(spans, nodes_per_batch: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced round, derived from its spans."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
    m = {
        "synthetic.fleet_s": selfs.get("synthetic.fleet", 0.0),
        "sessions.window_s": selfs.get("sessions.window", 0.0),
        "sessions.window_calls": calls.get("sessions.window", 0),
        "sessions.normalize_s": selfs.get("sessions.normalize", 0.0),
        "sessions.normalize_calls": calls.get("sessions.normalize", 0),
        "sessions.ingest_s": selfs.get("sessions.ingest", 0.0),
        "dsp.band_isolate_s": selfs.get("dsp.band_isolate", 0.0),
        "dsp.band_isolate_calls": calls.get("dsp.band_isolate", 0),
        "dsp.spectra_s": selfs.get("dsp.spectra", 0.0),
        "autodiff.backward_s": selfs.get("autodiff.backward", 0.0),
        "autodiff.backward_calls": calls.get("autodiff.backward", 0),
        "decoders.loss_batch_s": selfs.get("decoders.loss_batch", 0.0),
        "decoders.predict_batch_s": selfs.get("decoders.predict_batch", 0.0),
        "decoders.predict_windows": sum(
            s[4]["windows"] for s in spans if s[0] == "decoders.predict_batch"
        ),
        "forest.predict_s": selfs.get("forest.predict", 0.0),
        "reporting.report_s": selfs.get("reporting.report", 0.0),
    }
    for family in FAMILIES:
        m[f"autodiff.nodes_per_batch.{family}"] = nodes_per_batch.get(family, 0)

    # Epoch and tree figures are inclusive: one epoch's wall time is what a
    # user of the trainer waits for, children included.
    def per_unit(name, key, family=None):
        total, units = 0.0, 0
        for s in spans:
            if s[0] == name and (family is None or s[4]["family"] == family):
                total += s[2] - s[1]
                units += s[4][key]
        return total / units if units else 0.0

    for family in FAMILIES:
        m[f"trainer.epoch_s.{family}"] = per_unit("trainer.train", "epochs", family)
    m["trainer.fine_tune_epoch_s"] = per_unit("trainer.fine_tune", "epochs")
    m["trainer.epochs_run"] = sum(
        s[4]["epochs"] for s in spans if s[0] in ("trainer.train", "trainer.fine_tune")
    )
    m["forest.fit_s_per_tree"] = per_unit("forest.fit", "trees")
    trees = sum(s[4]["trees"] for s in spans if s[0] == "forest.fit")
    nodes = sum(s[4]["nodes"] for s in spans if s[0] == "forest.fit")
    m["forest.nodes_per_tree"] = nodes / trees if trees else 0.0
    return m
