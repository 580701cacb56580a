"""Outside-in tracing of the hhmon package.

`install` replaces the public functions of each hhmon module, the two
kernel entry points of `hhmon.backend` and the public methods of
`hhmon.model.Network` with wrappers that record one span per call: name,
start, end, parent span and run id, plus a few counts read from the
arguments and the result.  Nothing under `src/` changes; the wrappers live
only while the traced phase runs.  Spans stay in memory and `write_spans`
writes them once at the end.

`unit_metrics` turns the spans of one repetition of a workload into the
per-layer metrics that README.md lists.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# hhmon modules whose public functions are wrapped, in pipeline order.
MODULES = ("pipeline", "synth", "pose", "tracking", "frameio", "clipset", "tvl1",
           "layers", "model", "training", "checkpoint", "metrics")
BACKEND_KERNELS = ("warp_bilinear", "tvl1_iterations")
NETWORK_METHODS = ("forward", "features", "backward", "score")
# Blocks of the default i3d_mini topology, reported one metric each.
MODEL_BLOCKS = ("conv1", "pool1", "mixed1", "pool2", "mixed2")
PIPELINE_STAGES = ("generate", "prepare", "compute_flow", "train_stream", "evaluate",
                   "infer_clip")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at the root
    run: int
    attrs: dict | None


class Tracer:
    """Span store plus the open-span stack; records only inside `recording`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = -1  # -1: calls pass straight through
        self.param_names: dict[int, str] = {}  # id(weight array) -> parameter name

    @contextlib.contextmanager
    def recording(self, run: int):
        self.run = run
        try:
            yield
        finally:
            self.run = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                               self.run, None))
        self.stack.append(idx)
        self.spans[idx].start = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self.stack.pop()

    def register_network(self, net) -> None:
        for name, arr in net.params.items():
            self.param_names[id(arr)] = name

    def spans_of(self, run: int) -> list[Span]:
        """The spans of one run, re-indexed so parents point into the result."""
        picked = [i for i, s in enumerate(self.spans) if s.run == run]
        remap = {old: new for new, old in enumerate(picked)}
        return [Span(s.name, s.start, s.end, remap.get(s.parent, -1), s.run, s.attrs)
                for s in (self.spans[i] for i in picked)]


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span, gzip-compressed, written in one pass."""
    with gzip.open(path, "wt") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "run": s.run, "attrs": s.attrs}))
            fh.write("\n")


# --- wrappers ---------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn, counts=None, before=None):
    if inspect.isgeneratorfunction(fn):
        # one span per produced item, parented to whoever pulls it
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if tracer.run < 0:
                    item = next(it, _DONE)
                else:
                    idx = tracer.open(name)
                    try:
                        item = next(it, _DONE)
                    finally:
                        tracer.close(idx)
                if item is _DONE:
                    return
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.run < 0:
            return fn(*args, **kwargs)
        if before is not None:
            before(args)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counts is not None:
            tracer.spans[idx].attrs = counts(args, kwargs, result)
        return result
    return wrapper


_DONE = object()


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _nbytes(values) -> int:
    return sum(getattr(v, "nbytes", 0) for v in values)


def _count_extractors(tracer: Tracer) -> dict:
    """Counts recorded per call, keyed by span name."""
    def conv_forward(args, kwargs, y):
        kernel = _arg(args, kwargs, 1, "kernel")
        out = y[0]
        flops = 2 * out.size * (kernel.size // kernel.shape[0])
        return {"param": tracer.param_names.get(id(kernel)), "gflop": flops / 1e9}

    def conv_backward(args, kwargs, _):
        kernel = _arg(args, kwargs, 1, "cache")[1]
        return {"param": tracer.param_names.get(id(kernel))}

    def pool_forward(args, kwargs, _):
        kernel = _arg(args, kwargs, 1, "kernel")
        stride = _arg(args, kwargs, 2, "stride") or kernel
        return {"stride": list(stride)}

    def pool_backward(args, kwargs, _):
        return {"stride": list(_arg(args, kwargs, 1, "cache")[3])}

    def network(args, kwargs, _):
        spec = args[0].spec
        return {"blocks": [[b.name, type(b).__name__] for b in spec.blocks],
                "clips": int(_arg(args, kwargs, 1, "x").shape[0])}

    def tvl1_iterations(args, kwargs, result):
        iters = int(result[-1])
        return {"iters": iters, "cap": int(args[13]),
                "bytes": (_nbytes(args[:10]) + _nbytes(result[:6])) * iters}

    return {
        "synth.generate_dataset": lambda a, k, r: {
            "frames": sum(e["end_frame"] - e["start_frame"] for e in r["scenes"])},
        "frameio.load_sequence": lambda a, k, r: {
            "frames": len(r), "dir": str(_arg(a, k, 0, "directory"))},
        "frameio.save_sequence": lambda a, k, r: {"frames": len(_arg(a, k, 0, "seq"))},
        "clipset.sample_clip": lambda a, k, r: {"window": [
            a[0].video_id, a[0].channels, int(_arg(a, k, 2, "start")),
            _arg(a, k, 4, "mode", "eval")]},
        "training.extract_features": lambda a, k, r: {"clips": len(r[1])},
        "training.score_clips": lambda a, k, r: {"clips": len(r)},
        "backend.warp_bilinear": lambda a, k, r: {"bytes": _nbytes(a) + r.nbytes},
        "backend.tvl1_iterations": tvl1_iterations,
        "layers.conv3d_forward": conv_forward,
        "layers.conv3d_backward": conv_backward,
        "layers.maxpool3d_forward": pool_forward,
        "layers.maxpool3d_backward": pool_backward,
        **{f"model.{m}": network for m in NETWORK_METHODS if m != "backward"},
        "model.backward": lambda a, k, r: {
            "blocks": [[b.name, type(b).__name__] for b in a[0].spec.blocks]},
    }


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a function that undoes it."""
    hhmon_model = importlib.import_module("hhmon.model")
    hhmon_backend = importlib.import_module("hhmon.backend")
    counts = _count_extractors(tracer)
    targets = []  # (owner, attribute, span name)
    for short in MODULES:
        mod = importlib.import_module(f"hhmon.{short}")
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                targets.append((mod, attr, f"{short}.{attr}"))
    targets += [(hhmon_backend, k, f"backend.{k}") for k in BACKEND_KERNELS]
    targets += [(hhmon_model.Network, m, f"model.{m}") for m in NETWORK_METHODS]

    saved = []
    register = lambda args: tracer.register_network(args[0])  # noqa: E731
    for owner, attr, name in targets:
        original = vars(owner)[attr]
        before = register if owner is hhmon_model.Network else None
        setattr(owner, attr, _wrap(tracer, name, original, counts.get(name), before))
        saved.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


# --- analysis ---------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def attribute_blocks(blocks: list, calls: list, backward: bool) -> list:
    """Network block of each layer call made directly by one network call.

    `blocks` is the spec's [name, kind] list; `calls` holds
    (function, parameter name or None, pool stride or None) in call order.
    Convolutions name their block through their weight tensor.  A pool with
    unit stride is the pool branch of the mixed block in progress; any other
    pool is the next PoolLayer going forward, the previous one going
    backward.  ReLU and concat go with the convolution they sit beside.
    Head calls (global pool, dense) get None.
    """
    kinds = dict(blocks)
    names = [name for name, _ in blocks]
    pools = [name for name, kind in blocks if kind == "PoolLayer"]
    out: list = [None] * len(calls)
    cursor = None
    pending: list[int] = []
    for i, (fn, param, stride) in enumerate(calls):
        if param is not None:
            cursor = param.split(".")[0]
            out[i] = cursor
            for j in pending:
                out[j] = cursor
            pending.clear()
        elif fn.startswith("maxpool3d"):
            if tuple(stride) == (1, 1, 1) and kinds.get(cursor) == "MixedBlock":
                out[i] = cursor
                continue
            pos = names.index(cursor) if cursor in names else (len(names) if backward else -1)
            if backward:
                before = [p for p in pools if names.index(p) < pos]
                cursor = before[-1] if before else None
            else:
                after = [p for p in pools if names.index(p) > pos]
                cursor = after[0] if after else None
            out[i] = cursor
        elif fn.startswith(("relu", "concat")):
            if backward:
                pending.append(i)
            else:
                out[i] = cursor
    return out


def _block_times(spans: list[Span]) -> dict[str, float]:
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0 and s.name.startswith("layers."):
            children[s.parent].append(i)
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.name not in ("model.forward", "model.features", "model.backward") or not s.attrs:
            continue
        kids = children[i]
        calls = [(spans[c].name.split(".", 1)[1], (spans[c].attrs or {}).get("param"),
                  (spans[c].attrs or {}).get("stride")) for c in kids]
        backward = s.name == "model.backward"
        suffix = "bwd_s" if backward else "fwd_s"
        for c, block in zip(kids, attribute_blocks(s.attrs["blocks"], calls, backward)):
            if block is not None:
                totals[f"model.{block}.{suffix}"] += spans[c].end - spans[c].start
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one workload repetition (see README.md)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name):
        return sum(spans[i].end - spans[i].start for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in by_name[name] if spans[i].attrs)

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    m: dict[str, float] = {}
    for stage in PIPELINE_STAGES:
        m[f"pipeline.{stage}.s"] = total(f"pipeline.{stage}")
    m["pipeline.train_stream.self_s"] = self_total("pipeline.train_stream")
    m["pipeline.infer_clip.self_s"] = self_total("pipeline.infer_clip")

    m["synth.generate_dataset.s"] = total("synth.generate_dataset")
    m["synth.frames"] = attr_sum("synth.generate_dataset", "frames")

    for name in ("pose.load_poses", "tracking.load_tracks"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    m["tracking.link_detections.s"] = total("tracking.link_detections")

    loads = by_name["frameio.load_sequence"]
    m["frameio.load_sequence.calls"] = len(loads)
    m["frameio.load_sequence.frames"] = attr_sum("frameio.load_sequence", "frames")
    m["frameio.load_sequence.s"] = total("frameio.load_sequence")
    m["frameio.save_sequence.frames"] = attr_sum("frameio.save_sequence", "frames")
    m["frameio.save_sequence.s"] = total("frameio.save_sequence")
    resizes = by_name["frameio.resize_bilinear"]
    m["frameio.resize_bilinear.calls"] = len(resizes)
    m["frameio.resize_bilinear.s"] = total("frameio.resize_bilinear")
    from_module = defaultdict(int)
    for i in resizes:
        parent = spans[i].parent
        from_module[spans[parent].name.split(".")[0] if parent >= 0 else "none"] += 1
    for mod in ("clipset", "tvl1", "pipeline"):
        m[f"frameio.resize_bilinear.from_{mod}.calls"] = from_module[mod]
    scenes = {spans[i].attrs["dir"] for i in loads}
    m["frameio.scene_loads_per_scene"] = _ratio(len(loads), len(scenes))

    for name in ("clipset.sample_clip", "clipset.sample_still"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    windows = {tuple(spans[i].attrs["window"]) for i in by_name["clipset.sample_clip"]}
    m["clipset.samples_per_window"] = _ratio(calls("clipset.sample_clip"), len(windows))

    pairs = calls("tvl1.tvl1_flow")
    m["tvl1.pairs"] = pairs
    m["tvl1.tvl1_flow.s"] = total("tvl1.tvl1_flow")
    m["tvl1.self_s"] = self_total("tvl1.tvl1_flow")
    m["tvl1.flow_energy.calls"] = calls("tvl1.flow_energy")
    m["tvl1.flow_energy.s"] = total("tvl1.flow_energy")
    m["tvl1.resize_calls_per_pair"] = _ratio(from_module["tvl1"], pairs)

    for name in ("backend.warp_bilinear", "backend.tvl1_iterations"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    iters = attr_sum("backend.tvl1_iterations", "iters")
    m["backend.tvl1_iterations.iters_per_call"] = _ratio(
        iters, calls("backend.tvl1_iterations"))
    m["backend.tvl1_iterations.iters_per_cap"] = _ratio(
        iters, attr_sum("backend.tvl1_iterations", "cap"))
    m["backend.mb_computed"] = (attr_sum("backend.warp_bilinear", "bytes")
                                + attr_sum("backend.tvl1_iterations", "bytes")) / 1e6

    m["layers.conv3d_forward.calls"] = calls("layers.conv3d_forward")
    m["layers.conv3d_forward.s"] = total("layers.conv3d_forward")
    m["layers.conv3d_forward.gflop"] = attr_sum("layers.conv3d_forward", "gflop")
    m["layers.conv3d_backward.s"] = total("layers.conv3d_backward")
    m["layers.maxpool3d_forward.calls"] = calls("layers.maxpool3d_forward")
    m["layers.maxpool3d_forward.s"] = total("layers.maxpool3d_forward")
    m["layers.maxpool3d_backward.s"] = total("layers.maxpool3d_backward")

    m["model.forward.s"] = total("model.forward")
    m["model.features.clips"] = attr_sum("model.features", "clips")
    m["model.features.s"] = total("model.features")
    m["model.backward.s"] = total("model.backward")
    blocks = _block_times(spans)
    for block in MODEL_BLOCKS:
        for suffix in ("fwd_s", "bwd_s"):
            m[f"model.{block}.{suffix}"] = blocks.get(f"model.{block}.{suffix}", 0.0)

    m["training.sgd_train.s"] = total("training.sgd_train")
    for name in ("training.extract_features", "training.score_clips"):
        m[f"{name}.clips"] = attr_sum(name, "clips")
        m[f"{name}.s"] = total(name)
    m["training.train_head_on_features.s"] = total("training.train_head_on_features")

    for name in ("checkpoint.load_network", "checkpoint.save_network"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    m["metrics.save_report.s"] = total("metrics.save_report")
    return m
