"""Tracing from outside: spans around the calls into each layer.

Nothing under ``src/`` is edited or imported here.  :func:`install` replaces
*public instance attributes* of an already-built model with timing wrappers
(``model.step``, ``model.blocks[i].conv.step``, ...), and stands delegating
proxies in for the callable objects a block holds (``norm``, ``gated_norm``,
``ssm_impl``) -- a proxy forwards every attribute it does not time, so the
capabilities a block sniffs (``supports_batched``, ``supports_prefill_scan``,
``state_resident``) read exactly as on the wrapped object.  Spans stay in
memory and are summarised (or written out) when the pass ends.

The engine runs on one thread and never awaits inside a step, so a plain
stack gives each span its parent.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence

from benchmarks.e2e.stats import median, tail

#: ``[name, start, end, parent index (-1 = root), engine step id]``
Span = List[Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.step_id = 0
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.step_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def reset(self) -> None:
        self.spans.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _Proxy:
    """Stands in for a callable object; times the named entry points only."""

    def __init__(self, inner, tracer: Tracer, call_name: str, **methods: str) -> None:
        self._inner = inner
        self._call = tracer.wrap(call_name, inner.__call__)
        for method, span_name in methods.items():
            setattr(self, method, tracer.wrap(span_name, getattr(inner, method)))

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, name: str):
        # Only reached for attributes not set above: forward to the real object.
        return getattr(self._inner, name)


def install(tracer: Tracer, model) -> None:
    """Wrap the model's layer boundaries in place (engines built afterwards are traced)."""
    wrap = tracer.wrap
    for block in model.blocks:
        block.norm = _Proxy(block.norm, tracer, "block.norm")
        block.gated_norm = _Proxy(block.gated_norm, tracer, "block.gated_norm")
        block.pre_in_proj = wrap("block.act_quant", block.pre_in_proj)
        block.pre_out_proj = wrap("block.act_quant", block.pre_out_proj)
        block.conv.step = wrap("conv1d.step", block.conv.step)
        block.conv.forward = wrap("conv1d.forward", block.conv.forward)
        block.ssm_impl = _Proxy(
            block.ssm_impl, tracer, "ssm_quant.step", prefill_scan="ssm_quant.scan"
        )
        block.step = wrap("block.step", block.step)
        block.forward = wrap("block.forward", block.forward)
    model.embed = wrap("model.embed", model.embed)
    model.logits_from_hidden = wrap("model.head", model.logits_from_hidden)
    model.prefill = wrap("model.prefill", model.prefill)
    model.step = wrap("model.step", model.step)

    new_cache = model.new_cache

    def traced_new_cache(*args, **kwargs):
        cache = new_cache(*args, **kwargs)
        cache.gather = wrap("cache.gather", cache.gather)
        cache.scatter = wrap("cache.scatter", cache.scatter)
        return cache

    model.new_cache = traced_new_cache


def install_engine(tracer: Tracer, engine) -> None:
    """Wrap one engine built on a model that :func:`install` already wrapped."""
    step = tracer.wrap("engine.step", engine.step)

    def traced_step(*args, **kwargs):
        tracer.step_id = engine.stats.engine_steps + 1
        return step(*args, **kwargs)

    engine.step = traced_step
    engine.scheduler.plan = tracer.wrap("scheduler.plan", engine.scheduler.plan)


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------
def summarise(spans: Sequence[Span]) -> Dict[str, Any]:
    """Totals, self times and durations per span name, plus parent->child totals.

    A span's self time is its duration minus the time its child spans cover
    (children of one parent never overlap: single thread, strict nesting).
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    edges: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        total[name] += duration
        self_time[name] += duration - covered[index]
        durations[name].append(duration)
        if parent >= 0:
            edges[f"{spans[parent][0]}>{name}"] += duration
    return {
        "total": dict(total),
        "self": dict(self_time),
        "durations": dict(durations),
        "edges": dict(edges),
        "root_total": sum(end - start for _, start, end, parent, _ in spans if parent < 0),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(spans: Sequence[Span], wall_s: float, prefilled_tokens: int) -> Dict[str, Any]:
    """The traced per-layer metrics of one pass, as ``{name: (value, unit, n)}``."""
    s = summarise(spans)
    total, self_time, durations, edges = s["total"], s["self"], s["durations"], s["edges"]
    step_total = total.get("engine.step", 0.0)
    step_ms = [d * 1e3 for d in durations.get("engine.step", [0.0])]
    plan_ms = [d * 1e3 for d in durations.get("scheduler.plan", [0.0])]
    ssm_step_ms = [d * 1e3 for d in durations.get("ssm_quant.step", [0.0])]
    model_total = total.get("model.step", 0.0) + total.get("model.prefill", 0.0)
    out: Dict[str, Any] = {
        "engine.step_ms_p50": (median(step_ms), "ms", len(step_ms)),
        "engine.step_ms_p99": (tail(step_ms, 99)[0], "ms", len(step_ms)),
        "engine.self_share": (_share(self_time.get("engine.step", 0.0), step_total), "share", None),
        "scheduler.plan_ms_p50": (median(plan_ms), "ms", len(plan_ms)),
        "scheduler.plan_share": (
            _share(total.get("scheduler.plan", 0.0), step_total), "share", None
        ),
        "cache.gather_scatter_share": (
            _share(total.get("cache.gather", 0.0) + total.get("cache.scatter", 0.0), step_total),
            "share", None,
        ),
        "model.step_share": (_share(total.get("model.step", 0.0), step_total), "share", None),
        "model.prefill_share": (_share(total.get("model.prefill", 0.0), step_total), "share", None),
        "model.embed_head_share": (
            _share(total.get("model.embed", 0.0) + total.get("model.head", 0.0), model_total),
            "share", None,
        ),
        "ssm_quant.step_ms_p50": (median(ssm_step_ms), "ms", len(ssm_step_ms)),
        "ssm_quant.scan_ms_per_tok": (
            total.get("ssm_quant.scan", 0.0) * 1e3 / max(prefilled_tokens, 1),
            "ms", prefilled_tokens,
        ),
        "trace.coverage_share": (_share(s["root_total"], wall_s), "share", None),
    }
    # Block budget: children of block.step (.decode) and block.forward (.prefill).
    for parent, variant, conv, ssm in (
        ("block.step", "decode", "conv1d.step", "ssm_quant.step"),
        ("block.forward", "prefill", "conv1d.forward", "ssm_quant.scan"),
    ):
        whole = total.get(parent, 0.0)
        parts = {
            "norm": edges.get(f"{parent}>block.norm", 0.0),
            "act_quant": edges.get(f"{parent}>block.act_quant", 0.0),
            "conv": edges.get(f"{parent}>{conv}", 0.0),
            "ssm": edges.get(f"{parent}>{ssm}", 0.0),
            "gated_norm": edges.get(f"{parent}>block.gated_norm", 0.0),
            "proj_glue": self_time.get(parent, 0.0),
        }
        for part, seconds in parts.items():
            out[f"block.{part}_share.{variant}"] = (_share(seconds, whole), "share", None)
    return out
