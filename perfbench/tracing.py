"""The traced run: spans per request, layer replays and per-layer metrics.

Spans are recorded from the benchmark's own files, around calls into each
layer's public entry point; the program itself is not instrumented.  For a
sampled request the benchmark times the served call, then times each
layer's entry point on an equal copy of that request's inputs (a copy, so
memoised digests do not leak into the served call).  The layer tree is::

    request                 served call as the client saw it (Frontend workloads)
    ├── planner.signature   query_content_key on the client's fresh copy
    ├── serve.protocol      encode_query + pickle of the exec message
    └── serve.server        PlanServer.execute_request on a replica-equivalent copy
        ├── planner.signature
        ├── planner         warm plan()
        └── exec.executor   Plan.execute
            └── kernel.<flat|sparse|dense>   InsideOutStats.steps

In-process (library-kernels) the served call *is*
``PlanServer.execute_request``, so the root is ``serve.server`` itself.
Replays plan on a private server's cache, so they never count in, or
change, the served plan cache.
Spans marked ``probe`` measure a layer that is off the request's path (the
wire for in-process serving, step lowering for every strategy, a plan and
an execution the result cache skipped); they never count against their
parent's self time.
"""

from __future__ import annotations

import itertools
import json
import pickle
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import ServeRequest
from repro.exec.dag import lower_insideout
from repro.planner import plan as plan_query
from repro.planner.signature import query_content_key
from repro.serve.protocol import decode_query, encode_query

from measure import median, ratio

STRATEGIES = ("insideout", "variable-elimination", "yannakakis", "generic-join")
PLAN_BACKENDS = ("sparse", "dense", "auto")
KERNELS = ("flat", "sparse", "dense")


@dataclass
class Span:
    request: int
    span: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    probe: bool = False

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class Tracer:
    """In-memory spans, written out once when the run ends."""

    spans: List[Span] = field(default_factory=list)
    _ids: Any = field(default_factory=lambda: itertools.count(1))

    def add(self, request, name, start, end, parent=None, probe=False) -> Span:
        span = Span(request, next(self._ids), parent, name, start, end, probe)
        self.spans.append(span)
        return span

    def timed(self, request, name, parent, fn, probe=False):
        """``(fn(), span)`` with the call recorded as a span under ``parent``."""
        start = time.perf_counter()
        value = fn()
        parent_id = parent.span if parent is not None else None
        return value, self.add(request, name, start, time.perf_counter(), parent_id, probe)

    def self_ms(self) -> Dict[str, float]:
        """Median per-request self time of every layer on the request path."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and not span.probe:
                children[span.parent] += span.ms
        per_request: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if not span.probe:
                per_request[span.name][span.request] += span.ms - children[span.span]
        return {name: median(list(v.values())) for name, v in sorted(per_request.items())}

    def write(self, path: Path, epoch: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "request": s.request, "span": s.span, "parent": s.parent,
                    "name": s.name, "start": s.start - epoch, "end": s.end - epoch,
                    "probe": s.probe,
                }) + "\n")


class LayerProbe:
    """Replays one sampled request layer by layer and keeps its timings.

    ``server`` is a private :class:`~repro.serve.server.PlanServer` to
    replay on, configured like a replica.  ``in_process`` selects the layer
    tree (see the module docstring).
    """

    def __init__(self, server, in_process: bool = False) -> None:
        self.server = server
        self.in_process = in_process
        self.tracer = Tracer()
        self.rows: List[Dict[str, Any]] = []
        self.plan_cold_ms: List[float] = []

    def plan_cold(self, query) -> None:
        """Time planning of a query at set-up; kept when it was a cache miss."""
        start = time.perf_counter()
        chosen = plan_query(query, cache=self.server.cache)
        if not chosen.cache_hit:
            self.plan_cold_ms.append((time.perf_counter() - start) * 1e3)

    def replay(self, rid: int, start: float, end: float, content, served_query) -> None:
        t = self.tracer
        if self.in_process:
            root = t.add(rid, "serve.server", start, end)
            client = served_query                 # persisted objects, digests memoised
        else:
            root = t.add(rid, "request", start, end)
            client = content.build()              # the client's fresh copy
        _, sig = t.timed(rid, "planner.signature", root, lambda: query_content_key(client))

        def encode():
            wire, tables = encode_query(client)
            return wire, tables, len(pickle.dumps((wire, tables), pickle.HIGHEST_PROTOCOL))

        (wire, tables, nbytes), protocol = t.timed(
            rid, "serve.protocol", root, encode, probe=self.in_process
        )
        if self.in_process:
            server, server_sig, cached, copy = root, sig, False, served_query
        else:
            # A replica rebuilds the query from the skeleton and unpickled
            # factors, whose digest memos do not survive pickling; so does
            # the replay.
            def replica_copy():
                return decode_query(wire, pickle.loads(pickle.dumps(tables)))

            request = ServeRequest(query=replica_copy())
            result, server = t.timed(
                rid, "serve.server", root, lambda: self.server.execute_request(request)
            )
            cached = result.coalesced             # a result-cache hit skips plan + execute
            copy = replica_copy()
            _, server_sig = t.timed(
                rid, "planner.signature", server, lambda: query_content_key(copy)
            )
        # In-process pool content was planned at set-up, so the served call
        # took the digest-plan lookup and a warm plan() is off its path.
        chosen, planned = t.timed(
            rid, "planner", server, lambda: plan_query(copy, cache=self.server.cache),
            probe=cached or self.in_process,
        )
        executed, execute = t.timed(rid, "exec.executor", server, chosen.execute, probe=cached)
        cursor = execute.start
        kernels: Counter = Counter()
        kernel_ms: Counter = Counter()
        for step in getattr(executed.stats, "steps", None) or []:
            t.add(rid, f"kernel.{step.backend}", cursor, cursor + step.seconds, execute.span, cached)
            cursor += step.seconds
            kernels[step.backend] += 1
            kernel_ms[step.backend] += step.seconds * 1e3
        row: Dict[str, Any] = {
            "cells": content.cells,
            "sig_ms": sig.ms,
            "encode_ms": protocol.ms,
            "bytes": nbytes,
            "strategy": chosen.strategy,
            "plan_ms": planned.ms,
            "exec_ms": execute.ms,
            "exec_self_ms": execute.ms - sum(kernel_ms.values()),
            "server_self_ms": server.ms - sum(
                span.ms for span in (server_sig, planned, execute) if not span.probe
            ),
            "kernels": kernels,
            "kernel_ms": kernel_ms,
            "rows_out": sum(s.result_size for s in getattr(executed.stats, "steps", None) or []),
        }
        try:
            dag, lowered = t.timed(
                rid, "exec.dag", root, lambda: lower_insideout(copy, list(chosen.ordering)), probe=True
            )
            row["lower_ms"], row["dag_steps"] = lowered.ms, len(dag.nodes)
        except ValueError:  # an ordering the lowering rejects
            pass
        self.rows.append(row)

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics over every replayed request."""
        rows = self.rows
        col = lambda key: [r[key] for r in rows if key in r]  # noqa: E731
        exec_by_strategy: Counter = Counter()
        for r in rows:
            exec_by_strategy[r["strategy"]] += r["exec_ms"]
        kernel_count: Counter = Counter()
        kernel_ms: Counter = Counter()
        for r in rows:
            kernel_count.update(r["kernels"])
            kernel_ms.update(r["kernel_ms"])
        n = max(1, len(rows))
        out = {
            "signature.content_key_ms": median(col("sig_ms")),
            "signature.cells_per_req": median(col("cells")),
            "wire.encode_ms": median(col("encode_ms")),
            "wire.bytes_per_req": median(col("bytes")),
            "server.self_ms": median(col("server_self_ms")),
            "planner.plan_ms": median(col("plan_ms")),
            "planner.plan_cold_ms": median(self.plan_cold_ms),
            "dag.lower_ms": median(col("lower_ms")),
            "dag.steps": median(col("dag_steps")),
            "exec.execute_ms": median(col("exec_ms")),
            "exec.self_ms": median(col("exec_self_ms")),
            "kernel.rows_out": sum(col("rows_out")) / n,
        }
        total_exec = sum(exec_by_strategy.values())
        for strategy in STRATEGIES:
            out[f"exec.execute_share.{strategy}"] = ratio(exec_by_strategy[strategy], total_exec)
        total_kernel = sum(kernel_ms.values())
        for kernel in KERNELS:
            out[f"kernel.steps.{kernel}"] = kernel_count[kernel] / n
            out[f"kernel.step_share.{kernel}"] = ratio(kernel_ms[kernel], total_kernel)
        return out
