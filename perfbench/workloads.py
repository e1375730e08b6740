"""The three workloads, driven only through the system's public entry points.

* ``fresh-chain`` — closed loop, one client, ``Frontend(replicas=1)``.
  Every request is a new chain with fresh values, so every content-keyed
  cache misses and every factor ships: content addressing, the wire and
  replica memory do most of the work.
* ``zipf-mixed`` — closed loop, four concurrent clients,
  ``Frontend(replicas=nproc-1)``, Zipf popularity over 32 chain classes and
  5% one-cell factor updates chained across versions, so admission,
  coalescing, the replica result cache, incremental views and the epoch
  gate do the work.
* ``library-kernels`` — closed loop, one client, in-process ``Engine`` with
  ``ServeRequest(coalesce=False)`` over a fixed pool of persisted queries,
  so planner lookups, lowering and the kernels do the work.

A run prepares inputs and their references in batches outside the timed
section, serves the batch with each request timed, then checks every
answer with ``Factor.equals`` against its reference.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import Engine, ServeError, ServeRequest
from repro.serve import Frontend, PlanServer

import inputs
from measure import rss_mb
from tracing import LayerProbe

BATCH = 32                  # requests prepared, then served, per batch
CLIENTS = {"fresh-chain": 1, "zipf-mixed": 4, "library-kernels": 1}
RSS_AT = {"fresh-chain": 1000, "zipf-mixed": 1000, "library-kernels": 300}
TRACE_EVERY = 2             # traced phase: replay every 2nd read


@dataclass
class Item:
    """One prepared request: what to send and the answer it must give."""

    content: Any                    # the inputs.Content the request carries
    query: Any                      # the query object that is served
    expected: Any                   # reference factor
    update: Optional[tuple] = None  # (factor index, FactorDelta) for updates


@dataclass
class Run:
    """Everything one run measured."""

    workload: str
    setup_s: float = 0.0
    reads: List[float] = field(default_factory=list)          # ms, untraced phase
    traced_reads: List[float] = field(default_factory=list)   # ms, traced phase
    updates: List[float] = field(default_factory=list)        # ms
    update_server_ms: List[float] = field(default_factory=list)
    outside_exec_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    batches: List[tuple] = field(default_factory=list)       # (completed, s), untraced
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    strategies: Counter = field(default_factory=Counter)
    backends: Counter = field(default_factory=Counter)
    rss: Dict[str, float] = field(default_factory=dict)
    rss_at: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    probe: Optional[LayerProbe] = None

    def served(self, item: Item, result, latency_ms: float, traced: bool) -> None:
        if not item.expected.equals(result.factor, item.content.semiring):
            self.mismatches += 1
            return
        if item.update is not None:
            self.updates.append(latency_ms)
            self.update_server_ms.append(result.seconds * 1e3)
            return
        (self.traced_reads if traced else self.reads).append(latency_ms)
        self.strategies[result.strategy] += 1
        self.backends[result.backend] += 1
        if not result.coalesced and not traced:
            self.outside_exec_ms.append(latency_ms - result.seconds * 1e3)

    def checkpoint(self, completed: int, final: bool = False) -> None:
        """Memory after a fixed request count, so a faster build is not
        charged for serving more requests (at the end if a slow run never
        got there)."""
        if not self.rss and (final or completed >= RSS_AT[self.workload]):
            self.rss, self.rss_at = rss_mb(), completed


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #
async def setup_frontend(workload: str, warm: List[Any]):
    """Construct the tier and warm it: replicas forked, each shape planned
    cold once, base factors shipped."""
    replicas = 1 if workload == "fresh-chain" else max(1, (os.cpu_count() or 1) - 1)
    start = time.perf_counter()
    frontend = Frontend(replicas=replicas)
    for content in warm:
        await frontend.submit(ServeRequest(query=content.build()))
    return frontend, time.perf_counter() - start


def setup_engine(pool: List[Any]):
    """Construct the engine, plan every pool shape cold and run each query
    once, so the first execution's lazy work lands in set-up."""
    queries = [content.build() for content in pool]
    start = time.perf_counter()
    engine = Engine()
    for query in queries:
        engine.plan(query)
        engine.query(ServeRequest(query=query, coalesce=False))
    return engine, queries, time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time alone (used by the isolated set-up repeats)."""
    if workload == "library-kernels":
        engine, _, seconds = setup_engine(inputs.library_pool(seed))
        engine.close()
        return seconds

    async def run() -> float:
        frontend, seconds = await setup_frontend(workload, _warm_contents(workload, seed))
        await frontend.aclose()
        return seconds

    return asyncio.run(run())


def _warm_contents(workload: str, seed: int) -> List[Any]:
    if workload == "fresh-chain":
        return [inputs.chain(random.Random(seed ^ 0x5EED), "x")]
    return inputs.zipf_classes(seed)


def _replay_server(warm: List[Any], in_process: bool = False) -> LayerProbe:
    """A probe on a private, replica-configured server (so the replays
    touch none of the served caches), with every shape planned cold."""
    probe = LayerProbe(PlanServer(pool_size=1, cache_results=True), in_process)
    for content in warm:
        probe.plan_cold(content.build())
    return probe


# ---------------------------------------------------------------------- #
# the closed loop
# ---------------------------------------------------------------------- #
async def closed_loop(
    run: Run,
    seconds: float,
    trace: bool,
    prepare: Callable[[], Item],
    send: Callable[[Item], Any],
    served_query: Callable[[Item], Any] = lambda item: None,
) -> None:
    """``CLIENTS[run.workload]`` clients each send, wait for the answer and
    send the next request of the current batch.

    With ``trace`` the first half runs untraced; in the second half every
    ``TRACE_EVERY``-th read of a batch is replayed layer by layer once the
    batch has been served.
    """
    clients = CLIENTS[run.workload]
    started = time.perf_counter()
    half = started + seconds / 2
    completed = 0
    request_ids = itertools.count(1)
    while time.perf_counter() - started < seconds:
        batch = iter([prepare() for _ in range(BATCH)])
        traced = trace and time.perf_counter() >= half
        done: List[tuple] = []

        async def client() -> None:
            nonlocal completed
            previous = time.perf_counter()
            for item in batch:
                sent = time.perf_counter()
                run.lateness_ms.append((sent - previous) * 1e3)
                run.attempted += 1
                try:
                    result = await send(item)
                except ServeError:
                    run.failed += 1
                else:
                    finished = time.perf_counter()
                    done.append((item, result, sent, finished))
                    completed += 1
                    run.checkpoint(completed)
                previous = time.perf_counter()

        begun = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(clients)))
        if not traced:
            run.batches.append((len(done), time.perf_counter() - begun))
        for index, (item, result, sent, finished) in enumerate(done):
            run.served(item, result, (finished - sent) * 1e3, traced)
            if traced and item.update is None and index % TRACE_EVERY == 0:
                run.probe.replay(
                    next(request_ids), sent, finished, item.content, served_query(item)
                )


async def fresh_chain(run: Run, seed: int, seconds: float, trace: bool) -> None:
    warm = _warm_contents("fresh-chain", seed)
    frontend, run.setup_s = await setup_frontend("fresh-chain", warm)
    try:
        if trace:
            run.probe = _replay_server(warm)
        rng = random.Random(seed)

        def prepare() -> Item:
            content = inputs.chain(rng, "x")
            return Item(content, content.build(), inputs.reference(content))

        async def send(item: Item):
            return await frontend.submit(ServeRequest(query=item.query))

        await closed_loop(run, seconds, trace, prepare, send)
        run.checkpoint(run.attempted, final=True)
        run.stats = fleet_stats(frontend)
    finally:
        await frontend.aclose()
        if run.probe is not None:
            run.probe.server.shutdown()


async def zipf_mixed(run: Run, seed: int, seconds: float, trace: bool) -> None:
    classes = _warm_contents("zipf-mixed", seed)
    frontend, run.setup_s = await setup_frontend("zipf-mixed", classes)
    try:
        if trace:
            run.probe = _replay_server(classes)
        traffic = inputs.ZipfTraffic(seed, classes)
        expected: Dict[tuple, Any] = {}

        def reference(key: tuple, content) -> Any:
            if key not in expected:
                expected[key] = inputs.reference(content)
            return expected[key]

        def prepare() -> Item:
            (klass, version), content, update = traffic.next()
            if update is None:
                return Item(content, content.build(), reference((klass, version), content))
            after = reference((klass, version + 1), content.updated(*update))
            return Item(content, content.build(), after, (update[0], inputs.delta_for(content, *update)))

        async def send(item: Item):
            request = ServeRequest(query=item.query)
            if item.update is not None:
                return await frontend.update_factors(request, [item.update])
            return await frontend.submit(request)

        await closed_loop(run, seconds, trace, prepare, send)
        run.checkpoint(run.attempted, final=True)
        run.stats = fleet_stats(frontend)
    finally:
        await frontend.aclose()
        if run.probe is not None:
            run.probe.server.shutdown()


async def library_kernels(run: Run, seed: int, seconds: float, trace: bool) -> None:
    pool = inputs.library_pool(seed)
    expected = [inputs.reference(content) for content in pool]
    engine, queries, run.setup_s = setup_engine(pool)
    try:
        if trace:
            run.probe = _replay_server(pool, in_process=True)
        rng = random.Random(seed)

        def prepare() -> Item:
            slot = rng.randrange(len(pool))
            return Item(pool[slot], queries[slot], expected[slot])

        async def send(item: Item):
            return engine.query(ServeRequest(query=item.query, coalesce=False))

        await closed_loop(run, seconds, trace, prepare, send, lambda item: item.query)
        run.checkpoint(run.attempted, final=True)
        run.stats = server_stats([engine.stats()])
    finally:
        engine.close()
        if run.probe is not None:
            run.probe.server.shutdown()


# ---------------------------------------------------------------------- #
# system counters
# ---------------------------------------------------------------------- #
def server_stats(pongs: List[Optional[Dict[str, Any]]]) -> Dict[str, float]:
    """Sum the PlanServer counters of the in-process server or of every replica."""
    keys = (
        "served", "factor_store", "result_cache_hits", "plan_cache_hits", "plan_cache_misses",
        "plan_replans", "step_cache_computed", "step_cache_replayed", "incremental_hits",
        "incremental_misses", "incremental_full_runs",
    )
    return {key: float(sum((p or {}).get(key, 0) for p in pongs)) for key in keys}


def fleet_stats(frontend) -> Dict[str, float]:
    stats = server_stats(frontend.ping())
    tier = frontend.stats()
    stats.update(
        submitted=float(tier["submitted"]),
        coalesced=float(tier["coalesced"]),
        shed=float(tier["shed_queue"] + tier["shed_tenant"] + tier["shed_deadline"]),
        retries=float(tier["retries"]),
        timeouts=float(tier["timeouts"]),
        known_factors=float(sum(r["known_factors"] for r in tier["fleet"])),
        replicas=float(tier["replicas"]),
    )
    return stats


DRIVERS = {
    "fresh-chain": fresh_chain,
    "zipf-mixed": zipf_mixed,
    "library-kernels": library_kernels,
}
