"""The replica wire protocol: query skeletons + digest-addressed factors.

Factor tables dominate the bytes of a query, and repeated traffic repeats
them verbatim — so the tier ships each distinct table to each replica
**once** and addresses it by its stable content digest
(:func:`repro.planner.signature.factor_digest`) thereafter.  A query
crosses the pipe as a :class:`WireQuery` *skeleton* (variables, free
prefix, aggregates, semiring, factor digests) plus only the payloads the
replica does not already hold.

Messages are plain tuples (the :mod:`multiprocessing` connection pickles
them); the first element is the message kind:

========================  ============================================
frontend → replica
========================  ============================================
``("exec", req_id, wire_query, payloads, output_mode, options,
coalesce)``                execute one request; ``payloads`` maps digests
                           to factor objects the replica is missing
                           (per-query ``workers=`` is fixed at replica
                           spawn time, not per message); ``coalesce``
                           carries the request's sharing opt-in so the
                           replica's step/result caches engage only for
                           traffic that allowed it
``("exec_many", req_id, items, payloads)``
                           execute a batch as one merged step DAG;
                           ``items`` is a tuple of ``(wire_query,
                           output_mode, options, coalesce)`` and
                           ``payloads`` covers the whole batch
``("update", req_id, wire_query, payloads, deltas, output_mode,
options)``                 apply a factor-update batch to the query's
                           standing incremental view and answer with the
                           fresh result; ``deltas`` is a tuple of
                           ``(factor_index, FactorDelta)`` applied in
                           order as one atomic batch
``("ping", nonce)``        health probe
``("shutdown",)``          drain and exit
========================  ============================================

========================  ============================================
replica → frontend
========================  ============================================
``("ok", req_id, result)``            a :class:`WireResult`
``("ok_many", req_id, outcomes)``      per-item outcomes for ``exec_many``:
                                       each is ``("ok", WireResult)`` or
                                       ``("err", kind, message,
                                       cause_type)`` in item order
``("err", req_id, kind, message,
cause_type)``                          typed failure (``kind`` ∈
                                       ``{"plan", "internal"}``)
``("need", req_id, digests)``          the replica lacks these factor
                                       payloads (e.g. it restarted);
                                       resend ``exec`` with them included
``("pong", nonce, stats)``             health reply + serving counters
========================  ============================================

Unpicklable payloads (e.g. semirings built by ``set_semiring`` closures)
fail at the *sender* — the frontend surfaces that as
:class:`~repro.serve.api.PlanFailure` instead of crashing a replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.core.query import FAQQuery, Variable
from repro.planner.signature import _CONTENT_KEY_MEMO, factor_digest, query_content_key
from repro.semiring.aggregates import Aggregate
from repro.semiring.base import Semiring

MSG_EXEC = "exec"
MSG_EXEC_MANY = "exec_many"
MSG_UPDATE = "update"
MSG_PING = "ping"
MSG_SHUTDOWN = "shutdown"
MSG_OK = "ok"
MSG_OK_MANY = "ok_many"
MSG_ERR = "err"
MSG_NEED = "need"
MSG_PONG = "pong"

ERR_PLAN = "plan"
ERR_INTERNAL = "internal"


@dataclass(frozen=True)
class WireQuery:
    """A query skeleton: everything except the factor tables.

    ``factor_digests`` lists the content digest of each factor in query
    order; the replica resolves them against its digest-addressed table
    store.  ``query_key`` is the query's content key, precomputed on the
    frontend so the replica can memoise the rebuilt query without
    re-digesting the tables.
    """

    variables: Tuple[Variable, ...]
    free: Tuple[str, ...]
    aggregates: Tuple[Tuple[str, Aggregate], ...]
    semiring: Semiring
    name: str
    factor_digests: Tuple[str, ...]
    query_key: Optional[str]


@dataclass(frozen=True)
class WireResult:
    """An execution result crossing back over the pipe (listing mode only).

    ``coalesced`` says the replica answered from a shared execution (a
    merged-batch duplicate or its completed-result cache) rather than
    running the query itself.
    """

    factor: Any
    ordering: Tuple[str, ...]
    strategy: str
    backend: str
    seconds: float
    coalesced: bool = False


# query object -> (WireQuery, {digest: factor}).  FAQQuery instances are
# treated as immutable after construction (the hypergraph memo already
# relies on this), so the encoding is computed once per object.
_ENCODE_MEMO: "WeakKeyDictionary[FAQQuery, Tuple[WireQuery, Dict[str, Any]]]" = (
    WeakKeyDictionary()
)


def encode_query(query: FAQQuery) -> Tuple[WireQuery, Dict[str, Any]]:
    """Split ``query`` into a wire skeleton and its factor payloads.

    Returns ``(wire, tables)`` where ``tables`` maps every factor digest to
    its factor object; the caller ships only the digests the target replica
    is missing.  Raises ``TypeError`` for queries whose values have no
    canonical byte encoding (such queries cannot be digest-addressed and
    must be served in-process).
    """
    memo = _ENCODE_MEMO.get(query)
    if memo is not None:
        return memo
    digests = tuple(factor_digest(factor) for factor in query.factors)
    try:
        query_key = query_content_key(query)
    except TypeError:
        query_key = None
    wire = WireQuery(
        variables=tuple(query.variables[v] for v in query.order),
        free=tuple(query.free),
        aggregates=tuple(query.aggregates.items()),
        semiring=query.semiring,
        name=query.name,
        factor_digests=digests,
        query_key=query_key,
    )
    tables = dict(zip(digests, query.factors))
    encoded = (wire, tables)
    _ENCODE_MEMO[query] = encoded
    return encoded


def decode_query(wire: WireQuery, store: Dict[str, Any]) -> FAQQuery:
    """Rebuild the query from a skeleton and the replica's factor store.

    The rebuilt query keeps the sender's content key, and its factors keep
    their digest memos (digested factors unpickle frozen, and the query
    constructor shares frozen factors), so the replica never re-hashes
    content the frontend already hashed.  The replica trusts the sender's
    digests either way: its factor store is addressed by them.

    Raises ``KeyError`` naming the first missing digest — the replica turns
    that into a ``("need", ...)`` reply rather than failing the request.
    """
    factors = []
    for digest in wire.factor_digests:
        factor = store.get(digest)
        if factor is None:
            raise KeyError(digest)
        factors.append(factor)
    query = FAQQuery(
        variables=list(wire.variables),
        free=wire.free,
        aggregates=dict(wire.aggregates),
        factors=factors,
        semiring=wire.semiring,
        name=wire.name,
    )
    if wire.query_key is not None:
        _CONTENT_KEY_MEMO[query] = wire.query_key
    return query


def missing_digests(wire: WireQuery, known: set) -> Tuple[str, ...]:
    """The factor digests of ``wire`` not in ``known`` (deduplicated, ordered)."""
    seen = set()
    missing = []
    for digest in wire.factor_digests:
        if digest not in known and digest not in seen:
            seen.add(digest)
            missing.append(digest)
    return tuple(missing)
