"""Structural query signatures for plan caching.

The :class:`~repro.planner.cache.PlanCache` must recognise a query it has
planned before even when the *data* changed (repeated query traffic over
drifting relations) or the *variable names* changed (isomorphic queries).
This module computes a canonical labelling of the query's structure:

* each variable's seed colour is ``(tag, aggregate block, |Dom|)`` — the
  aggregate *block* is the index of the maximal run of identical aggregate
  tags in the written bound order, which is exactly the granularity at which
  reordering is always semantics-preserving (adjacent identical aggregates
  commute; distinct blocks do not);
* colours are refined Weisfeiler–Leman style against the multiset of
  incident factor-edge signatures (member colours plus a log-bucketed factor
  size, so mild data drift still hits the cache);
* the final signature serialises the *entire* structure under the canonical
  labelling.  Two queries with equal signatures are therefore certifiably
  isomorphic via their canonical labellings — colour-refinement
  incompleteness can only cause a missed cache hit, never a wrong one —
  so a cached variable ordering can be transferred index-by-index and
  remains a member of ``EVO`` of the new query.
"""

from __future__ import annotations

import hashlib
import weakref
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import FAQQuery

_REFINEMENT_ROUNDS = 3

SIGNATURE_VERSION = 2
"""Format version of :func:`query_signature` tuples and cached-plan payloads.

Bump whenever the signature layout — or the :class:`~repro.planner.cache.CachedPlan`
payload stored under it — changes: persisted plan caches
(:meth:`repro.planner.cache.PlanCache.save`) are tagged with this version
and silently discarded on mismatch, so stale on-disk plans can never be
deserialised against a new signature scheme.  Version 2: ``CachedPlan``
gained ``step_sizes`` (the planner feedback loop).
"""

_INDICATOR_MEMO: "weakref.WeakKeyDictionary[FAQQuery, bool]" = weakref.WeakKeyDictionary()


def size_bucket(size: int) -> int:
    """Log2 bucket of a factor size (0 → 0, 1 → 1, 2-3 → 2, 4-7 → 3, ...)."""
    return int(size).bit_length()


def _aggregate_blocks(query: FAQQuery) -> Dict[str, int]:
    """Map each variable to its aggregate block index (free variables: 0).

    Bound variables are grouped into maximal runs of identical aggregate
    tags along the written order; block boundaries are the only ordering
    constraints the signature must preserve exactly.
    """
    blocks: Dict[str, int] = {v: 0 for v in query.free}
    index = 0
    previous_tag = None
    for variable in query.bound:
        tag = query.tag(variable)
        if tag != previous_tag:
            index += 1
            previous_tag = tag
        blocks[variable] = index
    return blocks


def canonical_order(query: FAQQuery) -> List[str]:
    """The query's variables in canonical (colour-refined) order.

    Ties that survive refinement break on the written position, which keeps
    the labelling deterministic; a tie between genuinely asymmetric
    variables merely yields a different serialisation (a cache miss), never
    an unsound match.
    """
    blocks = _aggregate_blocks(query)
    colors: Dict[str, tuple] = {
        v: (query.tag(v), blocks[v], query.domain_size(v)) for v in query.order
    }
    edges = [(tuple(f.scope), size_bucket(len(f))) for f in query.factors]

    for _ in range(min(_REFINEMENT_ROUNDS, len(query.order))):
        edge_colors = [
            (tuple(sorted(colors[v] for v in scope)), bucket) for scope, bucket in edges
        ]
        new_colors: Dict[str, tuple] = {}
        for variable in query.order:
            incident = sorted(
                color for (scope, _), color in zip(edges, edge_colors) if variable in scope
            )
            new_colors[variable] = (colors[variable], tuple(incident))
        if len(set(new_colors.values())) == len(set(colors.values())):
            colors = new_colors
            break
        colors = new_colors

    position = {v: i for i, v in enumerate(query.order)}
    return sorted(query.order, key=lambda v: (colors[v], position[v]))


def is_indicator_join(query: FAQQuery) -> bool:
    """Whether this is an all-free query of covering indicator (0/1) factors.

    This is exactly the shape the relational strategies (Yannakakis /
    generic join) apply to: every variable free and mentioned by some
    factor, no empty scopes, and every factor value equal to the semiring
    one.  Strategy applicability depends on the factor *values*, which the
    purely structural part of the signature cannot see — folding this bit
    into the signature keeps indicator and weighted variants of the same
    shape in separate cache entries, so a cached join-strategy plan can
    never transfer to a query it would compute wrong values for.

    The O(input) value scan only runs for all-free queries and is memoised
    per query instance (queries are immutable after construction), so the
    signature and the planner's applicability check share one scan.
    """
    cached = _INDICATOR_MEMO.get(query)
    if cached is not None:
        return cached
    result = _compute_indicator_join(query)
    _INDICATOR_MEMO[query] = result
    return result


def _compute_indicator_join(query: FAQQuery) -> bool:
    if query.num_free != query.num_variables or query.num_variables == 0:
        return False
    if not query.factors:
        return False
    semiring = query.semiring
    mentioned = set()
    for factor in query.factors:
        if not factor.scope:
            return False
        mentioned.update(factor.scope)
        for value in factor.table.values():
            if not semiring.is_one(value):
                return False
    return mentioned == set(query.order)


def query_signature(query: FAQQuery) -> Tuple[tuple, List[str]]:
    """The cache signature of a query plus its canonical variable order.

    Returns ``(signature, canon)`` where ``signature`` is a hashable full
    serialisation of the query structure under the canonical labelling and
    ``canon`` lists the variables in canonical order (``canon[i]`` is the
    variable behind canonical index ``i``).
    """
    canon = canonical_order(query)
    index = {v: i for i, v in enumerate(canon)}
    blocks = _aggregate_blocks(query)
    variables = tuple(
        (query.tag(v), blocks[v], query.domain_size(v)) for v in canon
    )
    factors = tuple(
        sorted(
            (tuple(sorted(index[v] for v in f.scope)), size_bucket(len(f)))
            for f in query.factors
        )
    )
    signature = (
        query.semiring.name,
        query.num_free,
        is_indicator_join(query),
        variables,
        factors,
    )
    return signature, canon


def signature_shape(signature: tuple) -> Tuple[tuple, Tuple[int, ...]]:
    """Split a signature into its data-free *shape* and the size buckets.

    The shape is the signature with every factor's log2 size bucket zeroed
    out; the buckets are returned in the factors' canonical order.  Two
    queries with equal shapes are structurally identical up to data volume
    — exactly the situation "the same query over drifted relations"
    produces — so the plan cache can transfer a plan between them when the
    per-factor drift stays within :func:`bucket_drift`'s tolerance.
    """
    semiring, num_free, indicator, variables, factors = signature
    shape = (semiring, num_free, indicator, variables, tuple(s for s, _ in factors))
    buckets = tuple(b for _, b in factors)
    return shape, buckets


def bucket_drift(a: Sequence[int], b: Sequence[int]) -> Optional[int]:
    """The largest per-factor bucket distance (``None`` if incomparable)."""
    if len(a) != len(b):
        return None
    return max((abs(x - y) for x, y in zip(a, b)), default=0)


# ---------------------------------------------------------------------- #
# stable cross-process content hashes
# ---------------------------------------------------------------------- #
# The in-process plan cache keys on hashable signature *tuples*; the
# replicated serving tier (:mod:`repro.serve`) keys on hex *digests* that
# must agree between processes.  Python's builtin ``hash`` is salted per
# process (PYTHONHASHSEED), so the digests below are built from an explicit
# canonical byte encoding instead.

CONTENT_KEY_VERSION = 2
"""Format version folded into every content digest.

Bump whenever a digest's byte encoding (or what it covers) changes, so
digests computed by an old process can never alias digests of a new one
across a rolling restart.  :class:`~repro.serve.snapshot.SnapshotStore`
files are gated on it too: their pickled factors carry digest memos.
(:data:`SIGNATURE_VERSION` covers the signature *tuples* persisted by plan
caches, which no digest encoding enters.)  Version 2: sparse tables of int
keys and int-or-float values digest as NumPy columns (``sparse-cols``).
"""


def canonical_bytes(value: Any) -> bytes:
    """A deterministic, process-independent byte encoding of plain data.

    Supports the value shapes that occur in signatures, factor tables and
    variable domains: ``None``, bools, ints, floats, complex, strings,
    bytes, and (frozen)sets/sequences thereof.  The encoding is injective
    per type (every atom is length-prefixed and type-tagged) and
    canonicalises sets by sorting their encoded elements, so equal values
    encode equally in every process.  Unsupported types raise ``TypeError``
    — callers (the serving tier) degrade gracefully.
    """
    if value is None:
        return b"N"
    if isinstance(value, bool):  # before int: bool subclasses int
        return b"T" if value else b"F"
    if isinstance(value, int):
        raw = str(value).encode("ascii")
        return b"i%d:%s" % (len(raw), raw)
    if isinstance(value, float):
        raw = repr(value).encode("ascii")  # repr is shortest-roundtrip, stable
        return b"f%d:%s" % (len(raw), raw)
    if isinstance(value, complex):
        raw = repr(value).encode("ascii")
        return b"c%d:%s" % (len(raw), raw)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"s%d:%s" % (len(raw), raw)
    if isinstance(value, (bytes, bytearray)):
        return b"b%d:%s" % (len(value), bytes(value))
    if isinstance(value, (frozenset, set)):
        parts = sorted(canonical_bytes(v) for v in value)
        return b"S(" + b",".join(parts) + b")"
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(canonical_bytes(v) for v in value) + b")"
    raise TypeError(f"no canonical byte encoding for {type(value).__name__!r}")


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    h.update(b"repro-content-v%d" % CONTENT_KEY_VERSION)
    for chunk in chunks:
        h.update(b"|")
        h.update(chunk)
    return h.hexdigest()


def signature_digest(signature: tuple) -> str:
    """A stable hex digest of a :func:`query_signature` tuple.

    Unlike ``hash(signature)`` this agrees across processes and interpreter
    restarts, so it can key cross-process caches and wire protocols.
    """
    return _digest(b"sig", canonical_bytes(signature))


def factor_digest(factor: Any) -> str:
    """A stable content digest of one factor (scope, name excluded).

    Keyed on the scope *names* plus the sorted non-default table entries,
    so two value-equal factors — distinct objects, different processes —
    digest identically, and any changed cell changes the digest.  Dense
    ndarray factors digest their domains and raw cells without a listing
    round trip.  Memoised on the factor, so the O(input) hash is paid once
    per factor object.

    Digesting **freezes** the factor: every digest-keyed cache (step
    results, shared tries, completed serve results) relies on the digest
    certifying the table content forever, so in-place mutation after this
    point raises instead of silently serving stale answers.  The supported
    update path is ``Factor.apply_delta``, which returns a new factor with
    a new digest.
    """
    cached = getattr(factor, "_digest", None)
    if cached is not None:
        return cached
    digest = _compute_factor_digest(factor)
    try:
        factor._digest = digest
    except AttributeError:  # foreign factor-like object without the slot
        pass
    freeze = getattr(factor, "freeze", None)
    if callable(freeze):
        freeze()
    return digest


def _compute_factor_digest(factor: Any) -> str:
    from repro.factors.dense import DenseFactor

    if isinstance(factor, DenseFactor):
        domains = tuple(factor.domains[v] for v in factor.scope)
        return _digest(
            b"dense",
            canonical_bytes(tuple(factor.scope)),
            canonical_bytes(domains),
            str(factor.array.dtype).encode("ascii"),
            factor.array.tobytes(),
        )
    digest = _column_digest(factor.scope, factor.table)
    if digest is not None:
        return digest
    items = sorted(
        (canonical_bytes(key) + b"=" + canonical_bytes(value))
        for key, value in factor.table.items()
    )
    return _digest(
        b"sparse", canonical_bytes(tuple(factor.scope)), b";".join(items)
    )


_INT64 = np.dtype("<i8")
_COLUMN_VALUE_DTYPES = {int: _INT64, float: np.dtype("<f8")}


def _column_digest(scope: Sequence[str], table: Dict[tuple, Any]) -> Optional[str]:
    """The ``sparse-cols`` digest of a non-empty numeric table, else ``None``.

    Applies when every key component is exactly ``int`` and every value is
    exactly ``float`` — or every value exactly ``int`` — all within int64.
    The keys become a little-endian ``<i8`` matrix whose rows are sorted
    lexicographically (keys are distinct, so the order is canonical) and
    the values a ``<f8``/``<i8`` column aligned to it; the bytes are hashed
    with the row count and the value dtype.  Exact type checks keep
    ``True``/``1``/``1.0`` apart, as the per-cell encoding does, and the
    distinct tag keeps the two encodings from ever colliding.  ``None``
    sends every other table (bools, strings, big ints, NumPy scalars,
    mixed value types) to :func:`canonical_bytes`.
    """
    if set(map(type, chain.from_iterable(table))) - {int}:
        return None
    value_types = set(map(type, table.values()))
    if len(value_types) != 1:
        return None
    value_dtype = _COLUMN_VALUE_DTYPES.get(value_types.pop())
    if value_dtype is None:
        return None
    rows, arity = len(table), len(scope)
    try:
        keys = np.fromiter(chain.from_iterable(table), dtype=_INT64, count=rows * arity)
        values = np.fromiter(table.values(), dtype=value_dtype, count=rows)
    except (OverflowError, ValueError):  # an int beyond int64, or a malformed key
        return None
    keys = keys.reshape(rows, arity)
    if arity:
        order = np.lexsort(keys.T[::-1])
        keys, values = keys[order], values[order]
    return _digest(
        b"sparse-cols",
        canonical_bytes(tuple(scope)),
        b"%d" % rows,
        _INT64.str.encode("ascii"),
        value_dtype.str.encode("ascii"),
        keys.tobytes(),
        values.tobytes(),
    )


_CONTENT_KEY_MEMO: "weakref.WeakKeyDictionary[FAQQuery, str]" = weakref.WeakKeyDictionary()


def query_content_key(query: FAQQuery) -> str:
    """The stable content digest of a query — equal iff queries are value-equal.

    Combines the canonical WL signature (structure) with the exact
    variable/domain/aggregate spelling and a :func:`factor_digest` per
    factor, so *value-equal* queries from different clients or processes
    share one key while isomorphic-but-renamed queries (whose outputs name
    different variables) do not.  This is the coalescing key of the serving
    tier: two requests with equal keys are certifiably answerable by one
    execution.

    Memoised per query instance (queries are immutable after construction);
    raises ``TypeError`` for queries whose domains or factor values have no
    canonical encoding — callers fall back to not coalescing.
    """
    cached = _CONTENT_KEY_MEMO.get(query)
    if cached is not None:
        return cached
    signature, _ = query_signature(query)
    spelling = (
        query.semiring.name,
        tuple(query.order),
        tuple(query.free),
        tuple((v, query.tag(v)) for v in query.bound),
        tuple((v, query.domain(v)) for v in query.order),
    )
    factor_part = ";".join(sorted(factor_digest(f) for f in query.factors))
    key = _digest(
        b"query",
        signature_digest(signature).encode("ascii"),
        canonical_bytes(spelling),
        factor_part.encode("ascii"),
    )
    _CONTENT_KEY_MEMO[query] = key
    return key


_SHARING_KEY_MEMO: "weakref.WeakKeyDictionary[FAQQuery, str]" = weakref.WeakKeyDictionary()


def query_sharing_key(query: FAQQuery) -> str:
    """A digest of the query's semiring plus factor *set* (order-insensitive).

    Two queries with equal sharing keys evaluate over the same factor
    content under the same algebra, which is the precondition for their
    elimination steps to collide in the content-addressed step IR.  The
    serving tier routes on this key so overlapping queries land on the
    replica whose step cache already holds their shared prefixes.  Raises
    ``TypeError`` for factors without a canonical encoding.
    """
    cached = _SHARING_KEY_MEMO.get(query)
    if cached is not None:
        return cached
    factor_part = ";".join(sorted(factor_digest(f) for f in query.factors))
    key = _digest(
        b"sharing",
        canonical_bytes(query.semiring.name),
        factor_part.encode("ascii"),
    )
    _SHARING_KEY_MEMO[query] = key
    return key


def ordering_to_indices(ordering: Sequence[str], canon: Sequence[str]) -> Tuple[int, ...]:
    """Translate a variable ordering into canonical indices for storage."""
    index = {v: i for i, v in enumerate(canon)}
    return tuple(index[v] for v in ordering)


def ordering_from_indices(indices: Sequence[int], canon: Sequence[str]) -> Tuple[str, ...]:
    """Translate stored canonical indices back into this query's variables."""
    return tuple(canon[i] for i in indices)
