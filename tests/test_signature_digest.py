"""Content digests: cross-process stability, value equality, injectivity.

These are the keys the serving tier coalesces and routes on, so the tests
pin the properties everything else relies on:

* **stability** — the same query content digests identically in other
  interpreter processes (builtin ``hash`` is ``PYTHONHASHSEED``-salted and
  would not);
* **value discrimination** — value-equal queries built as distinct objects
  share a key, while any change to a factor cell, a domain, or a variable
  *name* (renamed isomorphic queries produce differently-named outputs)
  produces a different key;
* **soundness** — property-tested on both sparse encodings (the NumPy
  column path and the per-cell fallback): insertion order never changes a
  digest, equal digests mean equal table content type for type, and a
  digest survives a pickle round trip bit for bit, as does the query key
  across the replica wire.
"""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import FAQQuery, Variable
from repro.factors.dense import DenseFactor
from repro.factors.factor import Factor
from repro.planner import PlanCache, factor_digest, query_content_key, signature_digest
from repro.planner import signature
from repro.planner.cache import DigestPlan
from repro.planner.signature import _column_digest, canonical_bytes, query_signature
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import STANDARD_SEMIRINGS
from repro.serve.protocol import decode_query, encode_query

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fixed_query(value=1.5, domain=(0, 1, 2), rename=None, name="digest-fixture"):
    """A deterministic query; tweakable knobs for the discrimination tests."""
    a, b, c = ("A", "B", "C") if rename is None else rename
    variables = [Variable(a, domain), Variable(b, domain), Variable(c, (0, 1))]
    f1 = Factor((a, b), {(i, j): value + i * len(domain) + j
                         for i in range(len(domain)) for j in range(len(domain))})
    f2 = Factor((b, c), {(i, j): 0.25 + i + j for i in range(len(domain)) for j in range(2)})
    return FAQQuery(
        variables=variables,
        free=[a],
        aggregates={b: SemiringAggregate.sum(), c: SemiringAggregate.sum()},
        factors=[f1, f2],
        semiring=STANDARD_SEMIRINGS["sum-product"],
        name=name,
    )


# ---------------------------------------------------------------------- #
# cross-process stability
# ---------------------------------------------------------------------- #
def _key_in_subprocess(hash_seed):
    """Compute the fixture's content key in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_REPO, "src"), os.path.join(_REPO, "tests")]
    )
    env["PYTHONHASHSEED"] = str(hash_seed)
    script = (
        "from test_signature_digest import _fixed_query, _fallback_factor\n"
        "from repro.planner import query_content_key, factor_digest\n"
        "q = _fixed_query()\n"
        "print(query_content_key(q))\n"
        "for f in q.factors:\n"
        "    print(factor_digest(f))\n"
        "print(factor_digest(_fallback_factor()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=_REPO, check=True,
    )
    return out.stdout.split()


def _fallback_factor():
    """A factor the column path refuses (string and bool keys)."""
    return Factor(("A", "B"), {("x", True): 1.5, ("y", False): 2})


@pytest.mark.slow
def test_digests_stable_across_processes():
    """The coalescing keys agree between this process and fresh interpreters
    started under *different* hash seeds — the property builtin ``hash``
    lacks and the cross-process serving tier requires.  Covers both sparse
    encodings: the fixture's factors take the column path."""
    query = _fixed_query()
    assert all(_column_digest(f.scope, f.table) is not None for f in query.factors)
    fallback = _fallback_factor()
    assert _column_digest(fallback.scope, fallback.table) is None
    here = (
        [query_content_key(query)]
        + [factor_digest(f) for f in query.factors]
        + [factor_digest(fallback)]
    )
    assert _key_in_subprocess(0) == here
    assert _key_in_subprocess(12345) == here


# ---------------------------------------------------------------------- #
# value equality and discrimination
# ---------------------------------------------------------------------- #
def test_value_equal_distinct_objects_share_key():
    q1, q2 = _fixed_query(), _fixed_query()
    assert q1 is not q2
    assert all(x is not y for x, y in zip(q1.factors, q2.factors))
    assert query_content_key(q1) == query_content_key(q2)


def test_query_name_does_not_enter_the_key():
    # The query name is presentation, not content: results are identical.
    assert query_content_key(_fixed_query(name="a")) == query_content_key(_fixed_query(name="b"))


def test_changed_factor_cell_changes_key():
    assert query_content_key(_fixed_query(value=1.5)) != query_content_key(_fixed_query(value=1.5000001))


def test_changed_domain_changes_key():
    assert query_content_key(_fixed_query(domain=(0, 1, 2))) != query_content_key(
        _fixed_query(domain=(0, 1, 3))
    )


def test_renamed_isomorphic_query_gets_a_different_key():
    """Isomorphic renames share a *signature* (the plan cache wants that)
    but must not share a *content key* (their outputs name different
    variables, so one execution cannot answer both)."""
    original, renamed = _fixed_query(), _fixed_query(rename=("X", "Y", "Z"))
    assert query_signature(original)[0] == query_signature(renamed)[0]
    assert query_content_key(original) != query_content_key(renamed)


def test_semiring_choice_enters_the_key():
    q_sum = _fixed_query()
    q_max = FAQQuery(
        variables=[q_sum.variables[v] for v in q_sum.order],
        free=q_sum.free,
        aggregates={v: SemiringAggregate.max() for v in q_sum.bound},
        factors=q_sum.factors,
        semiring=STANDARD_SEMIRINGS["max-product"],
        name=q_sum.name,
    )
    assert query_content_key(q_sum) != query_content_key(q_max)


# ---------------------------------------------------------------------- #
# factor digests
# ---------------------------------------------------------------------- #
def test_factor_digest_ignores_name_but_not_values():
    f1 = Factor(("A", "B"), {(0, 1): 2.0, (1, 0): 3.0}, name="one")
    f2 = Factor(("A", "B"), {(1, 0): 3.0, (0, 1): 2.0}, name="two")
    assert factor_digest(f1) == factor_digest(f2)
    f3 = Factor(("A", "B"), {(0, 1): 2.0, (1, 0): 3.5})
    assert factor_digest(f1) != factor_digest(f3)


def test_dense_factor_digest_tracks_cells():
    np = pytest.importorskip("numpy")
    domains = {"A": (0, 1), "B": (0, 1)}
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    d1 = DenseFactor(("A", "B"), domains, arr.copy())
    d2 = DenseFactor(("A", "B"), domains, arr.copy(), name="other")
    assert factor_digest(d1) == factor_digest(d2)
    arr2 = arr.copy()
    arr2[1, 1] = 4.5
    assert factor_digest(d1) != factor_digest(DenseFactor(("A", "B"), domains, arr2))


# ---------------------------------------------------------------------- #
# canonical_bytes + the digest-addressed cache
# ---------------------------------------------------------------------- #
def test_canonical_bytes_discriminates_types_and_shapes():
    pairs = [
        (1, "1"), (1, 1.0), (True, 1), (False, 0), (None, 0), (b"x", "x"),
        ((1, 2), (12,)), ((1, (2,)), ((1, 2),)), ("ab", ("a", "b")),
    ]
    for left, right in pairs:
        assert canonical_bytes(left) != canonical_bytes(right), (left, right)
    assert canonical_bytes({3, 1, 2}) == canonical_bytes(frozenset((1, 2, 3)))
    assert canonical_bytes([1, 2]) == canonical_bytes((1, 2))  # sequences unify


def test_canonical_bytes_rejects_opaque_objects():
    with pytest.raises(TypeError):
        canonical_bytes(object())
    with pytest.raises(TypeError):
        canonical_bytes({"a": 1})  # mappings have no canonical order defined


def test_unencodable_query_raises_and_request_degrades():
    from repro.serve import ServeRequest

    class Opaque:
        """Orderable so Variable/table construction works, but unencodable."""

        def __init__(self, n):
            self.n = n

        def __lt__(self, other):
            return self.n < other.n

        def __eq__(self, other):
            return isinstance(other, Opaque) and self.n == other.n

        def __hash__(self):
            return hash(("opaque", self.n))

    domain = (Opaque(0), Opaque(1))
    query = FAQQuery(
        variables=[Variable("A", domain), Variable("B", (0, 1))],
        free=["A"],
        aggregates={"B": SemiringAggregate.sum()},
        factors=[Factor(("A", "B"), {(domain[0], 0): 1.0, (domain[1], 1): 2.0})],
        semiring=STANDARD_SEMIRINGS["sum-product"],
    )
    with pytest.raises(TypeError):
        query_content_key(query)
    # The serving request degrades to "never coalesced" instead of failing.
    assert ServeRequest(query=query).content_key is None


def test_signature_digest_is_deterministic_hex():
    signature, _ = query_signature(_fixed_query())
    digest = signature_digest(signature)
    assert digest == signature_digest(signature)
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_plan_cache_digest_entries_are_isolated_and_counted():
    cache = PlanCache(maxsize=8)
    stored = DigestPlan(
        strategy="insideout", backend="sparse", ordering=("A", "B"),
        estimated_cost=1.0, faq_width=1.0,
    )
    assert cache.lookup_digest("k1") is None  # miss
    cache.store_digest("k1", stored)
    assert cache.lookup_digest("k1") == stored  # hit
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 0  # digest entries do not occupy signature slots
    cache.clear()
    assert cache.lookup_digest("k1") is None


# ---------------------------------------------------------------------- #
# digest soundness, on both sparse encodings
# ---------------------------------------------------------------------- #
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
_SCOPES = ((), ("A",), ("A", "B"), ("A", "B", "C"))


@st.composite
def _column_tables(draw, key_atoms, value_atoms):
    """``(scope, table)`` with int keys and uniformly typed int-or-float values."""
    scope = draw(st.sampled_from(_SCOPES))
    keys = draw(st.lists(
        st.tuples(*[key_atoms] * len(scope)), min_size=1, max_size=10, unique=True
    ))
    values = draw(st.sampled_from(value_atoms))
    return scope, {key: draw(values) for key in keys}


@st.composite
def _any_tables(draw, key_atoms, value_atoms):
    """``(scope, table)`` over arbitrary atoms, on either encoding."""
    scope = draw(st.sampled_from(_SCOPES))
    keys = draw(st.lists(
        st.tuples(*[key_atoms] * len(scope)), min_size=0, max_size=10, unique=True
    ))
    return scope, {key: draw(value_atoms) for key in keys}


_WIDE_INTS = st.integers(INT64_MIN, INT64_MAX)
_FLOATS = st.floats(allow_nan=False)
_ATOMS = st.one_of(
    st.integers(-2, 2), st.booleans(), st.floats(-2, 2, allow_nan=False),
    st.sampled_from([2**63, INT64_MIN - 1, INT64_MAX, INT64_MIN, "1", "a"]),
)


def _takes_column_path(scope, table):
    return _column_digest(scope, table) is not None


def _fallback_only(tables):
    return tables.filter(lambda t: not _takes_column_path(*t))


# The large spaces exercise ordering and pickling; the small ones make equal
# and near-equal tables (1 vs 1.0 vs True, 0.0 vs -0.0) collide often.
# "mixed" draws both encodings, so it also pits one against the other.
_LARGE = {
    "column": _column_tables(st.one_of(st.integers(-3, 3), _WIDE_INTS), [_WIDE_INTS, _FLOATS]),
    "fallback": _fallback_only(_any_tables(_ATOMS, st.one_of(_ATOMS, _FLOATS))),
}
_SMALL_MIXED = _any_tables(
    st.sampled_from([0, 1, True, 1.0, 2**63]),
    st.sampled_from([0, 1, 1.0, -0.0, 0.0, True, 2**63]),
)
_SMALL = {
    "column": _column_tables(
        st.integers(-1, 1), [st.sampled_from([0, 1]), st.sampled_from([0.0, -0.0, 1.0])]
    ),
    "fallback": _fallback_only(_SMALL_MIXED),
    "mixed": _SMALL_MIXED,
}


def _atom(value):
    return type(value).__name__, repr(value)


def _typed_content(scope, table):
    """The table's content with every atom's exact type (``1 != 1.0 != True``)."""
    return tuple(scope), frozenset(
        (tuple(map(_atom, key)), _atom(value)) for key, value in table.items()
    )


@pytest.mark.parametrize("path", ["column", "fallback"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_digest_ignores_insertion_order(path, data):
    scope, table = data.draw(_LARGE[path])
    assert _takes_column_path(scope, table) == (path == "column")
    shuffled = data.draw(st.permutations(list(table.items())))
    assert factor_digest(Factor(scope, table)) == factor_digest(Factor(scope, shuffled))


@pytest.mark.parametrize("path", ["column", "fallback", "mixed"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_equal_digest_iff_equal_typed_content(path, data):
    """Equal digest ⇒ equal content (the six caches' soundness), and equal
    content ⇒ equal digest (value-equal requests coalesce)."""
    left = data.draw(_SMALL[path])
    right = data.draw(_SMALL[path])
    same_digest = factor_digest(Factor(*left)) == factor_digest(Factor(*right))
    assert same_digest == (_typed_content(*left) == _typed_content(*right))


@pytest.mark.parametrize("path", ["column", "fallback"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_digest_survives_pickle_bit_for_bit(path, data):
    factor = Factor(*data.draw(_LARGE[path]))
    digest = factor_digest(factor)
    revived = pickle.loads(pickle.dumps(factor))
    assert revived.table == factor.table
    assert revived._digest == digest
    assert signature._compute_factor_digest(revived) == digest


def test_digest_type_tags_are_injective():
    def digest(table, scope=("A",)):
        return factor_digest(Factor(scope, table))

    keys = [digest({(1,): 2.0}), digest({(True,): 2.0}), digest({(1.0,): 2.0})]
    assert len(set(keys)) == 3
    values = [digest({(0,): 1}), digest({(0,): 1.0}), digest({(0,): True})]
    assert len(set(values)) == 3
    # -0.0 and 0.0 compare equal but are different content, on both paths.
    assert digest({(0,): -0.0}) != digest({(0,): 0.0})
    assert digest({("a",): -0.0}) != digest({("a",): 0.0})
    # Mixed int and float values cannot share one column: per-cell encoder.
    assert not _takes_column_path(("A",), {(0,): 1, (1,): 1.0})


def test_ints_beyond_int64_fall_back_without_wrapping():
    assert _takes_column_path(("A",), {(INT64_MAX,): 1, (INT64_MIN,): INT64_MIN})
    for table in ({(2**63,): 1.0}, {(INT64_MIN - 1,): 1.0}, {(0,): 2**63}):
        assert not _takes_column_path(("A",), table)
    # 2**63 must not alias its int64 wrap-around, -2**63.
    wrapped = factor_digest(Factor(("A",), {(INT64_MIN,): 1.0}))
    assert factor_digest(Factor(("A",), {(2**63,): 1.0})) != wrapped


def test_numpy_scalars_and_empty_tables_take_the_fallback():
    np = pytest.importorskip("numpy")
    assert not _takes_column_path(("A",), {(np.int64(0),): 1.0})
    assert not _takes_column_path(("A",), {(0,): np.float64(1.0)})
    assert not _takes_column_path(("A",), {})
    assert factor_digest(Factor(("A",), {})) != factor_digest(Factor(("B",), {}))


def test_replica_rebuild_keeps_the_senders_digests(monkeypatch):
    """A query rebuilt from its wire skeleton and pickled tables keeps the
    frontend's factor digests and content key: the replica hashes nothing."""
    query = _fixed_query()
    key = query_content_key(query)
    wire, tables = encode_query(query)
    shipped = pickle.loads(pickle.dumps(tables))

    def no_rehash(*_args):
        raise AssertionError("the replica re-hashed shipped content")

    monkeypatch.setattr(signature, "_compute_factor_digest", no_rehash)
    monkeypatch.setattr(signature, "query_signature", no_rehash)
    rebuilt = decode_query(wire, shipped)
    assert query_content_key(rebuilt) == key
    assert tuple(factor_digest(f) for f in rebuilt.factors) == wire.factor_digests
    monkeypatch.undo()
    # The adopted key is the one the replica would have derived itself.
    keyless = decode_query(dataclasses.replace(wire, query_key=None), shipped)
    assert query_content_key(keyless) == key
