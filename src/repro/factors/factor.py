"""The :class:`Factor` class — sparse factors in the listing representation.

A factor ``ψ_S`` over scope ``S = (v_1, ..., v_s)`` is stored as a mapping
from value tuples ``(x_{v_1}, ..., x_{v_s})`` to non-zero semiring values.
Tuples absent from the table are implicitly ``0`` (the semiring's additive
identity, which annihilates under ``⊗``).

All operations that need to interpret values (detect zeros, multiply,
aggregate) take the :class:`~repro.semiring.base.Semiring` as an explicit
argument: a factor is just data, the algebra lives in the query.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.semiring.base import Semiring

Assignment = Mapping[str, Any]
ValueTuple = Tuple[Any, ...]


class FactorError(ValueError):
    """Raised on inconsistent factor construction or use."""


def _frozen_table_write(self, *args, **kwargs):
    raise FactorError(
        "factor table is frozen: the factor has been content-digested and "
        "digest-keyed caches may hold results derived from it.  Build an "
        "updated factor with Factor.apply_delta (or construct a new Factor) "
        "instead of mutating the table in place."
    )


class _FrozenTable(dict):
    """A read-only factor table.

    Reads stay plain C-speed ``dict`` operations; every mutating method
    raises :class:`FactorError`.  Installed by :meth:`Factor.freeze` once a
    factor has been content-digested — an in-place table change after that
    point would silently invalidate every digest-keyed cache entry derived
    from the factor (step results, shared tries, completed serve results).
    """

    __slots__ = ()

    __setitem__ = _frozen_table_write
    __delitem__ = _frozen_table_write
    __ior__ = _frozen_table_write
    pop = _frozen_table_write
    popitem = _frozen_table_write
    clear = _frozen_table_write
    update = _frozen_table_write
    setdefault = _frozen_table_write

    def __reduce__(self):
        # Pickle as a plain dict.  A digested Factor carries its digest memo
        # across the pickle and re-freezes the revived table in
        # ``Factor.__setstate__``; a bare table is just data.
        return (dict, (dict(self),))


class Factor:
    """A sparse factor over a tuple of named variables.

    Parameters
    ----------
    scope:
        Ordered tuple of variable names the factor depends on.  Variable
        names must be unique within the scope.
    table:
        Mapping from value tuples (aligned with ``scope``) to semiring
        values.  Entries equal to the semiring zero may be present; use
        :meth:`pruned` to drop them.
    name:
        Optional human-readable name (defaults to ``psi_{scope}``).
    """

    __slots__ = ("scope", "table", "name", "_variables", "_digest")

    def __init__(
        self,
        scope: Sequence[str],
        table: Mapping[ValueTuple, Any] | Iterable[Tuple[ValueTuple, Any]],
        name: str | None = None,
    ) -> None:
        self.scope: Tuple[str, ...] = tuple(scope)
        if len(set(self.scope)) != len(self.scope):
            raise FactorError(f"duplicate variables in scope {self.scope}")
        if isinstance(table, Mapping):
            items: Iterable[Tuple[ValueTuple, Any]] = table.items()
        else:
            items = table
        self.table: Dict[ValueTuple, Any] = {}
        arity = len(self.scope)
        for key, value in items:
            key = tuple(key)
            if len(key) != arity:
                raise FactorError(
                    f"tuple {key!r} has arity {len(key)}, scope {self.scope} has arity {arity}"
                )
            self.table[key] = value
        self.name = name if name is not None else "psi_{" + ",".join(map(str, self.scope)) + "}"
        self._variables: frozenset | None = None
        self._digest: str | None = None  # content-digest memo; factors are immutable

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """The factor size ``‖ψ_S‖``: the number of listed (non-zero) tuples."""
        return len(self.table)

    def __iter__(self) -> Iterator[Tuple[ValueTuple, Any]]:
        return iter(self.table.items())

    def __contains__(self, key: ValueTuple) -> bool:
        return tuple(key) in self.table

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Factor({self.name}, scope={self.scope}, size={len(self)})"

    def __getstate__(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        if self._digest is not None:
            # The digest memo survives the pickle, so the freeze it
            # certifies must too: the table revives as a plain dict.
            self.freeze()

    @property
    def variables(self) -> frozenset:
        """The scope as a frozen set (the hyperedge ``S``), built lazily once."""
        if self._variables is None:
            self._variables = frozenset(self.scope)
        return self._variables

    def copy(self, name: str | None = None) -> "Factor":
        """Return a shallow copy (table dict is copied, values are shared).

        The copy's table is a fresh mutable dict even when this factor is
        frozen, and the copy carries no digest memo.
        """
        return Factor(self.scope, dict(self.table), name=name or self.name)

    # ------------------------------------------------------------------ #
    # immutability & updates
    # ------------------------------------------------------------------ #
    @property
    def frozen(self) -> bool:
        """``True`` once the table has been frozen (mutation raises)."""
        return isinstance(self.table, _FrozenTable)

    def freeze(self) -> "Factor":
        """Make the table read-only; returns ``self``.

        Called by :func:`repro.planner.signature.factor_digest` the moment
        a content digest is memoised: from then on the digest certifies the
        table's content to every cache keyed on it, so in-place mutation
        must fail loudly instead of serving stale answers.  Updates go
        through :meth:`apply_delta`, which returns a *new* factor.
        """
        if not isinstance(self.table, _FrozenTable):
            self.table = _FrozenTable(self.table)
        return self

    def apply_delta(
        self, delta, semiring: Semiring, name: str | None = None
    ) -> "Factor":
        """Return a new factor with the delta's cell updates applied.

        ``delta`` is a :class:`~repro.factors.delta.FactorDelta` over the
        same variables (any scope order).  Cells set to the semiring zero
        are removed from the listing; other cells are inserted or
        overwritten.  ``self`` is untouched — the returned factor is a new
        object with no digest memo, so every content-addressed layer sees
        the update as new content.
        """
        table: Dict[ValueTuple, Any] = dict(self.table)
        for cell, value in delta.aligned_changes(self.scope).items():
            if semiring.is_zero(value):
                table.pop(cell, None)
            else:
                table[cell] = value
        return Factor(self.scope, table, name=name or self.name)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def value(self, assignment: Assignment, semiring: Semiring) -> Any:
        """Evaluate the factor on ``assignment`` (a dict of variable values).

        Variables outside the scope are ignored; missing scope variables
        raise.  Tuples not in the table evaluate to ``semiring.zero``.
        """
        try:
            key = tuple(assignment[v] for v in self.scope)
        except KeyError as exc:
            raise FactorError(f"assignment {assignment} misses scope variable {exc}") from exc
        return self.table.get(key, semiring.zero)

    def value_of_tuple(self, key: ValueTuple, semiring: Semiring) -> Any:
        """Evaluate the factor on a value tuple aligned with the scope."""
        return self.table.get(tuple(key), semiring.zero)

    def assignments(self) -> Iterator[Dict[str, Any]]:
        """Iterate the listed tuples as ``{variable: value}`` dicts."""
        for key in self.table:
            yield dict(zip(self.scope, key))

    # ------------------------------------------------------------------ #
    # zero handling
    # ------------------------------------------------------------------ #
    def pruned(self, semiring: Semiring) -> "Factor":
        """Return a copy with explicit zero entries removed.

        A frozen factor without zero entries is returned as is: it is
        immutable, so sharing it is safe, and it keeps its digest memo.
        """
        if self.frozen and not any(map(semiring.is_zero, self.table.values())):
            return self
        table = {k: v for k, v in self.table.items() if not semiring.is_zero(v)}
        return Factor(self.scope, table, name=self.name)

    def is_identically_zero(self, semiring: Semiring) -> bool:
        """Return ``True`` if every listed entry is zero (or none is listed)."""
        return all(semiring.is_zero(v) for v in self.table.values())

    # ------------------------------------------------------------------ #
    # conditioning (Section 4.1 of the paper)
    # ------------------------------------------------------------------ #
    def condition(self, partial: Assignment, semiring: Semiring) -> "Factor":
        """Return the conditional factor ``ψ_S(· | y_W)``.

        Entries inconsistent with the partial assignment become zero (i.e.
        are dropped); the scope is unchanged, matching Definition in
        Section 4.1 of the paper.
        """
        relevant = {v: partial[v] for v in self.scope if v in partial}
        if not relevant:
            return self.copy()
        positions = [(i, relevant[v]) for i, v in enumerate(self.scope) if v in relevant]
        table = {
            key: value
            for key, value in self.table.items()
            if all(key[i] == want for i, want in positions)
            and not semiring.is_zero(value)
        }
        return Factor(self.scope, table, name=self.name + "|cond")

    def restrict(self, partial: Assignment, semiring: Semiring) -> "Factor":
        """Condition on ``partial`` and drop the conditioned variables.

        Unlike :meth:`condition`, the returned factor's scope no longer
        contains the fixed variables.  This is the operation InsideOut and
        the brute-force evaluator use to "plug in" values.
        """
        fixed = {v: partial[v] for v in self.scope if v in partial}
        if not fixed:
            return self.copy()
        keep_idx = [i for i, v in enumerate(self.scope) if v not in fixed]
        check_idx = [(i, fixed[v]) for i, v in enumerate(self.scope) if v in fixed]
        new_scope = tuple(self.scope[i] for i in keep_idx)
        table: Dict[ValueTuple, Any] = {}
        for key, value in self.table.items():
            if semiring.is_zero(value):
                continue
            if all(key[i] == want for i, want in check_idx):
                table[tuple(key[i] for i in keep_idx)] = value
        return Factor(new_scope, table, name=self.name + "|restr")

    # ------------------------------------------------------------------ #
    # projections
    # ------------------------------------------------------------------ #
    def indicator_projection(self, target: Iterable[str], semiring: Semiring) -> "Factor":
        """The indicator projection ``ψ_{S/T}`` onto ``T`` (Definition 4.2).

        ``ψ_{S/T}(x_T) = 1`` iff some extension of ``x_T`` to ``S`` has a
        non-zero value, else ``0``.  The result's scope is ``S ∩ T`` in the
        order of this factor's scope.
        """
        target_set = set(target)
        keep_idx = [i for i, v in enumerate(self.scope) if v in target_set]
        if not keep_idx:
            raise FactorError(
                f"indicator projection of {self.name} onto a disjoint set {sorted(target_set)}"
            )
        new_scope = tuple(self.scope[i] for i in keep_idx)
        table: Dict[ValueTuple, Any] = {}
        for key, value in self.table.items():
            if semiring.is_zero(value):
                continue
            table[tuple(key[i] for i in keep_idx)] = semiring.one
        return Factor(new_scope, table, name=self.name + f"/{{{','.join(new_scope)}}}")

    def support_projection(self, target: Iterable[str]) -> set:
        """Return the set of projected tuples (no values) onto ``target``."""
        target_set = set(target)
        keep_idx = [i for i, v in enumerate(self.scope) if v in target_set]
        return {tuple(key[i] for i in keep_idx) for key in self.table}

    # ------------------------------------------------------------------ #
    # marginalisation
    # ------------------------------------------------------------------ #
    def aggregate_marginalize(
        self, variable: str, combine: Callable[[Any, Any], Any], semiring: Semiring
    ) -> "Factor":
        """Eliminate ``variable`` with a semiring aggregate ``⊕``.

        Because unlisted tuples are zero (the identity of any semiring
        aggregate sharing the query's ``0``), the aggregate only runs over
        listed tuples.
        """
        if variable not in self.scope:
            raise FactorError(f"{variable} not in scope {self.scope}")
        keep_idx = [i for i, v in enumerate(self.scope) if v != variable]
        new_scope = tuple(self.scope[i] for i in keep_idx)
        table: Dict[ValueTuple, Any] = {}
        for key, value in self.table.items():
            if semiring.is_zero(value):
                continue
            reduced = tuple(key[i] for i in keep_idx)
            if reduced in table:
                table[reduced] = combine(table[reduced], value)
            else:
                table[reduced] = value
        table = {k: v for k, v in table.items() if not semiring.is_zero(v)}
        return Factor(new_scope, table, name=self.name + f"-agg({variable})")

    def product_marginalize(
        self, variable: str, domain_size: int, semiring: Semiring
    ) -> "Factor":
        """Eliminate ``variable`` with the product aggregate ``⊗``.

        ``ψ'_{S-{k}}(x_{S-{k}}) = ⊗_{x_k ∈ Dom(X_k)} ψ_S(x_S)``.  Because the
        product ranges over the *whole* domain, any group that does not list
        all ``domain_size`` values of ``variable`` is annihilated by an
        implicit zero and is dropped from the result.
        """
        if variable not in self.scope:
            raise FactorError(f"{variable} not in scope {self.scope}")
        if domain_size <= 0:
            raise FactorError(f"domain size must be positive, got {domain_size}")
        keep_idx = [i for i, v in enumerate(self.scope) if v != variable]
        new_scope = tuple(self.scope[i] for i in keep_idx)
        partial: Dict[ValueTuple, Any] = {}
        counts: Dict[ValueTuple, int] = {}
        for key, value in self.table.items():
            if semiring.is_zero(value):
                continue
            reduced = tuple(key[i] for i in keep_idx)
            if reduced in partial:
                partial[reduced] = semiring.mul(partial[reduced], value)
                counts[reduced] += 1
            else:
                partial[reduced] = value
                counts[reduced] = 1
        table = {
            k: v
            for k, v in partial.items()
            if counts[k] == domain_size and not semiring.is_zero(v)
        }
        return Factor(new_scope, table, name=self.name + f"-prod({variable})")

    # ------------------------------------------------------------------ #
    # pointwise operations
    # ------------------------------------------------------------------ #
    def power(self, exponent: int, semiring: Semiring) -> "Factor":
        """Raise all listed values to ``exponent`` under ``⊗`` (pointwise)."""
        table = {k: semiring.power(v, exponent) for k, v in self.table.items()}
        table = {k: v for k, v in table.items() if not semiring.is_zero(v)}
        return Factor(self.scope, table, name=self.name + f"^{exponent}")

    def map_values(self, fn: Callable[[Any], Any], name: str | None = None) -> "Factor":
        """Apply ``fn`` to every listed value (scope preserved)."""
        return Factor(self.scope, {k: fn(v) for k, v in self.table.items()}, name=name or self.name)

    def has_idempotent_range(self, semiring: Semiring) -> bool:
        """``True`` iff every listed value is ⊗-idempotent (Definition 5.2)."""
        return all(semiring.is_mul_idempotent(v) for v in self.table.values())

    # ------------------------------------------------------------------ #
    # binary operations
    # ------------------------------------------------------------------ #
    def _joined_items(
        self, other: "Factor", semiring: Semiring
    ) -> Iterator[Tuple[ValueTuple, Any]]:
        """Hash-join with ``other``: yield ``(joined_tuple, product)`` pairs.

        The joined tuple follows the scope ``self.scope + other_only``;
        zero inputs and zero products are skipped.  Shared by
        :meth:`multiply` and :meth:`multiply_marginalize` so the two paths
        cannot diverge.
        """
        shared = [v for v in self.scope if v in other.scope]
        other_only = [v for v in other.scope if v not in self.scope]
        other_shared_idx = [other.scope.index(v) for v in shared]
        other_rest_idx = [other.scope.index(v) for v in other_only]
        self_shared_idx = [self.scope.index(v) for v in shared]

        buckets: Dict[ValueTuple, list] = {}
        for key, value in other.table.items():
            if semiring.is_zero(value):
                continue
            sig = tuple(key[i] for i in other_shared_idx)
            buckets.setdefault(sig, []).append((tuple(key[i] for i in other_rest_idx), value))

        for key, value in self.table.items():
            if semiring.is_zero(value):
                continue
            sig = tuple(key[i] for i in self_shared_idx)
            for rest, other_value in buckets.get(sig, ()):
                prod = semiring.mul(value, other_value)
                if semiring.is_zero(prod):
                    continue
                yield key + rest, prod

    def multiply(self, other: "Factor", semiring: Semiring) -> "Factor":
        """Pointwise product ``ψ_S ⊗ ψ_T`` over scope ``S ∪ T`` (a join).

        This is a straightforward hash join on the shared variables; the
        engine's OutsideIn join is used for the multiway case, this method is
        mostly a convenience for tests, baselines and small factors.
        """
        other_only = [v for v in other.scope if v not in self.scope]
        new_scope = self.scope + tuple(other_only)
        table: Dict[ValueTuple, Any] = dict(self._joined_items(other, semiring))
        return Factor(new_scope, table, name=f"({self.name}*{other.name})")

    def multiply_marginalize(
        self,
        other: "Factor",
        variable: str,
        combine: Callable[[Any, Any], Any],
        semiring: Semiring,
    ) -> Tuple["Factor", int]:
        """Fused ``(self ⊗ other)`` then ``⊕``-eliminate ``variable``.

        Joins like :meth:`multiply` but aggregates ``variable`` out of each
        joined tuple on the fly instead of materialising the full product
        first.  Returns ``(factor, joined_count)`` where ``joined_count`` is
        the number of non-zero joined tuples the unfused product would have
        listed — callers tracking intermediate sizes keep their historical
        accounting without paying for the intermediate.
        """
        other_only = [v for v in other.scope if v not in self.scope]
        product_scope = self.scope + tuple(other_only)
        if variable not in product_scope:
            raise FactorError(f"{variable} not in joined scope {product_scope}")
        keep_idx = [i for i, v in enumerate(product_scope) if v != variable]
        new_scope = tuple(product_scope[i] for i in keep_idx)

        joined = 0
        table: Dict[ValueTuple, Any] = {}
        for full, prod in self._joined_items(other, semiring):
            joined += 1
            reduced = tuple(full[i] for i in keep_idx)
            if reduced in table:
                table[reduced] = combine(table[reduced], prod)
            else:
                table[reduced] = prod
        table = {k: v for k, v in table.items() if not semiring.is_zero(v)}
        return (
            Factor(new_scope, table, name=f"({self.name}*{other.name})-agg({variable})"),
            joined,
        )

    def normalize_scope(self, order: Sequence[str]) -> "Factor":
        """Return an equivalent factor whose scope follows ``order``.

        Variables in the scope are re-ordered according to their position in
        ``order``; variables not listed in ``order`` keep their relative
        order at the end.
        """
        position = {v: i for i, v in enumerate(order)}
        new_scope = tuple(sorted(self.scope, key=lambda v: (position.get(v, len(order)), v)))
        if new_scope == self.scope:
            return self.copy()
        perm = [self.scope.index(v) for v in new_scope]
        table = {tuple(key[i] for i in perm): value for key, value in self.table.items()}
        return Factor(new_scope, table, name=self.name)

    # ------------------------------------------------------------------ #
    # comparisons (used heavily in tests)
    # ------------------------------------------------------------------ #
    def equals(self, other: "Factor", semiring: Semiring) -> bool:
        """Semantic equality: same function over the union of listed tuples."""
        if set(self.scope) != set(other.scope):
            return False
        other_aligned = other.normalize_scope(self.scope)
        keys = set(self.table) | set(other_aligned.table)
        for key in keys:
            a = self.table.get(key, semiring.zero)
            b = other_aligned.table.get(key, semiring.zero)
            if not semiring.values_equal(a, b):
                return False
        return True
