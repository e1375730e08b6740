"""Seeded inputs and independent reference answers for the three workloads.

Every input is plain data (variable names plus cell tables) generated from
the workload seed; query objects are built from that data on demand, so the
served copy and the reference copy of one request never share an object and
no memoised digest leaks from one into the other.

The reference answer is written-order sparse ``inside_out``: no planner, no
cache, no replica and no dense kernel sits between the input and the answer
it is compared with.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import FAQQuery, Factor, FactorDelta, Variable, inside_out
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING, MAX_PRODUCT, SUM_PRODUCT

CHAIN_VARS = 5
CHAIN_DOMAIN = 8            # 4 factors x 64 cells
ZIPF_CLASSES = 32
ZIPF_S = 1.1
UPDATE_SHARE = 0.05         # zipf-mixed: share of requests that are factor updates


@dataclass(frozen=True)
class Content:
    """One exact query content: its shape plus its factor tables."""

    kind: str                       # "chain" | "marginal" | "map" | ...
    names: Tuple[str, ...]          # variables in written order, free first
    free: int                       # number of free variables
    domains: Tuple[tuple, ...]
    scopes: Tuple[Tuple[str, ...], ...]
    tables: Tuple[Tuple[Tuple[tuple, object], ...], ...]

    def build(self) -> FAQQuery:
        """A new query object (new factor objects) with this content."""
        semiring, aggregate = _ALGEBRA[self.kind]
        factors = [Factor(scope, dict(cells)) for scope, cells in zip(self.scopes, self.tables)]
        bound = self.names[self.free:]
        return FAQQuery(
            variables=[Variable(n, d) for n, d in zip(self.names, self.domains)],
            free=list(self.names[: self.free]),
            aggregates={n: aggregate() for n in bound},
            factors=factors,
            semiring=semiring,
            name=self.kind,
        )

    @property
    def semiring(self):
        return _ALGEBRA[self.kind][0]

    @property
    def cells(self) -> int:
        return sum(len(t) for t in self.tables)

    def updated(self, index: int, cell: tuple, value: float) -> "Content":
        """The content after setting one cell of factor ``index``."""
        table = dict(self.tables[index])
        table[cell] = value
        tables = list(self.tables)
        tables[index] = tuple(sorted(table.items()))
        return Content(self.kind, self.names, self.free, self.domains, self.scopes, tuple(tables))


_ALGEBRA = {
    "chain": (SUM_PRODUCT, SemiringAggregate.sum),
    "marginal": (SUM_PRODUCT, SemiringAggregate.sum),
    "triangle-sum": (SUM_PRODUCT, SemiringAggregate.sum),
    "map": (MAX_PRODUCT, SemiringAggregate.max),
    "triangle-max": (MAX_PRODUCT, SemiringAggregate.max),
    "cycle4-list": (BOOLEAN, SemiringAggregate.sum),
    "path4-count": (COUNTING, SemiringAggregate.sum),
}


def reference(content: Content) -> Factor:
    """The independent reference answer: written-order sparse InsideOut."""
    query = content.build()
    return inside_out(query, ordering=list(query.order), backend="sparse").factor


def delta_for(content: Content, index: int, cell: tuple, value: float) -> FactorDelta:
    return FactorDelta(content.scopes[index], {cell: value})


# ---------------------------------------------------------------------- #
# chains (fresh-chain, zipf-mixed)
# ---------------------------------------------------------------------- #
def chain(rng: random.Random, prefix: str) -> Content:
    """A 5-variable sum-product chain, 4 factors x 64 cells, fresh values."""
    names = tuple(f"{prefix}{i}" for i in range(CHAIN_VARS))
    domain = tuple(range(CHAIN_DOMAIN))
    scopes = tuple((names[i], names[i + 1]) for i in range(CHAIN_VARS - 1))
    tables = tuple(
        tuple(
            ((a, b), round(rng.uniform(0.1, 1.0), 6))
            for a in domain
            for b in domain
        )
        for _ in scopes
    )
    return Content("chain", names, 1, (domain,) * CHAIN_VARS, scopes, tables)


def random_cell_update(rng: random.Random, content: Content) -> Tuple[int, tuple, float]:
    """A one-cell update: (factor index, cell, new value)."""
    index = rng.randrange(len(content.scopes))
    cell = tuple(rng.choice(content.domains[content.names.index(v)]) for v in content.scopes[index])
    return index, cell, round(rng.uniform(0.1, 1.0), 6)


def zipf_classes(seed: int) -> List[Content]:
    """The base content of the 32 zipf-mixed chain classes."""
    rng = random.Random(seed)
    return [chain(rng, f"z{c}_") for c in range(ZIPF_CLASSES)]


class ZipfTraffic:
    """The zipf-mixed request stream over ``classes``.

    Each request picks a class with Zipf(1.1) popularity.  5% are one-cell
    updates of the class's current content; requests after an update carry
    the updated content, so updates chain across versions of content that
    has already been served.
    """

    def __init__(self, seed: int, classes: List[Content]) -> None:
        self.rng = random.Random(seed ^ 0x21FF)
        self.current = list(classes)
        self.version = [0] * len(classes)
        weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(classes) + 1)]
        self.cumulative = list(itertools.accumulate(weights))

    def next(self) -> Tuple[Tuple[int, int], Content, Optional[Tuple[int, tuple, float]]]:
        """``((class, version), content, update)``: the content the request
        carries, and for an update the cell it sets (else ``None``)."""
        rng = self.rng
        klass = bisect.bisect_left(self.cumulative, rng.random() * self.cumulative[-1])
        content, key = self.current[klass], (klass, self.version[klass])
        if rng.random() >= UPDATE_SHARE:
            return key, content, None
        update = random_cell_update(rng, content)
        self.current[klass] = content.updated(*update)
        self.version[klass] += 1
        return key, content, update


# ---------------------------------------------------------------------- #
# the library-kernels pool
# ---------------------------------------------------------------------- #
GRID = 5
GRID_QUERIES = 5            # marginals (and, separately, MAP) per pool


def _grid(kind: str, free: str, factors) -> Content:
    names = [f"X{r}_{c}" for r in range(GRID) for c in range(GRID)]
    names.remove(free)
    names = (free, *names)
    scopes = tuple(scope for scope, _ in factors)
    tables = tuple(cells for _, cells in factors)
    return Content(kind, names, 1, ((0, 1),) * len(names), scopes, tables)


def grid_factors(rng: random.Random):
    """Dense pairwise potentials of a 5x5 grid MRF over binary variables."""
    factors = []
    for r in range(GRID):
        for c in range(GRID):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < GRID and c + dc < GRID:
                    scope = (f"X{r}_{c}", f"X{r + dr}_{c + dc}")
                    cells = tuple(
                        ((a, b), round(rng.uniform(0.1, 2.0), 3)) for a in (0, 1) for b in (0, 1)
                    )
                    factors.append((scope, cells))
    return factors


def _edges(rng: random.Random, n: int, m: int) -> List[tuple]:
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def _graph_query(rng, kind, names, free, n, m, scopes, value) -> Content:
    tables = tuple(tuple((e, value(rng)) for e in _edges(rng, n, m)) for _ in scopes)
    return Content(kind, tuple(names), free, (tuple(range(n)),) * len(names), tuple(scopes), tables)


def library_pool(seed: int) -> List[Content]:
    """The fixed library-kernels pool: grid MRF marginals and MAP for a spread
    of variables (planned as variable elimination, dense), a weighted
    triangle with one free vertex under sum (InsideOut, sparse trie) and
    under max (flat kernel), a 4-cycle join listing and a 4-path join count
    (InsideOut, dense)."""
    rng = random.Random(seed)
    factors = grid_factors(rng)
    cells = [f"X{r}_{c}" for r in range(GRID) for c in range(GRID)]
    pool = [_grid("marginal", v, factors) for v in rng.sample(cells, GRID_QUERIES)]
    pool += [_grid("map", v, factors) for v in rng.sample(cells, GRID_QUERIES)]
    weight = lambda r: round(r.uniform(0.1, 1.0), 6)  # noqa: E731
    triangle = (("A", "B"), ("B", "C"), ("A", "C"))
    pool.append(_graph_query(rng, "triangle-sum", "ABC", 1, 400, 1500, triangle, weight))
    pool.append(_graph_query(rng, "triangle-max", "ABC", 1, 400, 1500, triangle, weight))
    cycle = (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"))
    pool.append(_graph_query(rng, "cycle4-list", "ABCD", 4, 60, 200, cycle, lambda r: True))
    path = (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"))
    pool.append(_graph_query(rng, "path4-count", "ABCDE", 0, 40, 400, path, lambda r: 1))
    return pool
