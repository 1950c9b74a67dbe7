"""Seeded inputs of the workloads.

Every instance has a fixed *shape* (which constants are joined to which), so
that the work one operation does is the same under every seed; the seed picks
the constant names, the order of the operations and which of several
isomorphic facts a delta touches.  Constant names keep a fixed-width index in
front of their seeded tag, so the sorted order of facts (which fixes the
compiler's variable order) is the same under every seed, while the inputs and
every hash computed over them differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.data import atom, fact, var
from repro.data.atoms import Fact
from repro.data.database import PartitionedDatabase
from repro.queries import cq
from repro.experiments.catalog import (
    q_hierarchical,
    q_negation_hard,
    q_rst,
)

_TAG_LETTERS = "abcdefghjkmnpqrstuvwxyz"
_X, _Y = var("x"), var("y")

#: The queries the workloads ask, as (relation, argument pattern) lists the
#: oracles match on their own: a lower-case single letter is a variable.
QUERY_ATOMS = {
    "q_RST": (("R", ("x",)), ("S", ("x", "y")), ("T", ("y",))),
    "q_hier": (("R", ("x",)), ("S", ("x", "y"))),
    "q_abc": (("A", ("x",)), ("B", ("x", "y")), ("C", ("y",))),
}
QUERIES = {
    "q_RST": q_rst(),
    "q_hier": q_hierarchical(),
    "q_abc": cq(atom("A", _X), atom("B", _X, _Y), atom("C", _Y), name="q_abc"),
    "qneg_hard": q_negation_hard(),
}
#: The query text the HTTP API parses back into ``QUERIES``.
QUERY_TEXT = {
    "q_RST": "R(x), S(x, y), T(y)",
    "q_hier": "R(x), S(x, y)",
}


class Names:
    """Seeded constant names that sort like their (prefix, index)."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._memo: "dict[tuple[str, int], str]" = {}

    def __call__(self, prefix: str, index: int) -> str:
        key = (prefix, index)
        if key not in self._memo:
            tag = "".join(self._rng.choice(_TAG_LETTERS) for _ in range(3))
            self._memo[key] = f"{prefix}{index:03d}{tag}"
        return self._memo[key]


@dataclass
class Instance:
    """One database of a workload, with what the oracles need to know of it."""

    name: str
    query: str
    pdb: PartitionedDatabase
    #: Facts of island ``k`` (every island isomorphic to every other).
    islands: "list[list[Fact]]" = field(default_factory=list)
    #: The island bijection: ``iso[k][f]`` is the fact of island 0 that
    #: ``f`` of island ``k`` maps to.
    iso: "list[dict[Fact, Fact]]" = field(default_factory=list)
    #: An automorphism of the database (the chain's reflection).
    reflection: "dict[Fact, Fact] | None" = None


def _rst_island(names: Names, k: int, left: int, right: int) -> "list[Fact]":
    facts = []
    for i in range(left):
        facts.append(fact("R", names(f"i{k:02d}l", i)))
        for j in range(right):
            facts.append(fact("S", names(f"i{k:02d}l", i), names(f"i{k:02d}r", j)))
    for j in range(right):
        facts.append(fact("T", names(f"i{k:02d}r", j)))
    return facts


def _dead_end_pad(names: Names, n: int) -> "set[Fact]":
    """``2n`` exogenous facts that join no ``T``: in no minimal support."""
    pad = set()
    for k in range(n):
        pad.add(fact("R", names("p", k)))
        pad.add(fact("S", names("p", k), names("dead", k)))
    return pad


def sparse_rst(names: Names, n_left: int, n_right: int, p: float,
               shape_seed: int, label: str) -> Instance:
    """A sparse bipartite R/S/T instance, every fact endogenous.

    The edge set is drawn from ``shape_seed`` (the repo's circuit benchmark
    family), never from the run seed.
    """
    shape = random.Random(shape_seed)
    facts = set()
    for i in range(n_left):
        facts.add(fact("R", names("l", i)))
    for j in range(n_right):
        facts.add(fact("T", names("r", j)))
    for i in range(n_left):
        for j in range(n_right):
            if shape.random() < p:
                facts.add(fact("S", names("l", i), names("r", j)))
    return Instance(label, "q_RST", PartitionedDatabase(facts, ()))


def chain_rst(names: Names, links: int) -> Instance:
    """A connected zig-zag chain ``l_i - r_i, l_i - r_{i+1}``: one long island."""
    facts = set()
    for i in range(links):
        facts.add(fact("R", names("l", i)))
        facts.add(fact("S", names("l", i), names("r", i)))
        facts.add(fact("S", names("l", i), names("r", i + 1)))
    for j in range(links + 1):
        facts.add(fact("T", names("r", j)))

    def reflect(f: Fact) -> Fact:
        args = [t.name for t in f.terms]
        out = []
        for a in args:
            index = int(a[1:4])
            out.append(names("l", links - 1 - index) if a[0] == "l"
                       else names("r", links - index))
        return fact(f.relation, *out)

    return Instance(f"chain{links}", "q_RST", PartitionedDatabase(facts, ()),
                    reflection={f: reflect(f) for f in facts})


def rst_islands(names: Names, n_islands: int, left: int, right: int,
                pad: int, label: str) -> Instance:
    """Isomorphic complete-bipartite R/S/T islands plus a dead-end exogenous pad."""
    islands = [_rst_island(names, k, left, right) for k in range(n_islands)]
    endogenous = {f for island in islands for f in island}
    iso = [dict(zip(island, islands[0])) for island in islands]
    return Instance(label, "q_RST",
                    PartitionedDatabase(endogenous, _dead_end_pad(names, pad)),
                    islands=islands, iso=iso)


def hierarchical(names: Names) -> Instance:
    """``R(x), S(x, y)`` over 18 endogenous facts: the safe (FP) route."""
    edges = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 3),
             (2, 4), (3, 0), (3, 4), (4, 1), (4, 2)]
    facts = {fact("R", names("x", i)) for i in range(5)}
    facts |= {fact("S", names("x", i), names("y", j)) for i, j in edges}
    return Instance("hier18", "q_hier", PartitionedDatabase(facts, ()))


def negation_hard(names: Names) -> Instance:
    """``qneg_hard`` over 12 endogenous facts: the brute ``2^n`` table."""
    facts = {fact("R", names("x", i)) for i in range(3)}
    facts |= {fact("T", names("y", j)) for j in range(3)}
    facts |= {fact("S", names("x", i), names("y", j))
              for i, j in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]}
    blocked = {fact("N", names("x", 0), names("y", 1)),
               fact("N", names("x", 2), names("y", 0))}
    return Instance("qneg12", "qneg_hard", PartitionedDatabase(facts, blocked))


def cold_ladder(seed: int) -> "list[Instance]":
    """The size ladder over both sides of Figure 1b (one instance per rung)."""
    names = Names(random.Random(seed))
    return [
        sparse_rst(names, 7, 7, 0.35, 5, "rst34"),
        sparse_rst(names, 9, 9, 0.33, 5, "rst48"),
        sparse_rst(names, 11, 11, 0.27, 5, "rst59"),
        sparse_rst(names, 12, 12, 0.29, 5, "rst66"),
        chain_rst(names, 50),
        rst_islands(names, 12, 3, 3, 100, "islands12"),
        hierarchical(names),
        negation_hard(names),
    ]


def abc_islands(names: Names, n_islands: int) -> "set[Fact]":
    """2x2 islands of ``q_abc = A(x), B(x, y), C(y)`` over its own relations."""
    facts = set()
    for k in range(n_islands):
        for i in range(2):
            facts.add(fact("A", names(f"a{k:02d}x", i)))
            facts.add(fact("C", names(f"a{k:02d}y", i)))
            for j in range(2):
                facts.add(fact("B", names(f"a{k:02d}x", i), names(f"a{k:02d}y", j)))
    return facts


def stream_database(seed: int) -> "tuple[Instance, random.Random]":
    """The workspace-stream database and the run's operation RNG.

    Twelve 3x3 ``q_RST`` islands (180 endogenous facts), two 2x2 islands of
    ``q_abc`` (16 endogenous facts) and 300 dead-end exogenous facts.
    """
    rng = random.Random(seed)
    names = Names(rng)
    base = rst_islands(names, 12, 3, 3, 150, "stream")
    pdb = PartitionedDatabase(base.pdb.endogenous | abc_islands(names, 2),
                              base.pdb.exogenous)
    return (Instance("stream", "q_RST", pdb, islands=base.islands, iso=base.iso),
            rng)


def serve_tenants(seed: int) -> "tuple[dict[str, Instance], random.Random]":
    """The service's tenants and the run's request RNG."""
    rng = random.Random(seed)
    names = Names(rng)
    small = sparse_rst(names, 4, 4, 0.6, 11, "small")
    return {
        "rst34": sparse_rst(names, 7, 7, 0.35, 5, "rst34"),
        "rst48": sparse_rst(names, 9, 9, 0.33, 5, "rst48"),
        "islands": rst_islands(names, 6, 3, 3, 50, "islands"),
        "small": small,
    }, rng
