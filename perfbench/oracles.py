"""Correctness oracles that do not go through the attribution pipeline.

Every check raises :class:`OracleError` on a mismatch; the benchmark lets it
end the run with a non-zero exit, so a wrong value is never a counted
failure and never a timing.  The oracles are

* ``brute_shapley`` -- Shapley values by subset enumeration over
  ``query.evaluate`` (instances with ``|Dn| <= 12``);
* ``check_efficiency`` -- values sum to ``v(D) - v(Dx)``;
* ``check_null_and_sign`` -- a fact in no minimal support has value 0, every
  other fact of a hom-closed query a positive one (supports are found by the
  benchmark's own matcher, not the program's);
* ``check_islands`` / ``check_reflection`` -- isomorphic islands and the
  chain's reflection map facts to facts of equal value;
* ``check_equal`` -- bitwise equality against a reference, such as a cold
  session with ``method="counting"`` (the recursive counter).

``self_test`` feeds each oracle one perturbed ``Fraction`` and requires it to
fail.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from repro.api import AttributionSession, EngineConfig
from repro.data import fact
from repro.data.atoms import Fact
from repro.data.database import PartitionedDatabase

BRUTE_LIMIT = 12


class OracleError(AssertionError):
    """A value the program returned is wrong."""


def check_equal(what: str, got: "dict[Fact, Fraction]",
                expected: "dict[Fact, Fraction]") -> None:
    """Bitwise equality: same facts, every value an equal ``Fraction``."""
    if set(got) != set(expected):
        raise OracleError(f"{what}: fact sets differ "
                          f"({len(set(got) ^ set(expected))} facts)")
    for f, value in got.items():
        if type(value) is not Fraction or value != expected[f]:
            raise OracleError(f"{what}: {f} = {value!r}, expected {expected[f]!r}")


@lru_cache(maxsize=8192)
def _v(query, facts: "frozenset[Fact]") -> int:
    return 1 if query.evaluate(facts) else 0


def brute_shapley(query, pdb: PartitionedDatabase) -> "dict[Fact, Fraction]":
    """Shapley values from the ``2^n`` coalition table of ``query.evaluate``."""
    players = sorted(pdb.endogenous)
    n = len(players)
    if n > BRUTE_LIMIT:
        raise ValueError(f"brute force is for |Dn| <= {BRUTE_LIMIT}, got {n}")
    exogenous = frozenset(pdb.exogenous)
    table = [_v(query, exogenous | {players[i] for i in range(n) if mask >> i & 1})
             for mask in range(1 << n)]
    weight = [Fraction(factorial(k) * factorial(n - k - 1), factorial(n))
              for k in range(n)]
    values = {}
    for i, player in enumerate(players):
        bit = 1 << i
        total = Fraction(0)
        for mask in range(1 << n):
            if not mask & bit:
                total += weight[bin(mask).count("1")] * (table[mask | bit] - table[mask])
        values[player] = total
    return values


def check_efficiency(what: str, query, pdb: PartitionedDatabase,
                     values: "dict[Fact, Fraction]") -> None:
    """Efficiency axiom: ``sum(values) == v(D) - v(Dx)``."""
    expected = (_v(query, frozenset(pdb.all_facts))
                - _v(query, frozenset(pdb.exogenous)))
    total = sum(values.values(), Fraction(0))
    if total != expected:
        raise OracleError(f"{what}: values sum to {total}, v(D) - v(Dx) = {expected}")


def _matches(atoms, index, binding, chosen):
    """Every homomorphism image of the atom list (a plain backtracking join)."""
    if not atoms:
        yield frozenset(chosen)
        return
    relation, pattern = atoms[0]
    candidates = index.get((relation, None, None), ())
    for position, term in enumerate(pattern):
        value = binding.get(term) if len(term) == 1 and term.islower() else term
        if value is not None:
            candidates = index.get((relation, position, value), ())
            break
    for f in candidates:
        args = [t.name for t in f.terms]
        if len(args) != len(pattern):
            continue
        extended = dict(binding)
        for term, arg in zip(pattern, args):
            if len(term) == 1 and term.islower():
                if extended.setdefault(term, arg) != arg:
                    break
            elif term != arg:
                break
        else:
            yield from _matches(atoms[1:], index, extended, chosen + [f])


def relevant_facts(atoms, pdb: PartitionedDatabase) -> "frozenset[Fact]":
    """Endogenous facts in some minimal endogenous support of the query.

    A support's endogenous part is a homomorphism image minus ``Dx``; the
    minimal ones among those are the minimal endogenous supports.
    """
    index: "dict[tuple, list[Fact]]" = {}
    for f in pdb.all_facts:
        index.setdefault((f.relation, None, None), []).append(f)
        for position, term in enumerate(f.terms):
            index.setdefault((f.relation, position, term.name), []).append(f)
    parts = {image & pdb.endogenous
             for image in _matches(list(atoms), index, {}, [])}
    minimal = [p for p in parts if not any(q < p for q in parts)]
    return frozenset().union(*minimal) if minimal else frozenset()


def check_null_and_sign(what: str, atoms, pdb: PartitionedDatabase,
                        values: "dict[Fact, Fraction]") -> None:
    """Null players are 0; facts of a minimal support are > 0 (hom-closed)."""
    relevant = relevant_facts(atoms, pdb)
    for f, value in values.items():
        if value < 0:
            raise OracleError(f"{what}: {f} has negative value {value}")
        if (f in relevant) != (value > 0):
            raise OracleError(f"{what}: {f} has value {value} but "
                              f"{'is' if f in relevant else 'is not'} in a minimal support")


def check_islands(what: str, values: "dict[Fact, Fraction]", islands, iso,
                  pdb: PartitionedDatabase) -> None:
    """Facts of isomorphic islands that are intact in ``pdb`` have equal values."""
    intact = [k for k, island in enumerate(islands)
              if all(f in pdb.endogenous for f in island)]
    for k in intact[1:]:
        mapping = {f: iso[intact[0]].get(f) for f in islands[intact[0]]}
        back = {image: f for f, image in mapping.items()}
        for f in islands[k]:
            twin = back[iso[k][f]]
            if values[f] != values[twin]:
                raise OracleError(f"{what}: isomorphic facts {f} = {values[f]} "
                                  f"and {twin} = {values[twin]}")


def check_reflection(what: str, values: "dict[Fact, Fraction]",
                     reflection: "dict[Fact, Fact]") -> None:
    """An automorphism of the database maps each fact to one of equal value."""
    for f, image in reflection.items():
        if values[f] != values[image]:
            raise OracleError(f"{what}: {f} = {values[f]} but its mirror "
                              f"{image} = {values[image]}")


def counting_values(query, pdb: PartitionedDatabase) -> "dict[Fact, Fraction]":
    """A cold session on the recursive counter (``method="counting"``)."""
    return AttributionSession(query, pdb, EngineConfig(
        method="counting", on_hard="exact", workers=1)).values()


def _must_fail(name: str, check) -> None:
    try:
        check()
    except OracleError:
        return
    raise RuntimeError(f"oracle self-test: {name} accepted a perturbed value")


def self_test(query, atoms) -> int:
    """Show that every oracle rejects one perturbed ``Fraction``.

    The instance is two isomorphic ``q_RST`` islands plus a null player, small
    enough for the brute oracle (``|Dn| = 11``).  Returns the number of
    oracles tested.
    """
    islands = [[fact("R", f"a{k}"), fact("S", f"a{k}", f"b{k}0"),
                fact("S", f"a{k}", f"b{k}1"), fact("T", f"b{k}0"),
                fact("T", f"b{k}1")] for k in range(2)]
    iso = [dict(zip(island, islands[0])) for island in islands]
    null = fact("S", "a0", "nowhere")
    pdb = PartitionedDatabase({f for i in islands for f in i} | {null}, ())
    swap = {f: islands[1 - k][i] for k, island in enumerate(islands)
            for i, f in enumerate(island)}
    swap[null] = null
    exact = brute_shapley(query, pdb)
    counted = counting_values(query, pdb)
    checks = {
        "brute": lambda v: check_equal("brute", v, exact),
        "counting": lambda v: check_equal("counting", v, counted),
        "efficiency": lambda v: check_efficiency("efficiency", query, pdb, v),
        "null": lambda v: check_null_and_sign("null", atoms, pdb, v),
        "islands": lambda v: check_islands("islands", v, islands, iso, pdb),
        "reflection": lambda v: check_reflection("reflection", v, swap),
    }
    victim = {"null": null, "islands": islands[1][1],
              "reflection": islands[0][0]}
    for name, check in checks.items():
        check(exact)
        perturbed = dict(exact)
        target = victim.get(name, islands[0][2])
        perturbed[target] += Fraction(1, 1000)
        _must_fail(name, lambda: check(perturbed))
    negative = dict(exact)
    negative[islands[0][0]] = -negative[islands[0][0]]
    _must_fail("sign", lambda: check_null_and_sign("sign", atoms, pdb, negative))
    return len(checks) + 1
