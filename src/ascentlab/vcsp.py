"""Valued CSP instances with explicit cost tables and exact integer evaluation.

An instance is a list of finite-domain variables plus weighted soft
constraints, each given by a dense cost table over its scope.  The objective
(``fitness``) of an assignment is the weighted sum of table lookups and is
always an exact Python ``int``: the counting landscape uses weights 4**(i-1)
that overflow any fixed-width integer type long before the interesting sizes,
so no float or fixed-width arithmetic is ever allowed in here.

Assignments are plain tuples of domain-value indices, one per variable.
Instances and constraints are frozen; every operation is a pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property


class VcspError(ValueError):
    """Invalid instance, assignment, or value index."""


@dataclass(frozen=True)
class SoftConstraint:
    """A weighted cost table over an ordered scope of variables.

    ``values`` is the dense table flattened row-major in scope order: the
    entry for value tuple (v1, ..., vk) sits at index
    ((v1 * d2 + v2) * d3 + v3) ... where dj is the domain size of the j-th
    scope variable.
    """

    scope: tuple[int, ...]
    weight: int
    values: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.scope)


@dataclass(frozen=True)
class VcspInstance:
    domains: tuple[int, ...]
    constraints: tuple[SoftConstraint, ...]
    metadata: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.domains:
            raise VcspError("instance needs at least one variable")
        for d in self.domains:
            if not isinstance(d, int) or d < 2:
                raise VcspError(f"domain sizes must be integers >= 2, got {d!r}")
        n = len(self.domains)
        for c in self.constraints:
            if len(c.scope) == 0:
                raise VcspError("constraint scope must be non-empty")
            if len(set(c.scope)) != len(c.scope):
                raise VcspError(f"repeated variable in scope {c.scope}")
            for v in c.scope:
                if not 0 <= v < n:
                    raise VcspError(f"scope variable {v} out of range")
            if not isinstance(c.weight, int) or c.weight < 0:
                raise VcspError(f"weight must be a nonnegative integer, got {c.weight!r}")
            size = 1
            for v in c.scope:
                size *= self.domains[v]
            if len(c.values) != size:
                raise VcspError(
                    f"dense table for scope {c.scope} needs {size} entries, got {len(c.values)}"
                )

    @property
    def num_variables(self) -> int:
        return len(self.domains)

    @cached_property
    def _terms_by_var(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per variable: (constraint position, stride) for each constraint
        whose scope holds it.  The stride is how far the flattened table
        index moves per unit of the variable's value."""
        by_var: list[list[tuple[int, int]]] = [[] for _ in self.domains]
        for pos, c in enumerate(self.constraints):
            stride = 1
            for v in reversed(c.scope):
                by_var[v].append((pos, stride))
                stride *= self.domains[v]
        return tuple(tuple(terms) for terms in by_var)

    @cached_property
    def _neighbourhoods(self) -> tuple[tuple[int, ...], ...]:
        """Per variable: itself and every variable sharing a scope with it,
        ascending; a change of the variable changes no other move delta."""
        constraints = self.constraints
        return tuple(
            tuple(sorted({var}.union(*(constraints[pos].scope for pos, _ in terms))))
            for var, terms in enumerate(self._terms_by_var)
        )

    def _check_assignment(self, assignment) -> None:
        if len(assignment) != len(self.domains):
            raise VcspError(
                f"assignment has {len(assignment)} values, instance has {len(self.domains)} variables"
            )
        for v, (val, d) in enumerate(zip(assignment, self.domains)):
            if not 0 <= val < d:
                raise VcspError(f"value {val} out of domain range for variable {v}")

    def _table_index(self, c: SoftConstraint, assignment) -> int:
        idx = 0
        for v in c.scope:
            idx = idx * self.domains[v] + assignment[v]
        return idx

    def evaluate(self, assignment) -> int:
        """Exact fitness: sum over constraints of weight * table entry."""
        self._check_assignment(assignment)
        total = 0
        for c in self.constraints:
            total += c.weight * c.values[self._table_index(c, assignment)]
        return total

    def delta_evaluate(self, assignment, var: int, new_value: int) -> int:
        """Fitness change of setting ``var`` to ``new_value``.

        Touches only the constraints whose scope contains ``var``; equal to
        evaluate(assignment with var changed) - evaluate(assignment).
        """
        self._check_assignment(assignment)
        if not 0 <= var < len(self.domains):
            raise VcspError(f"variable index {var} out of range")
        if not 0 <= new_value < self.domains[var]:
            raise VcspError(f"value {new_value} out of domain range for variable {var}")
        step = new_value - assignment[var]
        if step == 0:
            return 0
        delta = 0
        for pos, stride in self._terms_by_var[var]:
            c = self.constraints[pos]
            before = self._table_index(c, assignment)
            delta += c.weight * (c.values[before + step * stride] - c.values[before])
        return delta

    def _move_deltas(self, assignment, moves) -> list[tuple]:
        """``[(move, delta), ...]`` for in-range (var, new_value) moves: the
        assignment is checked once, and each table index the moves need is
        read once."""
        self._check_assignment(assignment)
        constraints = self.constraints
        terms_by_var = self._terms_by_var
        indices = [None] * len(constraints)
        scan = []
        for move in moves:
            var, value = move
            step = value - assignment[var]
            delta = 0
            for pos, stride in terms_by_var[var]:
                c = constraints[pos]
                before = indices[pos]
                if before is None:
                    before = indices[pos] = self._table_index(c, assignment)
                delta += c.weight * (c.values[before + step * stride] - c.values[before])
            scan.append((move, delta))
        return scan

    def constraint_graph(self) -> "ConstraintGraph":
        """Simple undirected graph: edge {i, j} iff i != j share a scope."""
        n = len(self.domains)
        adj: list[set[int]] = [set() for _ in range(n)]
        for c in self.constraints:
            for i in c.scope:
                for j in c.scope:
                    if i != j:
                        adj[i].add(j)
        return ConstraintGraph(n, tuple(frozenset(a) for a in adj))


@dataclass(frozen=True)
class ConstraintGraph:
    num_vertices: int
    adjacency: tuple[frozenset[int], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.num_vertices) for j in self.adjacency[i] if i < j]

    def num_edges(self) -> int:
        return len(self.edges())


# ---------------------------------------------------------------------------
# Canonical instance document (JSON).  Round-trip is identity.
# ---------------------------------------------------------------------------

INSTANCE_FORMAT = "vcsp-instance/v1"


def instance_to_obj(instance: VcspInstance) -> dict:
    obj = {
        "format": INSTANCE_FORMAT,
        "domains": list(instance.domains),
        "constraints": [
            {"scope": list(c.scope), "weight": c.weight, "values": list(c.values)}
            for c in instance.constraints
        ],
    }
    if instance.metadata:
        obj["metadata"] = instance.metadata
    return obj


def instance_from_obj(obj: dict) -> VcspInstance:
    if obj.get("format") != INSTANCE_FORMAT:
        raise VcspError(f"not a {INSTANCE_FORMAT} document")
    constraints = tuple(
        SoftConstraint(tuple(c["scope"]), int(c["weight"]), tuple(int(x) for x in c["values"]))
        for c in obj["constraints"]
    )
    return VcspInstance(
        domains=tuple(int(d) for d in obj["domains"]),
        constraints=constraints,
        metadata=obj.get("metadata", {}),
    )


def dump_instance(instance: VcspInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_obj(instance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> VcspInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_obj(json.load(fh))

