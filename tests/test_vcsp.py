"""Core VCSP evaluation, delta evaluation, constraint graphs, serialization."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from ascentlab.counting import (
    make_counting_boolean_instance,
    make_counting_symbol_instance,
)
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.symbols import SYMBOLS
from ascentlab.vcsp import (
    SoftConstraint,
    VcspError,
    VcspInstance,
    instance_from_obj,
    instance_to_obj,
)

from conftest import dump_instance, load_instance, random_assignment, random_instance


def symbol_assignment(*symbols):
    """Display-order symbols -> variable-order assignment tuple."""
    return tuple(SYMBOLS.index(s) for s in reversed(symbols))


def test_pairs_evaluate_examples():
    inst = make_pairs_instance(2, 4)
    assert inst.evaluate((1, 1)) == 4
    assert inst.evaluate((0, 0)) == 1
    assert inst.evaluate((0, 1)) == 0
    inst5 = make_pairs_instance(2, 5)
    assert inst5.evaluate((1, 1)) == 5


def test_all_zero_tables_evaluate_to_zero():
    inst = VcspInstance(
        domains=(2, 3),
        constraints=(SoftConstraint((0, 1), 7, (0,) * 6),),
    )
    for a in itertools.product(range(2), range(3)):
        assert inst.evaluate(a) == 0


def test_counting_symbol_evaluate_lemma_values():
    inst = make_counting_symbol_instance(3)
    # 4 f(0,1) + f(1,C) = 22
    assert inst.evaluate(symbol_assignment("0", "1", "C")) == 22
    # 4 f(0,i1C) + f(i1C,C) = 23
    assert inst.evaluate(symbol_assignment("0", "i1C", "C")) == 23
    assert inst.evaluate(symbol_assignment("0", "0", "0")) == 0
    # 4 f(0,1) + f(1,i1C) + h(i1C) = 16 + 0 + 5
    assert inst.evaluate(symbol_assignment("0", "1", "i1C")) == 21


def test_evaluate_rejects_bad_assignments():
    inst = make_pairs_instance(4, 2)
    with pytest.raises(VcspError):
        inst.evaluate((0, 1, 0))
    with pytest.raises(VcspError):
        inst.evaluate((0, 1, 0, 2))


def test_instance_refusals_name_what_is_wrong():
    pairs = instance_to_obj(make_pairs_instance(2, 3))
    for build, message in (
        (lambda: VcspInstance((), ()), "instance needs at least one variable"),
        (lambda: VcspInstance((2,), (SoftConstraint((), 1, (0,)),)),
         "constraint scope must be non-empty"),
        (lambda: instance_from_obj(dict(pairs, format="winding-landscape/v1")),
         "not a vcsp-instance/v1 document"),
    ):
        with pytest.raises(VcspError) as refused:
            build()
        assert str(refused.value) == message


def test_delta_noop_and_pairs_example():
    landscape = VcspLandscape(make_pairs_instance(2, 3))
    assert landscape.delta((0, 0), (0, 0)) == 0
    # flipping x1 of (0,0) drops the pair value 1 -> 0
    assert landscape.delta((0, 0), (0, 1)) == -1


def test_delta_matches_two_evaluations_on_random_instances():
    # the delta kernel, as the scan reads it, against two full evaluations
    rng = random.Random(20240811)
    checked = 0
    while checked < 1000:
        inst = random_instance(rng)
        landscape = VcspLandscape(inst)
        for _ in range(20):
            a = random_assignment(rng, inst)
            for (var, val), delta in landscape.move_deltas(a):
                after = a[:var] + (val,) + a[var + 1:]
                assert delta == inst.evaluate(after) - inst.evaluate(a)
                checked += 1


def test_delta_input_validation():
    landscape = VcspLandscape(make_pairs_instance(2, 2))
    with pytest.raises(VcspError):
        landscape.delta((0, 0), (5, 1))
    with pytest.raises(VcspError):
        landscape.delta((0, 0), (0, 3))
    with pytest.raises(VcspError):  # not variable 0, counted from the end
        landscape.delta((0, 0), (-2, 1))


def test_constraint_graph_pairs_is_perfect_matching():
    g = make_pairs_instance(6, 2).constraint_graph()
    assert g.num_vertices == 6
    assert g.adjacency == tuple(frozenset({v ^ 1}) for v in range(6))
    assert g.degrees == (1,) * 6


def test_constraint_graph_single_arity8_scope_is_clique():
    inst = VcspInstance(
        domains=(2,) * 8,
        constraints=(SoftConstraint(tuple(range(8)), 1, (0,) * 256),),
    )
    g = inst.constraint_graph()
    assert g.adjacency == tuple(frozenset(range(8)) - {v} for v in range(8))
    assert all(d == 7 for d in g.degrees)


def _max_clique(graph) -> int:
    n = graph.num_vertices
    adj = [0] * n
    for v in range(n):
        for u in graph.adjacency[v]:
            adj[v] |= 1 << u
    best = 0
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size <= best:
            continue
        members = [v for v in range(n) if mask >> v & 1]
        if all(adj[v] >> u & 1 for v in members for u in members if u != v):
            best = size
    return best


def test_encoded_counting_graph_shape():
    inst = make_counting_boolean_instance(3)
    g = inst.constraint_graph()
    assert g.num_vertices == 12
    # scopes pair adjacent blocks, upper block first (the f(a, b) order)
    assert {c.scope for c in inst.constraints} == {
        (4, 5, 6, 7, 0, 1, 2, 3), (8, 9, 10, 11, 4, 5, 6, 7)
    }
    assert _max_clique(g) == 8


def test_degree_counts_co_scoped_variables():
    inst = VcspInstance(
        domains=(2, 2, 2, 2),
        constraints=(
            SoftConstraint((0, 1), 1, (0, 0, 0, 0)),
            SoftConstraint((1, 2), 1, (0, 0, 0, 0)),
            SoftConstraint((0, 1), 2, (1, 2, 3, 4)),  # duplicate scope
        ),
    )
    g = inst.constraint_graph()
    assert g.degrees == (1, 2, 1, 0)


def test_instance_validation():
    with pytest.raises(VcspError):
        VcspInstance(domains=(1, 2), constraints=())
    with pytest.raises(VcspError):
        VcspInstance(domains=(2, 2),
                     constraints=(SoftConstraint((0, 0), 1, (0, 0, 0, 0)),))
    with pytest.raises(VcspError):
        VcspInstance(domains=(2, 2),
                     constraints=(SoftConstraint((0, 1), 1, (0, 0)),))
    with pytest.raises(VcspError):
        VcspInstance(domains=(2, 2),
                     constraints=(SoftConstraint((0, 7), 1, (0, 0, 0, 0)),))
    with pytest.raises(VcspError):
        VcspInstance(domains=(2, 2),
                     constraints=(SoftConstraint((0, 1), -2, (0, 0, 0, 0)),))


@pytest.mark.parametrize("entry", [0.5, Fraction(1, 2), "1"])
def test_instance_refuses_a_table_entry_that_is_not_an_int(entry):
    # such an entry scored as a float or a Fraction, or failed in the
    # delta kernel, instead of being refused where the instance is built
    with pytest.raises(VcspError, match=re.escape(
            f"table for scope (0,) must hold integers, got {entry!r}")):
        VcspInstance(domains=(2,), constraints=(SoftConstraint((0,), 1, (entry, 1)),))
    # a table shared by several constraints is checked once, named by the
    # first; a later constraint's own table is checked too
    ok = (0, 1, 2, 3)
    with pytest.raises(VcspError, match=re.escape("table for scope (1, 2) must hold")):
        VcspInstance(domains=(2, 2, 2), constraints=(
            SoftConstraint((0, 1), 1, ok), SoftConstraint((0, 2), 1, ok),
            SoftConstraint((1, 2), 1, (0, 1, entry, 3)), SoftConstraint((2, 0), 1, ok)))


@pytest.mark.parametrize("values", [(0.5, 0.5), (Fraction(1, 2), Fraction(1, 2))])
def test_instance_refuses_non_int_entries_whose_sum_is_whole(values):
    with pytest.raises(VcspError, match="must hold integers"):
        VcspInstance(domains=(2,), constraints=(SoftConstraint((0,), 1, values),))


def test_serialization_round_trip_identity(tmp_path):
    rng = random.Random(7)
    for _ in range(20):
        inst = random_instance(rng)
        assert instance_from_obj(instance_to_obj(inst)) == inst
    inst = make_counting_symbol_instance(4)
    path = tmp_path / "inst.json"
    dump_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    assert again.metadata == inst.metadata


def test_exact_arithmetic_with_huge_weights():
    # weights 4**(i-1) overflow 64-bit integers around N = 33
    inst = make_counting_symbol_instance(40)
    one = SYMBOLS.index("1")
    a = (one,) * 40
    assert inst.evaluate(a) == 4 * sum(4 ** i for i in range(39))
    assert inst.evaluate(a) > 2 ** 63
