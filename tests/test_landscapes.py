"""Generators: pairs, counting (symbol and Boolean), the 4-bit encoding."""

from __future__ import annotations

import itertools
import random

import pytest

from ascentlab.counting import (
    SymbolCountingLandscape,
    make_counting_boolean_instance,
    make_counting_symbol_instance,
)
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.symbols import (
    ADJACENT_SYMBOLS,
    CODES,
    INTERMEDIATE_PAIR,
    INTERMEDIATE_SYMBOLS,
    MAIN_SYMBOLS,
    SYMBOLS,
    decode_bits,
    decode_block,
    encode_state,
    parse_symbol_state,
)
from ascentlab.vcsp import VcspError


# -- encoding ----------------------------------------------------------------

def test_codes_structure():
    for s in MAIN_SYMBOLS:
        assert sum(CODES[s]) == 1
    for s in INTERMEDIATE_SYMBOLS:
        assert sum(CODES[s]) == 2
        a, b = INTERMEDIATE_PAIR[s]
        assert CODES[s] == tuple(x | y for x, y in zip(CODES[a], CODES[b]))


def test_adjacency_is_main_intermediate_only():
    for s in MAIN_SYMBOLS:
        assert all(t in INTERMEDIATE_SYMBOLS for t in ADJACENT_SYMBOLS[s])
        assert len(ADJACENT_SYMBOLS[s]) == 3
    for s in INTERMEDIATE_SYMBOLS:
        assert set(ADJACENT_SYMBOLS[s]) == set(INTERMEDIATE_PAIR[s])


def test_main_to_main_needs_two_flips():
    for a in MAIN_SYMBOLS:
        for b in MAIN_SYMBOLS:
            if a != b:
                dist = sum(x != y for x, y in zip(CODES[a], CODES[b]))
                assert dist == 2


def test_encode_decode_round_trip():
    assert encode_state(("0",)) == (1, 0, 0, 0)
    for s in SYMBOLS:
        assert decode_block(CODES[s]) == s
    assert decode_block((0, 0, 0, 0)) is None
    assert decode_block((1, 1, 1, 0)) is None
    state = parse_symbol_state("0 X iC0 1")
    assert decode_bits(encode_state(state)) == state


def test_encode_block_order_least_significant_first():
    # X_1's block occupies the first four bit variables
    state = ("0", "C")  # X_2 = 0, X_1 = C
    assert encode_state(state) == CODES["C"] + CODES["0"]


# -- pairs -------------------------------------------------------------------

def test_pairs_validation():
    with pytest.raises(VcspError):
        make_pairs_instance(3, 2)
    with pytest.raises(VcspError):
        make_pairs_instance(4, 1)


def test_pairs_global_max():
    inst = make_pairs_instance(4, 2)
    assert inst.evaluate((1, 1, 1, 1)) == 4
    assert max(inst.evaluate(a) for a in itertools.product((0, 1), repeat=4)) == 4


def test_pairs_local_maxima_count_exhaustive():
    inst = make_pairs_instance(6, 3)
    landscape = VcspLandscape(inst)
    maxima = [
        s for s in itertools.product((0, 1), repeat=6)
        if all(landscape.delta(s, m) <= 0 for m in landscape.moves(s))
    ]
    assert len(maxima) == 8
    assert all(s[0] == s[1] and s[2] == s[3] and s[4] == s[5] for s in maxima)


# -- counting symbol instance --------------------------------------------------

def test_counting_validation():
    with pytest.raises(VcspError):
        make_counting_symbol_instance(1)
    with pytest.raises(VcspError):
        make_counting_boolean_instance(1)


def test_symbol_landscape_rejects_invalid_states():
    landscape = SymbolCountingLandscape(4)
    with pytest.raises(VcspError):
        landscape.evaluate(("Q",) * 4)
    with pytest.raises(VcspError):
        landscape.evaluate(("0",) * 3)
    with pytest.raises(VcspError):
        landscape.delta(("0",) * 3, (0, "i01"))
    with pytest.raises(VcspError):
        landscape.delta(("0",) * 5, (0, "i01"))
    for state in (("0",) * 3, ("0",) * 5, ("0", "Q", "0", "0")):
        with pytest.raises(VcspError):
            landscape.move_deltas(state)
        with pytest.raises(VcspError):
            landscape.move_deltas(state, range(2))


def test_counting_landscape_matches_instance_evaluation():
    for n in (2, 3, 4):
        landscape = SymbolCountingLandscape(n)
        inst = make_counting_symbol_instance(n)
        for state in itertools.product(SYMBOLS, repeat=n):
            assert landscape.evaluate(state) == inst.evaluate(
                landscape.to_assignment(state))


def test_counting_landscape_delta_matches_instance_delta():
    n = 4
    landscape = SymbolCountingLandscape(n)
    inst = make_counting_symbol_instance(n)
    rng = random.Random(99)
    for _ in range(500):
        state = tuple(rng.choice(SYMBOLS) for _ in range(n))
        pos = rng.randrange(n)
        new = rng.choice(ADJACENT_SYMBOLS[state[pos]])
        var = n - 1 - pos
        expected = inst.delta_evaluate(
            landscape.to_assignment(state), var, SYMBOLS.index(new))
        assert landscape.delta(state, (pos, new)) == expected


def test_trigger_pays_only_under_plain_bits():
    landscape = SymbolCountingLandscape(3)
    # same final i01, different X_2: the trigger pays only under a bit
    assert landscape.evaluate(("0", "0", "i01")) == 1
    assert landscape.evaluate(("0", "iC0", "i01")) == 0
    # 4 f(0,1) + h(1, i1C) = 16 + 5, versus 4 f(0,C) + 0 with the gate shut
    assert landscape.evaluate(("0", "1", "i1C")) == 21
    assert landscape.evaluate(("0", "C", "i1C")) == 24


# -- Boolean lift ---------------------------------------------------------------

def test_boolean_instance_shape():
    inst = make_counting_boolean_instance(3)
    assert inst.num_variables == 12
    assert all(c.arity == 8 for c in inst.constraints)
    assert [c.weight for c in inst.constraints] == [1, 4]


def test_boolean_lift_matches_symbol_evaluation_exhaustively():
    for n in (2, 3, 4, 5):
        symbol = SymbolCountingLandscape(n)
        boolean = make_counting_boolean_instance(n)
        for state in itertools.product(SYMBOLS, repeat=n):
            assert boolean.evaluate(encode_state(state)) == symbol.evaluate(state)


def test_boolean_all_zero_bits_cost_zero():
    inst = make_counting_boolean_instance(3)
    assert inst.evaluate((0,) * 12) == 0


def test_boolean_non_symbol_blocks_cost_zero():
    inst = make_counting_boolean_instance(2)
    good = encode_state(("0", "C"))  # X_1 = C in the first block
    assert inst.evaluate(good) == 6  # f(0, C)
    # corrupt X_1's block into a three-bit non-symbol: all its costs vanish
    bad = tuple(b | extra for b, extra in zip(good, (1, 1, 0, 0) + (0,) * 4))
    assert decode_bits(bad)[-1] is None
    assert inst.evaluate(bad) == 0
