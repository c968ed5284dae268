"""Generators: pairs, counting (symbol and Boolean), the 4-bit encoding."""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentlab.cli import main
from ascentlab.counting import (
    SymbolCountingLandscape,
    make_counting_boolean_instance,
    make_counting_symbol_instance,
)
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.symbols import (
    ADJACENT_SYMBOLS,
    CODE_TO_SYMBOL,
    CODES,
    INTERMEDIATE_SYMBOLS,
    MAIN_SYMBOLS,
    SYMBOLS,
    decode_bits,
    encode_state,
)
from ascentlab.vcsp import SoftConstraint, VcspError, VcspInstance
from ascentlab.winding import WindingLandscape

from conftest import dump_instance
from test_move_table import table_mismatch

# Each intermediate symbol and the two main symbols it lies between
INTERMEDIATE_PAIR = {
    "i01": ("0", "1"),
    "iC0": ("C", "0"),
    "i0X": ("0", "X"),
    "i1C": ("1", "C"),
    "iX1": ("X", "1"),
    "iCX": ("C", "X"),
}


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
        assert CODE_TO_SYMBOL.get(CODES[s]) == s
    assert CODE_TO_SYMBOL.get((0, 0, 0, 0)) is None
    assert CODE_TO_SYMBOL.get((1, 1, 1, 0)) is None
    state = SymbolCountingLandscape(4).parse_state("0 X iC0 1")
    assert decode_bits(encode_state(state)) == state


def test_decode_bits_is_decode_block_per_block_in_display_order():
    rng = random.Random(5)
    for n in range(0, 9):
        for _ in range(40):
            # random bit vectors: most blocks are not symbol codes
            bits = tuple(rng.randint(0, 1) for _ in range(4 * n))
            blocks = [CODE_TO_SYMBOL.get(bits[4 * i: 4 * i + 4]) for i in range(n)]
            assert decode_bits(bits) == tuple(reversed(blocks))
    assert decode_bits((0,) * 8) == (None, None)
    for length in (1, 2, 3, 5, 7, 41):
        with pytest.raises(ValueError, match="multiple of 4"):
            decode_bits((0,) * length)


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
    for move in ((0, "Q"), (4, "i01"), (-1, "i01"), (-4, "i01")):
        with pytest.raises(VcspError):
            landscape.delta(("0",) * 4, move)
    for state in (("0",) * 3, ("0",) * 5, ("0", "Q", "0", "0")):
        with pytest.raises(VcspError):
            landscape.move_deltas(state)


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

    def instance_delta(state, move):
        return (inst.evaluate(landscape.to_assignment(landscape.apply(state, move)))
                - inst.evaluate(landscape.to_assignment(state)))

    for _ in range(500):
        state = tuple(rng.choice(SYMBOLS) for _ in range(n))
        # every entry of the scan, read from the instance's delta kernel
        for move, d in landscape.move_deltas(state):
            assert move[1] in ADJACENT_SYMBOLS[state[move[0]]]
            assert d == instance_delta(state, move)
        # any symbol, not only a move
        move = (rng.randrange(n), rng.choice(SYMBOLS))
        assert landscape.delta(state, move) == instance_delta(state, move)


def test_trigger_pays_only_under_plain_bits():
    landscape = SymbolCountingLandscape(3)
    # same final i01, different X_2: the trigger pays only under a bit
    assert landscape.evaluate(("0", "0", "i01")) == 1
    assert landscape.evaluate(("0", "iC0", "i01")) == 0
    # 4 f(0,1) + h(1, i1C) = 16 + 5, versus 4 f(0,C) + 0 with the gate shut
    assert landscape.evaluate(("0", "1", "i1C")) == 21
    assert landscape.evaluate(("0", "C", "i1C")) == 24


def edited_counting_instance(rng: random.Random, n: int) -> VcspInstance:
    """A counting-symbol instance whose tables are edited independently, the
    trigger's included, with some weights redrawn and, at times, a constraint
    joining two symbols that are not adjacent."""
    base = make_counting_symbol_instance(n)
    constraints = []
    for c in base.constraints:
        values = list(c.values)
        for _ in range(rng.randint(1, 8)):
            values[rng.randrange(len(values))] = rng.randint(0, 30)
        weight = rng.randint(0, 4 ** (n - 1)) if rng.random() < 0.5 else c.weight
        constraints.append(SoftConstraint(c.scope, weight, tuple(values)))
    if n > 2 and rng.random() < 0.5:
        low = rng.randrange(n - 2)
        scope = (rng.randrange(low + 2, n), low)
        constraints.append(SoftConstraint(
            scope, rng.randint(1, 9), tuple(rng.randint(0, 9) for _ in range(100))))
    return VcspInstance(base.domains, tuple(constraints), dict(base.metadata))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32))
def test_view_of_an_edited_instance_reads_its_tables(n, seed):
    rng = random.Random(seed)
    instance = edited_counting_instance(rng, n)
    landscape = SymbolCountingLandscape.of_instance(instance)

    def value(state):
        return instance.evaluate(landscape.to_assignment(state))

    for _ in range(20):
        state = tuple(rng.choice(SYMBOLS) for _ in range(n))
        assert landscape.evaluate(state) == value(state)
        assert landscape.move_deltas(state) == [
            (move, value(landscape.apply(state, move)) - value(state))
            for move in landscape.moves(state)]
    assert table_mismatch(landscape, state, rng, 30) is None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edited.json")
        dump_instance(instance, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["run", path, "--start", " ".join(state), "--max-steps", "0"])
    assert f"final_fitness={value(state)} " in out.getvalue()


def test_symbol_landscape_builds_its_instance_on_first_use(monkeypatch):
    built = []
    post_init = VcspInstance.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(VcspInstance, "__post_init__", counted)
    landscape = SymbolCountingLandscape(12)
    start = landscape.zero_state()
    assert built == []
    landscape.evaluate(start)
    assert len(built) == 1
    landscape.move_deltas(start)
    landscape.delta(start, (0, "i01"))
    assert len(built) == 1
    SymbolCountingLandscape(12).move_deltas(start)
    assert len(built) == 2


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


# -- state text ----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_parse_state_reads_back_what_format_state_prints(data):
    domains = tuple(data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=5)))
    for landscape in (
        WindingLandscape(data.draw(st.integers(1, 5))),
        VcspLandscape(make_pairs_instance(6, 3)),
        VcspLandscape(make_counting_boolean_instance(2)),
        SymbolCountingLandscape(data.draw(st.integers(2, 6))),
        VcspLandscape(VcspInstance((12, 2, 10, 12), ())),
        VcspLandscape(VcspInstance(domains, ())),
    ):
        state = tuple(data.draw(st.sampled_from(values)) for values in landscape.domains())
        assert landscape.parse_state(landscape.format_state(state)) == state


def test_parse_state_reads_commas_and_spaces_and_refuses_what_evaluate_refuses():
    winding = WindingLandscape(3)
    for text in ("010100", "0 1 0 1 0 0", "0,1,0,1,0,0", "01 01 00"):
        assert winding.parse_state(text) == (0, 1, 0, 1, 0, 0)
    wide = VcspLandscape(VcspInstance((12, 12, 12), ()))
    assert wide.parse_state("10, 11 3") == (10, 11, 3)
    symbols = SymbolCountingLandscape(3)
    assert symbols.parse_state("0,iC0 X") == ("0", "iC0", "X")
    # a state outside the landscape is refused as evaluate refuses it
    for landscape, text, state in ((winding, "0101", (0, 1, 0, 1)),
                                   (winding, "010120", (0, 1, 0, 1, 2, 0)),
                                   (wide, "11 0", (11, 0)),
                                   (wide, "11 0 12", (11, 0, 12)),
                                   (wide, "", ()),
                                   (symbols, "0 0", ("0", "0")),
                                   (symbols, "0 0 Q", ("0", "0", "Q"))):
        with pytest.raises(ValueError) as refused:
            landscape.parse_state(text)
        with pytest.raises(ValueError) as evaluated:
            landscape.evaluate(state)
        assert str(refused.value) == str(evaluated.value) != ""
