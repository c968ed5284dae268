"""The 10-letter symbol alphabet of the counting landscape and its 4-bit codes.

Four main symbols (0, 1, C, X) and six intermediates, one per unordered pair
of mains.  Each main symbol's code has exactly one bit set; an intermediate's
code is the bitwise OR of its two mains' codes, so every main <-> intermediate
transition is exactly one bit flip and every main <-> main transition needs
at least two.

A symbol state is a tuple of symbols written left to right from the most
significant variable down to X_1 (the array notation used throughout: the
state with X_1 = 1 and X_2 = X_3 = 0 is ("0", "0", "1")).
"""

from __future__ import annotations

MAIN_SYMBOLS = ("0", "1", "C", "X")
INTERMEDIATE_SYMBOLS = ("i01", "iC0", "i0X", "i1C", "iX1", "iCX")
SYMBOLS = MAIN_SYMBOLS + INTERMEDIATE_SYMBOLS
SYMBOL_INDEX = {s: i for i, s in enumerate(SYMBOLS)}

# Codes are (x1, x2, x3, x4) rows of the encoding table.
CODES = {
    "0": (1, 0, 0, 0),
    "1": (0, 1, 0, 0),
    "C": (0, 0, 1, 0),
    "X": (0, 0, 0, 1),
    "i01": (1, 1, 0, 0),
    "iC0": (1, 0, 1, 0),
    "i0X": (1, 0, 0, 1),
    "i1C": (0, 1, 1, 0),
    "iX1": (0, 1, 0, 1),
    "iCX": (0, 0, 1, 1),
}
CODE_TO_SYMBOL = {code: s for s, code in CODES.items()}


def _hamming(a, b) -> int:
    return sum(x != y for x, y in zip(a, b))


def _build_adjacency() -> dict[str, tuple[str, ...]]:
    adj = {}
    for s in SYMBOLS:
        nbrs = [t for t in SYMBOLS if _hamming(CODES[s], CODES[t]) == 1]
        adj[s] = tuple(sorted(nbrs, key=SYMBOL_INDEX.__getitem__))
    return adj


# One-bit-flip neighborhood among symbols; mains get their three
# intermediates, intermediates get their two mains.
ADJACENT_SYMBOLS = _build_adjacency()


def encode_state(state: tuple[str, ...]) -> tuple[int, ...]:
    """Symbol state -> 4N bit vector, block of X_1 first.

    Bit x_{a,i} of symbol variable X_i lands at flat index 4*(i-1) + (a-1),
    i.e. blocks are ordered from the least significant symbol upward.
    """
    n = len(state)
    bits: list[int] = []
    for i in range(1, n + 1):
        bits.extend(CODES[state[n - i]])
    return tuple(bits)


def decode_bits(bits: tuple[int, ...]) -> tuple[str | None, ...]:
    """4N bit vector -> per-block symbols in display order (X_N ... X_1)."""
    if len(bits) % 4 != 0:
        raise ValueError("bit state length must be a multiple of 4")
    # one iterator zipped with itself reads the bits 4 at a time
    return tuple(map(CODE_TO_SYMBOL.get, zip(*[iter(bits)] * 4)))[::-1]


def format_symbol_state(state: tuple[str, ...]) -> str:
    return " ".join(state)
