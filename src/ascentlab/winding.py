"""Recursive winding landscapes on 2n bits.

The landscape is built level by level: level k adds the variable pair
(x_{2k-1}, x_{2k}) on top of the level-(k-1) landscape, with a fittest step
s+_k, a barrier step s-_k, and sub-cube optimum 0^(2(k-1))11.  Steepest
ascent from the all-zero state winds through every sub-cube peak and takes
exactly 2^(n+1) - 2 steps.

This is deliberately a black-box fitness function, not a VCSP: expressing it
with bounded-arity soft constraints is impossible with a sparse constraint
graph (the gradient analysis in :mod:`ascentlab.analysis` measures exactly
that), so there is no table form to generate.

States are bit tuples with x_1 first; the sub-cube of the first 2k variables
is the prefix of length 2k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .landscapes import Landscape

_BITS = frozenset((0, 1))


class WindingError(ValueError):
    """Invalid schedule or state."""


@dataclass(frozen=True)
class StepSchedule:
    """Fittest steps s+_1..s+_n and barrier steps s-_1..s-_n.

    Validity: s+_k > 0, s+_k strictly increasing, s-_k < s+_k, and
    s+_k > s-_(k+1).
    """

    s_plus: tuple[int, ...]
    s_minus: tuple[int, ...]

    def __post_init__(self):
        if len(self.s_plus) != len(self.s_minus) or not self.s_plus:
            raise WindingError("schedule needs equal-length, non-empty step sequences")
        n = len(self.s_plus)
        for k in range(n):
            if not isinstance(self.s_plus[k], int) or not isinstance(self.s_minus[k], int):
                raise WindingError("steps must be exact integers")
            if self.s_plus[k] <= 0:
                raise WindingError(f"s+_{k + 1} must be positive")
            if self.s_minus[k] >= self.s_plus[k]:
                raise WindingError(f"need s-_{k + 1} < s+_{k + 1}")
        for k in range(n - 1):
            if self.s_plus[k] >= self.s_plus[k + 1]:
                raise WindingError("fittest steps must be strictly increasing")
            if self.s_plus[k] <= self.s_minus[k + 1]:
                raise WindingError(f"need s+_{k + 1} > s-_{k + 2}")

    @property
    def n(self) -> int:
        return len(self.s_plus)

    @classmethod
    def semismooth(cls, n: int) -> "StepSchedule":
        """Smallest all-integer schedule with positive barrier steps
        (s+_k = k + 1, s-_k = 1): no reciprocal sign epistasis, short ascents
        to the peak exist everywhere, yet steepest ascent stays on the long
        path."""
        return cls(tuple(k + 1 for k in range(1, n + 1)), (1,) * n)

    @classmethod
    def root2path(cls, n: int) -> "StepSchedule":
        """Zero barrier steps (s+_k = k, s-_k = 0): the long path is the only
        strictly improving path from the origin."""
        return cls(tuple(range(1, n + 1)), (0,) * n)


SCHEDULE_PRESETS = {
    "semismooth": StepSchedule.semismooth,
    "root2path": StepSchedule.root2path,
}


class WindingLandscape(Landscape):
    def __init__(self, n: int, schedule: StepSchedule | None = None):
        if n < 1:
            raise WindingError("need n >= 1")
        if schedule is None:
            schedule = StepSchedule.semismooth(n)
        if schedule.n != n:
            raise WindingError(f"schedule has {schedule.n} levels, landscape needs {n}")
        self.n = n
        self.schedule = schedule
        self.num_variables = 2 * n
        # peak_value[k] = value of the level-k sub-cube optimum 0^(2(k-1))11
        pv = [0]
        for k in range(1, n + 1):
            pv.append(2 * pv[k - 1] + 2 * schedule.s_plus[k - 1])
        self.peak_value = tuple(pv)
        # single-slot memo (state, (value, deltas)) of the last scanned
        # state: the level pass yields every flip's delta at once, so the
        # scan of a state (the default move_deltas, or any other caller
        # asking delta move by move) pays for one pass and then looks the
        # deltas up; one atomic reference keeps concurrent readers consistent
        self._memo: tuple | None = None

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, state) -> int:
        return self._scan(state)[0]

    def delta(self, state, move) -> int:
        var, value = move
        if value not in _BITS:
            raise WindingError(f"move value {value!r} is not a bit")
        deltas = self._scan(state)[1]
        return 0 if state[var] == value else deltas[var]

    def _scan(self, state):
        """``(value, deltas)`` of a validated state: its fitness and, per
        variable, the fitness change of flipping that variable."""
        state = tuple(state)
        memo = self._memo
        if memo is not None and memo[0] == state:
            return memo[1]
        if len(state) % 2 != 0:
            raise WindingError("winding states have even length")
        if len(state) != 2 * self.n:
            raise WindingError(f"state has {len(state)} bits, expected {2 * self.n}")
        if not _BITS.issuperset(state):
            raise WindingError(f"winding states hold only bits 0 and 1, got {state!r}")
        scan = self._level_scan(state)
        self._memo = (state, scan)
        return scan

    def _level(self, k, a, b, g0, g1, at_peak):
        """Level-k values of the pair (a, b) and of its inverse, given the
        level-(k-1) values g0 of the prefix and g1 of the prefix XOR the
        level-(k-1) peak.  ``at_peak``: the prefix is that peak."""
        s_minus = self.schedule.s_minus[k - 1]
        below = self.peak_value[k - 1]
        if a == b:
            # 11 adds the level-(k-1) peak value and 2 s+_k to the XOR-ed prefix
            lifted = self.peak_value[k] - below + g1
            return (g0, lifted) if a == 0 else (lifted, g0)
        if at_peak:
            rise, dip = below + self.schedule.s_plus[k - 1], below + s_minus
            return (rise, dip) if a == 1 else (dip, rise)
        return s_minus + g0, s_minus + g0

    def _level_scan(self, state):
        """One bottom-up pass of the level recursion, then every flip's
        delta from the per-level values it leaves in place.

        The recursion only ever XORs a prefix with the peak of the level
        below, which inverts exactly the prefix's top pair.  So f0[k] (the
        level-k value of the first k pairs) and f1[k] (the same with pair k
        inverted) hold every value the recursion can reach, and sel[k]
        says which of the two the fitness passes through (None below the
        level where the walk ends).

        A flip in pair j leaves every level below j alone.  The only other
        input a level reads is its at-peak test (pairs 1..k-2 all 00, pair
        k-1 equal to 11).  Unless all pairs below j are 00, the flip changes
        no such test, and its delta is just the change of level j's value
        on the selected side.  Otherwise the tests can change at level j+1
        and at the level above the next non-00 pair m; the delta is read at
        level min(n, m+1), above which nothing changes.
        """
        n = self.n
        level = self._level
        f0 = [0] * (n + 1)
        f1 = [0] * (n + 1)
        zero = [True] * (n + 1)      # zero[k]: pairs 1..k are all 00
        at_peak = [True] * (n + 1)   # at_peak[k]: pairs 1..k-1 form the level-(k-1) peak
        for k in range(1, n + 1):
            a, b = state[2 * k - 2], state[2 * k - 1]
            at_peak[k] = k == 1 or (zero[k - 2] and state[2 * k - 4] == state[2 * k - 3] == 1)
            f0[k], f1[k] = level(k, a, b, f0[k - 1], f1[k - 1], at_peak[k])
            zero[k] = zero[k - 1] and a == b == 0

        sel: list = [None] * (n + 1)
        side = 0
        for k in range(n, 0, -1):
            sel[k] = side
            a, b = state[2 * k - 2] ^ side, state[2 * k - 1] ^ side
            if a == b:
                side = a
            elif at_peak[k]:
                break
            else:
                side = 0

        deltas = [0] * (2 * n)
        above = None  # lowest non-00 pair above the current one
        for j in range(n, 0, -1):
            pa, pb = state[2 * j - 2], state[2 * j - 1]
            top = j if not zero[j - 1] else n if above is None else min(n, above + 1)
            side = sel[top]
            if side is not None:
                old = f1[top] if side else f0[top]
                for i, a, b in ((2 * j - 2, pa ^ 1, pb), (2 * j - 1, pa, pb ^ 1)):
                    g = level(j, a, b, f0[j - 1], f1[j - 1], at_peak[j])
                    if top > j:
                        g = self._walk_up(state, j, a, b, g, top)
                    deltas[i] = g[side] - old
            if pa or pb:
                above = j
        return f0[n], tuple(deltas)

    def _walk_up(self, state, j, a, b, g, top):
        """Level-``top`` values of a state whose pairs 1..j-1 are all 00 and
        whose pair j became (a, b) with level-j values ``g``; see
        :meth:`_level_scan`."""
        z_below = True                      # at level k: pairs 1..k-2 are all 00
        z = a == b == 0                     # pairs 1..k-1 are all 00
        top_pair_set = a == b == 1          # pair k-1 is 11
        for k in range(j + 1, top + 1):
            a, b = state[2 * k - 2], state[2 * k - 1]
            g = self._level(k, a, b, g[0], g[1], z_below and top_pair_set)
            z_below, z = z, z and a == b == 0
            top_pair_set = a == b == 1
        return g

    # -- moves / enumeration ------------------------------------------------

    def moves(self, state):
        for i, b in enumerate(state):
            yield (i, 1 - b)

    def domains(self) -> tuple:
        return ((0, 1),) * (2 * self.n)

    # -- named states and closed-form gradients ------------------------------

    def origin(self) -> tuple[int, ...]:
        return (0,) * (2 * self.n)

    def peak_state(self, k: int) -> tuple[int, ...]:
        """The level-k sub-cube optimum embedded in 2n bits:
        0^(2(k-1)) 11 0^(2(n-k))."""
        if not 1 <= k <= self.n:
            raise WindingError(f"k must be in 1..{self.n}")
        bits = [0] * (2 * self.n)
        bits[2 * k - 2] = 1
        bits[2 * k - 1] = 1
        return tuple(bits)

    def origin_gradient_expected(self) -> tuple[int, ...]:
        """Gradient at the all-zero state:
        [s+_1, s-_1, s-_2, s-_2, ..., s-_n, s-_n]."""
        out = [self.schedule.s_plus[0], self.schedule.s_minus[0]]
        for i in range(2, self.n + 1):
            out.extend([self.schedule.s_minus[i - 1]] * 2)
        return tuple(out)

    def peak_gradient_expected(self, k: int) -> tuple[int, ...]:
        """Gradient at the embedded level-k peak, entry-wise.

        With P_i the level-i peak value, the entries at variables
        (2i-1, 2i) are:

          i <= k:  magnitude P_i - s-_i at both, except that the even entry
                   of level 1 uses s+_1 instead of s-_1 (the prefix under
                   pair 1 is empty, so clearing bit 2 lands in the
                   fittest-step case rather than in a barrier case);
                   the sign is + at i == k and - below it
          i == k+1: s+_(k+1), s-_(k+1)
          i > k+1:  s-_i, s-_i

        At level 1 the i <= k case reduces to s-_1 - 2 s+_1 and -s+_1
        (since P_1 = 2 s+_1), which is the only level where the magnitude
        can be written without P_i; direct evaluation of the level recursion
        fixes the magnitude at P_i - s-_i for every deeper level.  The
        degree-bound argument only needs the odd entries to change between
        origin and peak, and they change by -P_i != 0.
        """
        if not 1 <= k <= self.n:
            raise WindingError(f"k must be in 1..{self.n}")
        sp, sm = self.schedule.s_plus, self.schedule.s_minus
        out = []
        for i in range(1, self.n + 1):
            if i <= k:
                pi = self.peak_value[i]
                odd = pi - sm[i - 1]
                even = pi - (sp[0] if i == 1 else sm[i - 1])
                if i < k:
                    odd, even = -odd, -even
                out.extend([odd, even])
            elif i == k + 1:
                out.extend([sp[i - 1], sm[i - 1]])
            else:
                out.extend([sm[i - 1], sm[i - 1]])
        return tuple(out)


# ---------------------------------------------------------------------------
# Serialization: a winding landscape is just {n, s_plus, s_minus}.
# ---------------------------------------------------------------------------

WINDING_FORMAT = "winding-landscape/v1"


def winding_to_obj(landscape: WindingLandscape) -> dict:
    return {
        "format": WINDING_FORMAT,
        "n": landscape.n,
        "s_plus": list(landscape.schedule.s_plus),
        "s_minus": list(landscape.schedule.s_minus),
    }


def winding_from_obj(obj: dict) -> WindingLandscape:
    if obj.get("format") != WINDING_FORMAT:
        raise WindingError(f"not a {WINDING_FORMAT} document")
    schedule = StepSchedule(
        tuple(int(x) for x in obj["s_plus"]),
        tuple(int(x) for x in obj["s_minus"]),
    )
    return WindingLandscape(int(obj["n"]), schedule)
