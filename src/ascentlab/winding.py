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
from functools import cached_property
from operator import add, getitem, or_

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
            if type(self.s_plus[k]) is not int or type(self.s_minus[k]) is not int:
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
        if type(n) is not int:
            raise WindingError(f"n must be an exact integer, got {n!r}")
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
        # state: the level pass yields every flip's delta at once, so a scan
        # (_rescan, or any caller asking delta move by move) pays for one
        # pass, then looks the deltas up, delta by the tuple's identity first;
        # one atomic reference keeps concurrent readers consistent
        self._memo: tuple | None = None
        # the level pass memoised in two halves split at pair K = n // 2 (see
        # _level_scan): high entries by the bits of pairs K+1..n, low entries
        # by the bits of pairs 1..K, as a list of one slot per side entering
        # level K; the entries are immutable, so a concurrent fill stores an
        # equal entry, or drops one that a later miss fills again
        self._half = 2 * (n // 2)
        self._highs: dict = {}
        self._lows: dict = {}

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, state) -> int:
        return self._scan(state)[0]

    def delta(self, state, move) -> int:
        var, value = move
        if value not in _BITS:
            raise WindingError(f"move value {value!r} is not a bit")
        memo = self._memo
        deltas = memo[1][1] if memo is not None and memo[0] is state else self._scan(state)[1]
        return 0 if state[var] == value else deltas[var]

    def _rescan(self, state, variables):
        """One level pass, memoised unchecked like every ``_rescan``, then
        ``delta`` per flip, each a memo hit; the landscape names no
        neighbourhoods, so ``variables`` is None.  The pass comes from
        ``_level_scan``'s memo of two halves (high pairs keyed by their bits,
        low pairs by their bits, one entry per side entering them); a miss,
        or a low half with fewer than two non-00 pairs below K, which stores
        nothing, takes the full pass."""
        state = tuple(state)
        self._memo = (state, self._level_scan(state))
        delta = self.delta
        return [(move, delta(state, move)) for move in map(getitem, self._flips, state)]

    def _scan(self, state):
        """``(value, deltas)`` of a checked state: its fitness and, per
        variable, the fitness change of flipping that variable."""
        state = tuple(state)
        memo = self._memo
        if memo is not None and memo[0] == state:
            return memo[1]
        self._check_state(state)
        scan = self._level_scan(state)
        self._memo = (state, scan)
        return scan

    def _check_state(self, state) -> None:
        if len(state) % 2 != 0:
            raise WindingError("winding states have even length")
        if len(state) != 2 * self.n:
            raise WindingError(f"state has {len(state)} bits, expected {2 * self.n}")
        if not _BITS.issuperset(state):
            raise WindingError(f"winding states hold only bits 0 and 1, got {tuple(state)!r}")

    @cached_property
    def _flips(self):
        """Per variable, its flip from 0 and from 1, shared by every scan."""
        return tuple(((i, 1), (i, 0)) for i in range(2 * self.n))

    @cached_property
    def _steps(self):
        """Per level k, at index k: s-_k, lift_k = P_k - P_(k-1), rise_k =
        P_(k-1) + s+_k and dip_k = P_(k-1) + s-_k (P_k: the level-k peak value)."""
        pv, sp, sm = self.peak_value, self.schedule.s_plus, self.schedule.s_minus
        lift = [pv[k + 1] - pv[k] for k in range(self.n)]
        return tuple((0,) + tuple(t) for t in (sm, lift, map(add, pv, sp), map(add, pv, sm)))

    def _level_scan(self, state):
        """``(value, deltas)`` of a tuple state, from the memo of its two
        halves, split at pair K = n // 2, or else from ``_level_pass``.

        Every level map is affine in the values (g0, g1) entering it, and
        reads each of them with coefficient 0 or 1.  So while no level above
        K is at its peak, the bits of pairs K+1..n alone fix their entry in
        ``_highs``: the side entering level K from above, the fitness as
        a + (f0[K], f1[K])[side], and each high flip's delta as c_i + e_i * D,
        with D = f0[K] - f1[K] and e_i in {-1, 0, 1}.  The bits of pairs
        1..K and that side fix (f0[K], f1[K]) and the 2K low deltas, the
        entry in slot ``side`` of ``_lows[bits]``, when at least two of
        pairs 1..K-1 are not 00: then the peak level is at most K, and a
        flip under an all-00 prefix reads levels up to K only.  Any other
        low half is tested before either memo is read, and its states take
        the full pass and store nothing.  A miss takes the full pass and
        fills the entry, so the memo holds one entry per high half met and
        one per low half and side met, none of them for a low half that
        fails the test.
        """
        half = self._half
        bits = state[:half]
        sides = self._lows.get(bits)
        if sides is None:
            if sum(map(or_, bits[:half - 2:2], bits[1:half - 2:2])) < 2:
                f0, _, deltas = self._level_pass(state)
                return f0[-1], tuple(deltas)
            sides = self._lows[bits] = [None, None]
        highs = self._highs
        key = state[half:]
        high = highs.get(key)
        if high is None:
            high = highs[key] = self._high_entry(key)
        side, a, cs, es = high
        low = sides[side]
        if low is None:
            f0, f1, deltas = self._level_pass(state)
            k = half // 2
            sides[side] = (f0[k], f1[k], tuple(deltas[:half]))
            return f0[-1], tuple(deltas)
        x, y, deltas = low
        d = x - y
        return a + (y if side else x), deltas + tuple([c + e * d for c, e in zip(cs, es)])

    def _high_entry(self, bits):
        """``(side, a, cs, es)`` of ``_level_scan`` for the ``bits`` of
        pairs K+1..n, right whenever no level above K is at its peak.

        Both passes of ``_level_pass`` over those pairs, on values written
        (c, r) for c + (f0[K], f1[K])[r].  Level k can give three values:
        g0 and lift_k + g1 (a pair 00 or 11: on side s, pair aa gives the
        second iff a != s) and s-_k + g0 (a mixed pair).
        """
        def value(level, a, b, s):
            return level[2 if a != b else a ^ s]

        sm, lift = self._steps[:2]
        pairs = tuple(zip(bits[::2], bits[1::2]))
        options = []
        g0, g1 = (0, 0), (0, 1)
        for k, (a, b) in enumerate(pairs, self._half // 2 + 1):
            level = (g0, (lift[k] + g1[0], g1[1]), (sm[k] + g0[0], g0[1]))
            options.append(level)
            g0, g1 = value(level, a, b, 0), value(level, a, b, 1)
        flips = []
        side = 0
        for level, (a, b) in zip(reversed(options), reversed(pairs)):
            oc, o = value(level, a, b, side)
            flips.append([(c - oc, o - r) for c, r in (
                value(level, a ^ 1, b, side), value(level, a, b ^ 1, side))])
            side = a ^ side if a == b else 0
        cs, es = zip(*[flip for pair in reversed(flips) for flip in pair])
        return side, g0[0], cs, es

    def _level_pass(self, state):
        """``(f0, f1, deltas)``: one bottom-up pass of the level recursion,
        then every flip's delta from the per-level values it leaves in place.

        The recursion only ever XORs a prefix with the peak of the level
        below, which inverts exactly the prefix's top pair.  So f0[k] (the
        level-k value of the first k pairs) and f1[k] (pair k inverted:
        side 1) hold every value it can reach.  Over prefix values
        (g0, g1), level k on a side gives, for a pair 00 or 11, g0 if
        a == side, else lift_k + g1; for a mixed pair at its peak (k = 1,
        or pairs below 0^(2(k-2))11), rise_k if a != side, else dip_k; else
        s-_k + g0.  sel[k] is the side the fitness reads at level k.

        A flip in pair j changes no level below j, and no at-peak test
        unless all pairs below j are 00: else its delta is level j's change
        on side sel[j].  If they are, the 00 pairs up to the next non-00
        pair m add P_(m-1) - P_j to g1; level m is at its peak iff m = j+1
        and the new pair j is 11, level m+1 iff it is 00 and pair m is 11;
        above min(n, m+1), or above j without an m, nothing changes.
        """
        n = self.n
        sm, lift, rise, dip = self._steps
        pv = self.peak_value
        # the lowest non-00 pair (0: none); the level at its peak: above it if it is 11, else 1
        first = state.index(1) // 2 + 1 if 1 in state else 0
        peak = first + 1 if first and state[2 * first - 2] == state[2 * first - 1] else 1
        f0 = [0] * (n + 1)
        f1 = [0] * (n + 1)
        g0 = g1 = 0
        for k in range(1, n + 1):
            a, b = state[2 * k - 2], state[2 * k - 1]
            if a == b:
                g0, g1 = (lift[k] + g1, g0) if a else (g0, lift[k] + g1)
            elif k == peak:
                g0, g1 = (rise[k], dip[k]) if a else (dip[k], rise[k])
            else:
                g0 = g1 = sm[k] + g0
            f0[k], f1[k] = g0, g1

        deltas = [0] * (2 * n)
        sel = [0] * (n + 1)
        side = 0
        m = 0  # the lowest non-00 pair above j, 0 if none
        for j in range(n, 0, -1):
            pa, pb = state[2 * j - 2], state[2 * j - 1]
            sel[j] = s = side
            side = pa ^ side if pa == pb else 0  # below a peak nothing reads it
            if first and j > first:
                old = f1[j] if s else f0[j]
                g0 = f0[j - 1]
                if pa != pb:
                    lifted = lift[j] + f1[j - 1]
                    v0, v1 = (lifted, g0) if pa == s else (g0, lifted)
                elif j == peak:
                    v0, v1 = (rise[j], dip[j]) if pa == s else (dip[j], rise[j])
                else:
                    v0 = v1 = sm[j] + g0
                deltas[2 * j - 2] = v0 - old
                deltas[2 * j - 1] = v1 - old
            else:
                levels = (m, m + 1) if m < n else (m,)  # up to min(n, m+1)
                for i, a, b in ((2 * j - 2, pa ^ 1, pb), (2 * j - 1, pa, pb ^ 1)):
                    # level j over the all-00 prefix, whose values are (0, P_(j-1))
                    if a == b:
                        g0, g1 = (pv[j], 0) if a else (0, pv[j])
                    elif j == 1:
                        g0, g1 = (rise[1], dip[1]) if a else (dip[1], rise[1])
                    else:
                        g0 = g1 = sm[j]
                    k = n
                    if m:
                        g1 += pv[m - 1] - pv[j]
                        at_peak = m == j + 1 and a & b
                        for k in levels:
                            c, d = state[2 * k - 2], state[2 * k - 1]
                            if c == d:
                                g0, g1 = (lift[k] + g1, g0) if c else (g0, lift[k] + g1)
                            elif at_peak:
                                g0, g1 = (rise[k], dip[k]) if c else (dip[k], rise[k])
                            else:
                                g0 = g1 = sm[k] + g0
                            at_peak = not a | b and c & d
                    deltas[i] = g1 - f1[k] if sel[k] else g0 - f0[k]
            if pa or pb:
                m = j
        return f0, f1, deltas

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
            else:
                out.extend([sp[i - 1] if i == k + 1 else sm[i - 1], sm[i - 1]])
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
    steps = [obj.get(key) for key in ("s_plus", "s_minus")]
    for key, value in zip(("s_plus", "s_minus"), steps):
        if type(value) is not list:
            raise WindingError(f"{key} must be a list of exact integers, got {value!r}")
    return WindingLandscape(obj.get("n"), StepSchedule(*map(tuple, steps)))
