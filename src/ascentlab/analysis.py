"""Gradient and flow analysis, degree lower bounds, width bounds, and
exhaustive local-optima censuses.

The degree machinery implements the flow argument: for a fitness function
realized by a VCSP, two assignments differing on a variable set S satisfy

    sum of degrees over S  >=  ||grad f(x) - grad f(y)||_0

so gradient changes measured on a black-box landscape give lower bounds on
the constraint graph any VCSP implementation of it would need.  Applied to
the winding landscape's sub-cube peaks this forces total degree quadratic in
the variable count, i.e. no bounded-treewidth implementation exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .landscapes import Landscape
from .report import Report
from .vcsp import ConstraintGraph
from .winding import SCHEDULE_PRESETS, WindingLandscape


class AnalysisError(ValueError):
    pass


class UnsupportedLandscapeError(AnalysisError):
    """Raised for gradient operations on non-Boolean landscapes."""


def _require_boolean(landscape: Landscape) -> None:
    if not landscape.is_boolean():
        raise UnsupportedLandscapeError(
            "gradients are defined only for Boolean landscapes")


def gradient(landscape: Landscape, state) -> tuple[int, ...]:
    """Entry i is f(x[i -> 1]) - f(x[i -> 0]), exactly.  A Boolean
    landscape's scan has one flip per variable, in variable order."""
    _require_boolean(landscape)
    return tuple(d if value == 1 else -d
                 for (_, value), d in landscape.move_deltas(state))


def gradient_by_full_evaluations(landscape: Landscape, state) -> tuple[int, ...]:
    """Finite-difference route: two full evaluations per entry.  Kept as the
    independent cross-check for the delta-based gradient."""
    _require_boolean(landscape)
    out = []
    for i in range(len(state)):
        hi = landscape.evaluate(state[:i] + (1,) + state[i + 1:])
        lo = landscape.evaluate(state[:i] + (0,) + state[i + 1:])
        out.append(hi - lo)
    return tuple(out)


def flow_change_norm(landscape: Landscape, x, y) -> int:
    """Hamming weight of grad f(x) - grad f(y)."""
    if len(x) != len(y):
        raise AnalysisError("states must have equal length")
    gx = gradient(landscape, x)
    gy = gradient(landscape, y)
    return sum(a != b for a, b in zip(gx, gy))


@dataclass(frozen=True)
class DegreeBoundRow:
    x: tuple
    y: tuple
    differing: tuple[int, ...]   # 0-based variables where x and y differ
    bound: int                   # implied lower bound on total degree of S


@dataclass(frozen=True)
class DegreeBoundReport:
    rows: tuple[DegreeBoundRow, ...]
    total: int  # sum of the per-pair bounds

    def table(self, sep: str = "\t") -> str:
        lines = [sep.join(["pair", "differing_variables", "degree_lower_bound"])]
        for i, r in enumerate(self.rows):
            lines.append(sep.join([
                str(i),
                ",".join(str(v) for v in r.differing),
                str(r.bound),
            ]))
        lines.append(f"# total{sep}{self.total}")
        return "\n".join(lines) + "\n"


def degree_bound_report(landscape: Landscape, pairs) -> DegreeBoundReport:
    """For each (x, y) pair, the flow-change lower bound on the total degree
    of the variables where they differ.  When the pairs cover disjoint
    variable sets (as the winding peak family does), ``total`` bounds the
    total degree of the whole graph."""
    rows = []
    for x, y in pairs:
        x, y = tuple(x), tuple(y)
        differing = tuple(i for i, (a, b) in enumerate(zip(x, y)) if a != b)
        rows.append(DegreeBoundRow(x, y, differing, flow_change_norm(landscape, x, y)))
    return DegreeBoundReport(tuple(rows), sum(r.bound for r in rows))


def winding_peak_pairs(landscape: WindingLandscape):
    """The (origin, level-k peak) family; pair k differs exactly on
    variables 2k-1, 2k, so the per-pair bounds add up."""
    origin = landscape.origin()
    return [(origin, landscape.peak_state(k)) for k in range(1, landscape.n + 1)]


def differing_odd_entries_below(landscape: WindingLandscape, k: int) -> int:
    """Count of odd gradient entries under 2k that change between the origin
    and the level-k peak; the winding construction makes this k - 1."""
    gx = gradient(landscape, landscape.origin())
    gy = gradient(landscape, landscape.peak_state(k))
    return sum(
        gx[2 * i - 2] != gy[2 * i - 2]
        for i in range(1, k)
    )


# ---------------------------------------------------------------------------
# Width bounds.
# ---------------------------------------------------------------------------

def pathwidth_upper_bound(graph: ConstraintGraph, order) -> int:
    """Width of the path decomposition induced by a vertex ordering: the
    maximum, over cuts, of the number of prefix vertices that still have a
    neighbor after the cut (the ordering's vertex separation).

    This is a valid pathwidth (hence treewidth) upper bound for every
    ordering.  The naive alternative - the maximum earlier-neighbor count -
    is not: on a 4x3 grid a degeneracy ordering has back-degree 2 while the
    treewidth is 3.  On interval-style orderings, where each vertex's
    neighbors occupy a contiguous index range (the encoded counting
    instances under their natural order), the two quantities coincide and
    are exact.
    """
    order = list(order)
    if sorted(order) != list(range(graph.num_vertices)):
        raise AnalysisError("order must be a permutation of the vertices")
    position = {v: i for i, v in enumerate(order)}
    boundary_delta = [0] * (graph.num_vertices + 1)
    for v in range(graph.num_vertices):
        last = max((position[u] for u in graph.adjacency[v]), default=-1)
        if last > position[v]:
            # v sits on the boundary of every cut in [position[v], last)
            boundary_delta[position[v]] += 1
            boundary_delta[last] -= 1
    width = 0
    active = 0
    for d in boundary_delta:
        active += d
        width = max(width, active)
    return width


def treewidth_exact(graph: ConstraintGraph, max_vertices: int = 14) -> int:
    """Exact treewidth by dynamic programming over elimination orderings.

    Q(S) is the best possible maximum elimination degree using the vertices
    of S as the first eliminated set; eliminating v from S costs the number
    of vertices outside S reachable from v through S.  Exponential in the
    vertex count, so capped.
    """
    n = graph.num_vertices
    if n > max_vertices:
        raise AnalysisError(f"exact treewidth capped at {max_vertices} vertices")
    if n == 0:
        return 0
    adj = [0] * n
    for v in range(n):
        for u in graph.adjacency[v]:
            adj[v] |= 1 << u

    def elimination_degree(v: int, inside: int) -> int:
        # vertices outside `inside` connected to v via a path through `inside`
        seen = 1 << v
        frontier = adj[v]
        reach_outside = 0
        while frontier:
            new_outside = frontier & ~inside & ~reach_outside
            reach_outside |= new_outside
            inside_frontier = frontier & inside & ~seen
            seen |= inside_frontier
            frontier = 0
            bits = inside_frontier
            while bits:
                u = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                frontier |= adj[u]
            frontier &= ~seen
        return bin(reach_outside).count("1")

    full = (1 << n) - 1
    q = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = n
        bits = s
        while bits:
            v = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            rest = s & ~(1 << v)
            cost = max(q[rest], elimination_degree(v, rest))
            if cost < best:
                best = cost
        q[s] = best
    return q[full]


# ---------------------------------------------------------------------------
# Exhaustive censuses.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusResult:
    local_maxima: int
    global_max: int
    worst_local_max: int
    states: int
    maxima: tuple = field(default=(), repr=False)

    @property
    def ratio_exact(self) -> tuple[int, int]:
        """(global_max, worst_local_max) as an exact ratio pair."""
        return (self.global_max, self.worst_local_max)


def local_optima_census(landscape: Landscape, max_states: int,
                        keep_maxima: bool = False) -> CensusResult:
    """Exhaustive census of local maxima under the landscape's move set."""
    total = landscape.state_count()
    if total > max_states:
        raise AnalysisError(
            f"state space has {total} states, over the cap {max_states}")
    count = 0
    global_max = None
    worst_local = None
    kept = []
    for state in landscape.iter_states():
        value = landscape.evaluate(state)
        if global_max is None or value > global_max:
            global_max = value
        if all(landscape.delta(state, m) <= 0 for m in landscape.moves(state)):
            count += 1
            if worst_local is None or value < worst_local:
                worst_local = value
            if keep_maxima:
                kept.append((state, value))
    return CensusResult(count, global_max, worst_local, total, tuple(kept))


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------

def verify_gradient_formulas(n_low: int = 2, n_high: int = 6,
                             aggregate_n: int = 8) -> Report:
    """Check the closed-form gradients of the winding landscape for both
    schedule presets: origin and sub-cube peak gradients entry-wise against
    finite differences, the per-peak count of changed odd entries, and the
    aggregate degree bound (n-1)n/2 at ``aggregate_n``."""
    rep = Report("winding gradient formulas")
    for preset, make in sorted(SCHEDULE_PRESETS.items()):
        for n in range(n_low, n_high + 1):
            landscape = WindingLandscape(n, make(n))
            g = gradient(landscape, landscape.origin())
            fd = gradient_by_full_evaluations(landscape, landscape.origin())
            expected = landscape.origin_gradient_expected()
            rep.add(
                f"origin gradient, {preset} n={n}",
                g == expected == fd,
                f"{list(g)}",
            )
            peaks_ok = True
            for k in range(1, n + 1):
                peak = landscape.peak_state(k)
                gk = gradient(landscape, peak)
                fdk = gradient_by_full_evaluations(landscape, peak)
                if not (gk == landscape.peak_gradient_expected(k) == fdk):
                    peaks_ok = False
                    rep.add(
                        f"peak gradient, {preset} n={n} k={k}", False,
                        f"got {list(gk)}, expected "
                        f"{list(landscape.peak_gradient_expected(k))}")
            if peaks_ok:
                rep.add(f"peak gradients, {preset} n={n}", True,
                        f"all {n} sub-cube peaks match, entry-wise exact")
        landscape = WindingLandscape(aggregate_n, make(aggregate_n))
        counts = [differing_odd_entries_below(landscape, k)
                  for k in range(1, aggregate_n + 1)]
        rep.add(
            f"changed odd entries per peak, {preset} n={aggregate_n}",
            all(c >= k - 1 for k, c in enumerate(counts, start=1)),
            f"{counts} (need >= k-1 each)",
        )
        total = degree_bound_report(landscape, winding_peak_pairs(landscape)).total
        floor = (aggregate_n - 1) * aggregate_n // 2
        rep.add(
            f"aggregate implied total degree, {preset} n={aggregate_n}",
            total >= floor,
            f"{total} >= {floor}",
        )
    return rep


def _missing_edge(graph: ConstraintGraph, scope):
    """Two variables of ``scope`` that ``graph`` does not join, or None
    when the scope is a clique of the graph."""
    for i, u in enumerate(scope):
        for v in scope[i + 1:]:
            if v not in graph.adjacency[u]:
                return u, v
    return None


def verify_pathwidth(n_low: int = 3, n_high: int = 10, brute_force_n: int = 3,
                     graph_of=None) -> Report:
    """The encoded counting instance's constraint graph has pathwidth and
    treewidth exactly 7 for every N in range.  The lexicographic variable
    order has width 7, an upper bound; every arity-8 scope is an 8-clique of
    the graph, and a k-clique forces treewidth >= k - 1, the lower bound.
    Exact treewidth on the smallest case confirms both.

    ``graph_of(instance)`` is the graph checked, by default the instance's
    constraint graph; passing a corrupted one shows the checks fire."""
    from .counting import make_counting_boolean_instance

    rep = Report("constraint-graph width")

    def graph_for(n):
        instance = make_counting_boolean_instance(n)
        return instance, (instance.constraint_graph() if graph_of is None
                          else graph_of(instance))

    for n in range(n_low, n_high + 1):
        instance, graph = graph_for(n)
        width = pathwidth_upper_bound(graph, range(graph.num_vertices))
        rep.add(
            f"lexicographic ordering width, N={n}",
            width == 7,
            f"width {width} on {graph.num_vertices} vertices",
        )
        scopes = [c.scope for c in instance.constraints]
        broken = next(((scope, edge) for scope in scopes
                       if (edge := _missing_edge(graph, scope))), None)
        if broken:
            ok, detail = False, f"scope {broken[0]} is not a clique: no edge {broken[1]}"
        else:
            clique = max(scopes, key=len)
            lower = len(clique) - 1
            ok = lower == width == 7
            detail = (f"{len(clique)}-clique {sorted(clique)} (a constraint scope) "
                      f"gives treewidth >= {lower}, the ordering pathwidth <= {width}")
        rep.add(f"width exactly 7, N={n}", ok, detail)
    _, graph = graph_for(brute_force_n)
    tw = treewidth_exact(graph)
    rep.add(
        f"exact treewidth, N={brute_force_n}",
        tw == 7,
        f"treewidth {tw} (dynamic programming over all elimination orders)",
    )
    return rep
