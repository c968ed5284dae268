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
from .search import _MoveTable, _improving
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
    differing: tuple[int, ...]   # 0-based variables where x and y differ
    bound: int                   # implied lower bound on total degree of S


@dataclass(frozen=True)
class DegreeBoundReport:
    rows: tuple[DegreeBoundRow, ...]
    total: int  # sum of the per-pair bounds


def degree_bound_report(landscape: Landscape, pairs) -> DegreeBoundReport:
    """For each (x, y) pair, the flow-change lower bound on the total degree
    of the variables where they differ.  When the pairs cover disjoint
    variable sets (as the winding peak family does), ``total`` bounds the
    total degree of the whole graph."""
    rows = []
    for x, y in pairs:
        x, y = tuple(x), tuple(y)
        differing = tuple(i for i, (a, b) in enumerate(zip(x, y)) if a != b)
        rows.append(DegreeBoundRow(differing, flow_change_norm(landscape, x, y)))
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


def treewidth_exact(graph: ConstraintGraph) -> int:
    """Exact treewidth by dynamic programming over elimination orderings.

    Q(S) is the best possible maximum elimination degree using the vertices
    of S as the first eliminated set; eliminating v from S costs the number
    of vertices outside S reachable from v through S.  Exponential in the
    vertex count, so capped at 14 vertices.
    """
    n = graph.num_vertices
    if n > 14:
        raise AnalysisError("exact treewidth capped at 14 vertices")
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


# on a 2-core host (Python 3.11, one process each, time.perf_counter), 2^24
# states took 0.03 s on pairs n = 24 and 22 s on the Boolean lift at N = 6;
# counting-symbol N = 7 took 0.5 s.  A black box rescans every state: winding
# n = 10 (2^20 states) took 9.2 s and n = 11 (2^22) 41 s
CENSUS_MAX_STATES = 2 ** 24
CENSUS_MAX_BLACK_BOX_STATES = 2 ** 22


def local_optima_census(landscape: Landscape, max_states: int,
                        keep_maxima: bool = False) -> CensusResult:
    """Exhaustive census of local maxima under the landscape's move set.

    One depth-first walk sets the variables in ``iter_states`` order.  Once
    a variable completes the ``affected`` set of a neighbourhood run, the
    run's improving entries, which depend on those values alone, are read
    from its memo in the landscape's ``_runs`` (on a miss, one ``_rescan``
    of the run, stored as the move table stores it); one improving entry
    drops the prefix.  The full states no run drops are the local maxima,
    the only states evaluated; ``maxima`` are in ``iter_states`` order.  A
    black box is one run, rescanned whole at every state with no memo.  A
    ``max_states`` below 1, or more states than it or CENSUS_MAX_STATES, is
    refused before any state is read; a black box over
    CENSUS_MAX_BLACK_BOX_STATES, once the zero state has been scanned."""
    if max_states < 1:
        raise AnalysisError(f"the census cap {max_states} is below 1")
    total = landscape.state_count()
    cap = min(max_states, CENSUS_MAX_STATES)
    if total > cap:
        raise AnalysisError(f"state space has {total} states, over the cap {cap}")
    table = _MoveTable(landscape, landscape.zero_state())  # lays out the runs
    if not table.local and total > CENSUS_MAX_BLACK_BOX_STATES:
        raise AnalysisError(f"state space has {total} states, "
                            f"over the cap {CENSUS_MAX_BLACK_BOX_STATES}")
    domains = landscape.domains()
    last = len(domains) - 1
    tests = [[] for _ in domains]  # per variable, the runs whose neighbourhood it completes
    for values, memo, variables, _ in landscape._runs[0]:
        tests[landscape.affected(variables[0])[-1]].append((values, memo, variables))
    if not table.local:
        tests[last].append((None, None, None))
    rescan = landscape._rescan
    state = list(table.state)
    count = 0
    global_max = worst_local = None
    kept = []
    done = object()
    pending = [iter(domains[0])]  # per variable set, the values it has still to take
    var = 0
    while var >= 0:
        value = next(pending[var], done)
        if value is done:
            pending.pop()
            var -= 1
            continue
        state[var] = value
        for values, memo, variables in tests[var]:
            if memo is None:  # the black box
                entries = _improving(rescan(tuple(state), None))
            else:
                key = values(state)
                entries = memo.get(key)
                if entries is None:
                    entries = memo[key] = _improving(rescan(tuple(state), variables))
            if entries:
                break  # an improving move on this prefix: no local maximum below it
        else:
            if var < last:
                var += 1
                pending.append(iter(domains[var]))
                continue
            # a global maximum has no improving move, so it is met here
            full = tuple(state)
            fitness = landscape.evaluate(full)
            count += 1
            if global_max is None or fitness > global_max:
                global_max = fitness
            if worst_local is None or fitness < worst_local:
                worst_local = fitness
            if keep_maxima:
                kept.append((full, fitness))
    return CensusResult(count, global_max, worst_local, total, tuple(kept))


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------

# verify_gradient_formulas checks every peak of every level up to n_high: on a
# 2-core host with Python 3.11, n = 30 took 3.4 s, n = 40 12.5 s and the cap,
# n = 60, 52.2 s
GRADIENT_MAX_N = 60


def verify_gradient_formulas(n_high: int = 6) -> Report:
    """Check the closed-form gradients of the winding landscape for both
    schedule presets at n = 2..``n_high``: origin and sub-cube peak
    gradients entry-wise against finite differences, the per-peak count of
    changed odd entries, and the aggregate degree bound (n-1)n/2 at n = 8.
    An ``n_high`` over GRADIENT_MAX_N is refused before any landscape is
    built."""
    if n_high > GRADIENT_MAX_N:
        raise ValueError(f"the gradient formulas to n={n_high} are over the cap {GRADIENT_MAX_N}")
    aggregate_n = 8
    rep = Report("winding gradient formulas")
    for preset, make in sorted(SCHEDULE_PRESETS.items()):
        for n in range(2, n_high + 1):
            landscape = WindingLandscape(n, make(n))
            g = gradient(landscape, landscape.origin())
            fd = gradient_by_full_evaluations(landscape, landscape.origin())
            expected = landscape.origin_gradient_expected()
            rep.add(f"origin gradient, {preset} n={n}", g == expected == fd, f"{list(g)}")
            peaks_ok = True
            for k in range(1, n + 1):
                peak = landscape.peak_state(k)
                gk, expected = gradient(landscape, peak), landscape.peak_gradient_expected(k)
                if not gk == expected == gradient_by_full_evaluations(landscape, peak):
                    peaks_ok = False
                    rep.add(f"peak gradient, {preset} n={n} k={k}", False,
                            f"got {list(gk)}, expected {list(expected)}")
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


# verify_pathwidth builds and checks the instance of every N up to n_high, so
# its time grows about quadratically: on a 2-core host with Python 3.11 the
# cap, n = 2,000, took 61 s
PATHWIDTH_MAX_N = 2000


def verify_pathwidth(n_high: int = 10, graph_of=None) -> Report:
    """The encoded counting instance's constraint graph has pathwidth and
    treewidth exactly 7 for every N in 3..``n_high``.  The lexicographic
    variable order has width 7, an upper bound; every arity-8 scope is an
    8-clique of the graph, and a k-clique forces treewidth >= k - 1, the
    lower bound.  Exact treewidth at N = 3 confirms both.  An ``n_high``
    over PATHWIDTH_MAX_N is refused before any instance is built.

    ``graph_of(instance)`` is the graph checked, by default the instance's
    constraint graph; passing a corrupted one shows the checks fire."""
    if n_high > PATHWIDTH_MAX_N:
        raise ValueError(f"the pathwidth check to N={n_high} is over the cap {PATHWIDTH_MAX_N}")
    from .counting import make_counting_boolean_instance

    rep = Report("constraint-graph width")

    def graph_for(n):
        instance = make_counting_boolean_instance(n)
        return instance, (instance.constraint_graph() if graph_of is None
                          else graph_of(instance))

    for n in range(3, n_high + 1):
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
    _, graph = graph_for(3)  # 12 vertices, under treewidth_exact's cap
    tw = treewidth_exact(graph)
    rep.add(
        "exact treewidth, N=3",
        tw == 7,
        f"treewidth {tw} (dynamic programming over all elimination orders)",
    )
    return rep
