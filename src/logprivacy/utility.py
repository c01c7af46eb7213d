"""Data-utility preservation: exact earth mover's distance between logs.

The variant frequency distributions of an original and an anonymized log are
compared with a balanced transportation problem whose ground cost is the
normalized edit distance between variants.  The minimal reallocation cost is
the utility loss ``ul``; data utility is ``du = 1 - ul``.

Every plan returned comes with a certificate of optimality.  ``data_utility``
gives equal logs the identity plan, at cost 0, without a cost matrix.
``solve`` first tries sending each source variant whole to a closest sink
variant, as merge-nearest anonymization does: when that meets every sink's
count, each flow sits on its row's least cost, so the duals
u_i = min_j cost[i, j], v_j = 0 certify it (the relaxed-EMD bound of Kusner
et al. 2015 is then exact).  Otherwise a primal network simplex runs on the
bipartite graph plus an artificial root.  It starts from a strongly feasible
star tree, prices arcs in row blocks of about ``_BLOCK_SCALE`` * sqrt(m*n)
arcs (Grigoriadis 1986) and picks leaving arcs by Cunningham's rule, so the
many degenerate pivots that tied edit distances cause can neither cycle nor
stall; its certificate is a full pricing pass with no negative reduced cost
and no flow left on an artificial arc.  The marginals are trace counts,
cross-scaled by the other log's total so both sides carry the same integer
mass; both paths' integer flows must reproduce them exactly, and floating
point enters only through costs, potentials and the final masses.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from numbers import Integral
from typing import TextIO

import numpy as np

from .distance import closest_columns, distance_matrix
from .errors import InputError, SolverError
from .event_log import EventLog

_UL_TOL = 1e-9
_REDUCED_COST_TOL = 1e-9
# Only a guard against an endless loop: strongly feasible trees cannot cycle,
# and log pairs need far fewer pivots than arcs.
_PIVOTS_PER_ARC = 20
# A pricing block holds about this many times sqrt(m*n) arcs.  Multiples of
# 8-16 measured fastest both on log pairs of 50-800 traces and on thin
# suppress problems (863 sources, 5-30 sinks).
_BLOCK_SCALE = 12

LabelTrace = tuple[str, ...]


@dataclass(frozen=True, eq=False)
class TransportProblem:
    """A transportation instance between two variant distributions.

    Sources are the original log's variants (canonical order) with their
    trace counts, sinks the anonymized log's.  Each side's distribution is its
    counts over their sum; the two sides may have different totals.  ``cost``
    is oriented sources x sinks, i.e. transposed relative to a tableau whose
    rows are the anonymized variants.
    """

    source_variants: tuple[LabelTrace, ...]
    source_counts: tuple[int, ...]
    sink_variants: tuple[LabelTrace, ...]
    sink_counts: tuple[int, ...]
    cost: np.ndarray

    def __post_init__(self):
        m, n = len(self.source_variants), len(self.sink_variants)
        if len(self.source_counts) != m or len(self.sink_counts) != n:
            raise ValueError("count vectors must match the variant lists")
        for side, counts in (("source", self.source_counts), ("sink", self.sink_counts)):
            if not all(isinstance(c, Integral) and c > 0 for c in counts):
                raise InputError(f"{side} counts must all be positive integers")
            # Python ints, so the cross-scaled amounts in ``solve`` cannot overflow.
            object.__setattr__(self, f"{side}_counts", tuple(int(c) for c in counts))
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=np.float64))
        if self.cost.shape != (m, n):
            raise ValueError(f"cost matrix shape {self.cost.shape} != ({m}, {n})")
        if m == 0 or n == 0:
            raise ValueError("a transport problem needs at least one source and one sink")
        if not np.all(np.isfinite(self.cost)) or self.cost.min() < 0.0 or self.cost.max() > 1.0:
            raise ValueError("cost entries must lie in [0, 1]")


@dataclass(frozen=True)
class TransportPlan:
    """An optimal reallocation: sparse flows plus their total cost."""

    flows: dict[tuple[int, int], float]
    objective: float


@dataclass(frozen=True)
class UtilityReport:
    ul: float
    du: float
    plan: TransportPlan


def build_problem(original: EventLog, anonymized: EventLog) -> TransportProblem:
    """Assemble the transport problem between two logs' variant distributions.

    Distances are taken between the variants' activity labels, so they are
    well-defined across logs with different label sets.
    """
    rows = tuple(original.variant_labels(v) for v in original.variants)
    cols = tuple(anonymized.variant_labels(v) for v in anonymized.variants)
    return TransportProblem(
        source_variants=rows,
        source_counts=original.counts,
        sink_variants=cols,
        sink_counts=anonymized.counts,
        cost=distance_matrix(rows, cols),
    )


def solve(problem: TransportProblem) -> TransportPlan:
    """Solve the problem exactly; never returns an uncertified plan.

    The nearest-sink plan is taken when it is certified (always after
    merge-nearest anonymization); otherwise the network simplex solves.
    """
    return _nearest_plan(problem) or _simplex(problem)


def _plan(problem: TransportProblem, flows: list) -> TransportPlan | None:
    """The plan of sorted integer flows ``((i, j), units)``, or ``None`` off the marginals.

    Source ``i`` supplies ``source_counts[i]`` times the sink total and sink
    ``j`` demands ``sink_counts[j]`` times the source total, both exactly; a
    unit of flow carries ``1 / (n_source * n_sink)`` of mass.
    """
    n_source, n_sink = sum(problem.source_counts), sum(problem.sink_counts)
    row_sums = [0] * len(problem.source_counts)
    col_sums = [0] * len(problem.sink_counts)
    for (i, j), f in flows:
        row_sums[i] += f
        col_sums[j] += f
    if (row_sums != [c * n_sink for c in problem.source_counts]
            or col_sums != [c * n_source for c in problem.sink_counts]):
        return None
    unit = 1.0 / (n_source * n_sink)
    mass_flows = {ij: f * unit for ij, f in flows}
    objective = float(sum(f * problem.cost[i, j] for (i, j), f in mass_flows.items()))
    return TransportPlan(flows=mass_flows, objective=objective)


def _nearest_plan(problem: TransportProblem) -> TransportPlan | None:
    """The plan sending each source whole to a closest sink, when it is optimal.

    Ties between closest sinks are broken as merge-nearest breaks them: the
    sink whose labels have the larger count on the source side (0 where that
    side lacks them), then the first sink.  Returns ``None`` unless every used
    arc costs exactly its row's minimum and ``_plan`` finds the cross-scaled
    amount sent into each sink equal to its demand.  That compares the two
    distributions, so the trace totals may differ.
    """
    n_sink = sum(problem.sink_counts)
    cost = problem.cost
    source_count = dict(zip(problem.source_variants, problem.source_counts))
    weight = np.array([source_count.get(v, 0) for v in problem.sink_variants])
    best = closest_columns(cost, weight)
    if not np.array_equal(cost[np.arange(len(best)), best], cost.min(axis=1)):
        return None
    return _plan(problem, [((i, j), c * n_sink)
                           for i, (j, c) in enumerate(zip(best.tolist(), problem.source_counts))])


def _simplex(problem: TransportProblem) -> TransportPlan:
    """A certified optimal plan by network simplex, or ``SolverError``.

    Supplies and demands are the amounts ``_plan`` checks.  Each source starts
    with an arc to the root and the root with an arc to each sink, carrying
    the full amounts at a cost no optimum pays, so every tree arc pointing
    away from the root carries positive flow (the tree is strongly feasible).
    The entering arc is the most negative reduced cost in the next row block
    of about ``_BLOCK_SCALE`` * sqrt(m*n) arcs (all rows when that exceeds
    m*n): each pricing step costs much the same fixed interpreter overhead
    whatever its block's size, so larger blocks cut the number of pivots more
    than they add to each.  The leaving arc is the last blocking arc on the
    cycle counted from its join node (Cunningham 1976), which keeps the tree
    strongly feasible.  Only the subtree cut off by the leaving arc gets new
    potentials and depths.  The solve stops when a full pass over the blocks
    finds no reduced cost below ``-_REDUCED_COST_TOL``.
    """
    cost = problem.cost
    m, n = cost.shape
    n_source, n_sink = sum(problem.source_counts), sum(problem.sink_counts)
    supply = [c * n_sink for c in problem.source_counts]
    demand = [c * n_source for c in problem.sink_counts]

    # Nodes: sources 0..m-1, sinks m..m+n-1, the root m+n.  Every arc runs
    # from a source or the root to a sink or the root, so a node's tree arc
    # points up towards its parent exactly when the node is a source.  The
    # arc's flow is kept on the node below it.
    root = m + n
    big = (m + n + 1) * (float(cost.max()) + 1.0)
    parent = [root] * (m + n) + [-1]
    flow = supply + demand + [0]
    depth = [1] * (m + n) + [0]
    children = [set() for _ in range(m + n)] + [set(range(m + n))]
    # Tree arcs have zero reduced cost c(u, v) + pi[u] - pi[v].
    pi = np.concatenate([np.full(m, -big), np.full(n, big), [0.0]])
    pi_source, pi_sink = pi[:m], pi[m:root]

    rows = math.ceil(_BLOCK_SCALE * math.isqrt(m * n) / n)
    n_blocks = math.ceil(m / rows)
    max_pivots = _PIVOTS_PER_ARC * m * n
    pivots = clean = r0 = 0
    while clean < n_blocks:
        r1 = min(r0 + rows, m)
        reduced = cost[r0:r1] + pi_source[r0:r1, None] - pi_sink
        best = int(reduced.argmin())
        rc = float(reduced.flat[best])
        first, second = r0 + best // n, m + best % n
        r0 = r1 % m
        if rc >= -_REDUCED_COST_TOL:
            clean += 1
            continue
        clean = 0
        pivots += 1
        if pivots > max_pivots:
            raise SolverError(
                f"no optimality certificate after {max_pivots} pivots ({m}x{n} problem)"
            )

        # Walk both sides of the cycle up to the join node.  The cycle runs
        # first -> second over the entering arc, so the flow falls on the
        # source arcs of the first side and on the sink arcs of the second.
        a, b = first, second
        theta_a = theta_b = math.inf
        out_a = out_b = -1
        while a != b:
            if depth[a] >= depth[b]:
                if a < m and flow[a] < theta_a:
                    theta_a, out_a = flow[a], a
                a = parent[a]
            else:
                if b >= m and flow[b] <= theta_b:
                    theta_b, out_b = flow[b], b
                b = parent[b]
        join = a
        if theta_b <= theta_a:
            theta, u_out, u_in, v_in = theta_b, out_b, second, first
        else:
            theta, u_out, u_in, v_in = theta_a, out_a, first, second

        if theta:
            v = first
            while v != join:
                flow[v] += -theta if v < m else theta
                v = parent[v]
            v = second
            while v != join:
                flow[v] += theta if v < m else -theta
                v = parent[v]

        # Hang u_in below v_in on the entering arc, reversing the tree path
        # u_in .. u_out; the leaving arc above u_out drops out.
        v, new_parent, carried = u_in, v_in, theta
        while True:
            old_parent, old_flow = parent[v], flow[v]
            children[old_parent].discard(v)
            children[new_parent].add(v)
            parent[v], flow[v] = new_parent, carried
            if v == u_out:
                break
            v, new_parent, carried = old_parent, v, old_flow

        # The moved subtree keeps its internal arcs, so its potentials shift
        # by one amount that zeroes the entering arc's reduced cost.
        depth[u_in] = depth[v_in] + 1
        stack = [u_in]
        moved = []
        while stack:
            v = stack.pop()
            moved.append(v)
            below = depth[v] + 1
            for c in children[v]:
                depth[c] = below
                stack.append(c)
        pi[moved] += -rc if u_in == first else rc

    if any(flow[v] for v in children[root]):
        raise SolverError("optimal plan leaves mass on an artificial arc")
    plan = _plan(problem, sorted(
        ((v, u - m) if v < m else (u, v - m), flow[v])
        for v, u in enumerate(parent[:root])
        if u != root and flow[v] > 0
    ))
    if plan is None:
        raise SolverError("optimal plan violates marginal conservation")
    return plan


def utility_report(plan: TransportPlan) -> UtilityReport:
    """Read an optimal plan's objective as utility loss in [0, 1].

    An objective outside [0, 1] by more than float dust is a solver fault;
    within it, the loss is clamped so ``du = 1 - ul`` stays in range.
    """
    ul = plan.objective
    if ul < -_UL_TOL or ul > 1.0 + _UL_TOL:
        raise SolverError(f"utility loss {ul!r} escaped [0, 1]")
    ul = min(max(ul, 0.0), 1.0)
    return UtilityReport(ul=ul, du=1.0 - ul, plan=plan)


def data_utility(original: EventLog, anonymized: EventLog) -> UtilityReport:
    """Utility loss and preserved data utility between two logs.

    Logs with the same labelled variants and counts lose nothing: the
    identity plan is returned without building the cost matrix.  Otherwise
    ``solve`` takes the problem.
    """
    if original == anonymized:
        sink = {anonymized.variant_labels(v): j for j, v in enumerate(anonymized.variants)}
        flows = {
            (i, sink[original.variant_labels(v)]): c / original.total_traces
            for i, (v, c) in enumerate(zip(original.variants, original.counts))
        }
        return UtilityReport(ul=0.0, du=1.0, plan=TransportPlan(flows=flows, objective=0.0))
    return utility_report(solve(build_problem(original, anonymized)))


def write_plan_csv(problem: TransportProblem, plan: TransportPlan, out: TextIO) -> None:
    """Export a plan as ``source,sink,mass,cost`` rows in tableau order."""
    writer = csv.writer(out)
    writer.writerow(["source", "sink", "mass", "cost"])
    for (i, j), mass in sorted(plan.flows.items()):
        writer.writerow(
            [
                "|".join(problem.source_variants[i]),
                "|".join(problem.sink_variants[j]),
                repr(mass),
                repr(float(problem.cost[i, j])),
            ]
        )
