"""Finding where a dynamic finish placement can be inserted — both in the
S-DPST and in the source program.

For a finish placement ``(i, j)`` over the dependence-graph nodes of an
NS-LCA, the paper looks for *"the highest node in the S-DPST where we can
introduce a new finish node as the ancestor of i..j, but is not an
ancestor of i-1 or j+1"* (Section 5.2).  We implement that search
top-down from the NS-LCA, and extend it with a *static expressibility*
check: the chosen S-DPST position must map to a contiguous statement range
of one AST block that does not textually overlap the excluded neighbours.

The static check matters when several dynamic instances share one static
construct — the canonical case is a loop: one finish cannot cover
iterations 3..5 of a loop but not iteration 6.  In that case the search
descends into the iteration scope (yielding a finish *inside* the loop
body, which statically applies to every iteration — strictly more
synchronization, never less, so repairs stay sound).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dpst.nodes import ASYNC, FINISH, SCOPE, STEP, DpstNode
from ..errors import RepairError
from .dependence import DepNode

#: Maps a statement id to (block id, index within the block); built by the
#: engine from the current program and threaded through the search.
StmtPositions = Dict[int, Tuple[int, int]]

#: Per block: (names declared by each statement, names referenced from each
#: statement onward).  Used to reject placements that would capture a
#: variable declaration whose uses extend past the new finish.
ScopeTable = Dict[int, Tuple[List[frozenset], List[frozenset]]]


def build_scope_table(program) -> ScopeTable:
    """Compute, for every block, which names each statement declares and
    which names are referenced from each statement suffix.

    A finish wrapped around statements ``lo..hi`` of a block is lexically
    well-formed only if no name declared inside the range is referenced by
    the statements after ``hi`` (criterion 2 of the paper's Problem 1).
    """
    from ..lang import ast as _ast

    table: ScopeTable = {}
    for node in _ast.walk(program):
        if not isinstance(node, _ast.Block):
            continue
        decls: List[frozenset] = []
        refs: List[frozenset] = []
        for stmt in node.stmts:
            declared = (frozenset((stmt.name,))
                        if isinstance(stmt, _ast.VarDecl) else frozenset())
            used = frozenset(n.name for n in _ast.walk(stmt)
                             if isinstance(n, _ast.VarRef))
            decls.append(declared)
            refs.append(used)
        # Suffix union of references.
        suffix: List[frozenset] = [frozenset()] * (len(node.stmts) + 1)
        for idx in range(len(node.stmts) - 1, -1, -1):
            suffix[idx] = suffix[idx + 1] | refs[idx]
        table[node.nid] = (decls, suffix)
    return table


class InsertionPoint:
    """A concrete location for a new finish statement."""

    __slots__ = ("parent", "child_start", "child_end", "block_nid",
                 "start_stmt", "end_stmt")

    def __init__(self, parent: DpstNode, child_start: int, child_end: int,
                 block_nid: int, start_stmt: int, end_stmt: int) -> None:
        #: S-DPST node under which the finish node is introduced.
        self.parent = parent
        #: index range of the wrapped children of ``parent``.
        self.child_start = child_start
        self.child_end = child_end
        #: AST block and the statement-id range to wrap in ``finish { }``.
        self.block_nid = block_nid
        self.start_stmt = start_stmt
        self.end_stmt = end_stmt

    def edit_key(self) -> Tuple[int, int, int]:
        return (self.block_nid, self.start_stmt, self.end_stmt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"InsertionPoint(under={self.parent.describe()}, "
                f"block={self.block_nid}, stmts={self.start_stmt}.."
                f"{self.end_stmt})")


# ----------------------------------------------------------------------
# Small structural helpers
# ----------------------------------------------------------------------

def child_toward(parent: DpstNode, target: DpstNode) -> DpstNode:
    """The direct child of ``parent`` whose subtree contains ``target``."""
    node = target
    prev = None
    while node is not None and node is not parent:
        prev = node
        node = node.parent
    if node is None or prev is None:
        raise RepairError(
            f"{parent.describe()} is not a proper ancestor of "
            f"{target.describe()}")
    return prev


def first_anchor(node: DpstNode) -> Optional[int]:
    """First AST statement (in the parent block) this child covers."""
    if node.kind == STEP:
        return node.anchors[0] if node.anchors else None
    return node.anchor_nid


def last_anchor(node: DpstNode) -> Optional[int]:
    """Last AST statement (in the parent block) this child covers."""
    if node.kind == STEP:
        return node.anchors[-1] if node.anchors else None
    return node.anchor_nid


def has_parallel_construct(node: DpstNode,
                           cache: Dict[int, bool]) -> bool:
    """True if the subtree contains any async or finish node."""
    cached = cache.get(node.index)
    if cached is not None:
        return cached
    if node.kind in (ASYNC, FINISH):
        result = True
    else:
        result = any(has_parallel_construct(c, cache) for c in node.children)
    cache[node.index] = result
    return result


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------

class InsertionFinder:
    """Resolves dynamic finish placements to insertion points.

    One finder is built per (program snapshot, S-DPST); it memoizes the
    async-containment cache across queries, which the DP's VALID check
    issues O(n^2) times per NS-LCA.
    """

    def __init__(self, stmt_positions: StmtPositions,
                 scope_table: Optional[ScopeTable] = None) -> None:
        self.stmt_positions = stmt_positions
        self.scope_table = scope_table if scope_table is not None else {}
        self._parallel_cache: Dict[int, bool] = {}
        # Sinks the current query must keep outside the wrap (set per
        # find() call; DepNode list).
        self._forbidden: List[DepNode] = []

    def _contains_forbidden(self, child: DpstNode) -> bool:
        """Does this child's subtree hold any to-be-ordered race sink?"""
        for node in self._forbidden:
            if child.is_ancestor_of(node.first) \
                    or child.is_ancestor_of(node.last):
                return True
        return False

    # -- public API ----------------------------------------------------

    def find(self, nslca: DpstNode, dep_nodes: Sequence[DepNode],
             i: int, j: int,
             sink_positions: Sequence[int] = ()) -> Optional[InsertionPoint]:
        """Insertion point for a finish over dep nodes ``i..j`` (inclusive),
        excluding neighbours ``i-1`` and ``j+1``; None if impossible.
        VALID(i, j) of the DP is exactly ``find(...) is not None``:
        structurally in the S-DPST *and* in the source.

        ``sink_positions`` are the dependence-graph positions of the race
        sinks this finish must order after its join (the sinks of the
        edges the placement covers).  The static mapping may widen the
        wrap over harmless synchronous material, but never over a sink —
        a sink textually inside the finish would stay unordered with the
        wrapped sources, un-fixing the race.
        """
        target_lo = dep_nodes[i].first
        target_hi = dep_nodes[j].last
        left = dep_nodes[i - 1].last if i > 0 else None
        right = dep_nodes[j + 1].first if j + 1 < len(dep_nodes) else None
        self._forbidden = [dep_nodes[p] for p in sink_positions]
        parent = nslca
        while True:
            lo_child = child_toward(parent, target_lo)
            hi_child = child_toward(parent, target_hi)
            if lo_child is not hi_child:
                if not self._left_edge_ok(lo_child, target_lo, left):
                    return None
                if not self._right_edge_ok(hi_child, target_hi, right):
                    return None
                return self._static_point(parent, lo_child, hi_child)
            # The whole run lives under one child; try wrapping that child
            # alone at this (highest remaining) level, else descend.
            child = lo_child
            dynamic_ok = (self._left_edge_ok(child, target_lo, left)
                          and self._right_edge_ok(child, target_hi, right))
            if dynamic_ok:
                point = self._static_point(parent, child, child)
                if point is not None:
                    return point
            if child.kind != SCOPE:
                return None
            parent = child

    def _left_edge_ok(self, lo_child: DpstNode, target_lo: DpstNode,
                      left: Optional[DpstNode]) -> bool:
        """May a finish start at ``lo_child`` given the excluded ``left``?

        If the excluded left neighbour lives inside ``lo_child`` (common
        when a loop body computes something — e.g. copies the loop
        variable — before spawning its async), the wrap unavoidably
        swallows that prefix.  Swallowing a *purely synchronous* prefix is
        sound: it cannot be a race source (sources are asyncs) and, being
        left of every covered source, cannot be a covered sink either.  A
        prefix containing an async would get joined too, changing the
        placement's parallelism, so that is rejected.
        """
        if left is None or not lo_child.is_ancestor_of(left):
            return True
        return self._prefix_async_free(lo_child, target_lo)

    def _prefix_async_free(self, ancestor: DpstNode,
                           target: DpstNode) -> bool:
        """True if nothing before ``target`` inside ``ancestor``'s subtree
        contains an async or finish node."""
        node = target
        while node is not ancestor:
            parent = node.parent
            if parent is None:
                raise RepairError("target is not inside the child subtree")
            for sibling in parent.children:
                if sibling is node:
                    break
                if has_parallel_construct(sibling, self._parallel_cache):
                    return False
            node = parent
        return True

    def _right_edge_ok(self, hi_child: DpstNode, target_hi: DpstNode,
                       right: Optional[DpstNode]) -> bool:
        """May a finish end at ``hi_child`` given the excluded ``right``?

        The mirror of :meth:`_left_edge_ok`, with one extra constraint:
        the swallowed suffix additionally must not contain any of the
        race sinks this placement covers (a suffix is *after* the wrapped
        sources, so unlike the prefix it genuinely can hold one).
        """
        if right is None or not hi_child.is_ancestor_of(right):
            return True
        node = target_hi
        while node is not hi_child:
            parent = node.parent
            if parent is None:
                raise RepairError("target is not inside the child subtree")
            passed = False
            for sibling in parent.children:
                if passed:
                    if has_parallel_construct(sibling, self._parallel_cache):
                        return False
                    if self._contains_forbidden(sibling):
                        return False
                elif sibling is node:
                    passed = True
            node = parent
        return True

    # -- internals -----------------------------------------------------

    def _static_point(self, parent: DpstNode, lo_child: DpstNode,
                      hi_child: DpstNode) -> Optional[InsertionPoint]:
        """Map a child run of ``parent`` to a statement range, checking the
        excluded neighbours don't share wrapped statements."""
        if parent.block_nid is None:
            return None
        children = parent.children
        a = children.index(lo_child)
        b = children.index(hi_child)
        start_stmt = first_anchor(lo_child)
        end_stmt = last_anchor(hi_child)
        if start_stmt is None or end_stmt is None:
            return None
        start_pos = self.stmt_positions.get(start_stmt)
        end_pos = self.stmt_positions.get(end_stmt)
        if start_pos is None or end_pos is None:
            return None
        if (start_pos[0] != parent.block_nid
                or end_pos[0] != parent.block_nid):
            # Anchors must be direct statements of the parent's block; a
            # mismatch means the placement is stale for this program copy.
            return None
        if not self._clear_after(children, b, parent.block_nid, end_pos[1]):
            return None
        if not self._clear_before(children, a, parent.block_nid,
                                  start_pos[1]):
            return None
        if not self._declarations_stay_visible(parent.block_nid,
                                               start_pos[1], end_pos[1]):
            return None
        return InsertionPoint(parent, a, b, parent.block_nid,
                              start_stmt, end_stmt)

    def _anchor_pos(self, anchor: Optional[int], block_nid: int
                    ) -> Optional[int]:
        if anchor is None:
            return None
        pos = self.stmt_positions.get(anchor)
        if pos is None or pos[0] != block_nid:
            return None
        return pos[1]

    def _clear_after(self, children: List[DpstNode], b: int,
                     block_nid: int, hi: int) -> bool:
        """No child after the run may be textually dragged into the wrap.

        Statement anchors of siblings are non-decreasing, so we scan right
        from ``b`` until a child starts past the wrap's last statement.  A
        child whose whole anchor range falls inside the wrap would be
        *fully* swallowed — its computation (possibly a race sink, e.g.
        another loop iteration or the body of a call whose argument
        evaluation ended the wrap) would move inside the finish, so the
        placement is rejected.  A child merely *sharing* the boundary
        statement (a loop's final condition evaluation) is tolerated when
        it contains no parallel construct.
        """
        for idx in range(b + 1, len(children)):
            child = children[idx]
            first = self._anchor_pos(first_anchor(child), block_nid)
            if first is None:
                return False  # inconsistent anchors: be conservative
            if first > hi:
                return True
            # The child is textually dragged (at least partly) into the
            # wrap.  That is harmless synchronous material unless it
            # contains a parallel construct or — when the child is wholly
            # inside the wrapped statements — one of the race sinks this
            # very finish is supposed to order after its join.  A child
            # merely sharing the boundary statement only contributes that
            # statement's trailing fragment (e.g. a loop's final condition
            # evaluation); its later statements stay outside the finish.
            if has_parallel_construct(child, self._parallel_cache):
                return False
            last = self._anchor_pos(last_anchor(child), block_nid)
            fully_inside = last is not None and last <= hi
            if fully_inside and self._contains_forbidden(child):
                return False
        return True

    def _clear_before(self, children: List[DpstNode], a: int,
                      block_nid: int, lo: int) -> bool:
        """Mirror of :meth:`_clear_after` for the leading edge."""
        for idx in range(a - 1, -1, -1):
            child = children[idx]
            last = self._anchor_pos(last_anchor(child), block_nid)
            if last is None:
                return False
            if last < lo:
                return True
            if has_parallel_construct(child, self._parallel_cache):
                return False
            first = self._anchor_pos(first_anchor(child), block_nid)
            fully_inside = first is not None and first >= lo
            if fully_inside and self._contains_forbidden(child):
                return False
        return True

    def _declarations_stay_visible(self, block_nid: int, lo: int,
                                   hi: int) -> bool:
        """Reject wraps that capture a declaration used after the range."""
        entry = self.scope_table.get(block_nid)
        if entry is None:
            return True
        decls, suffix_refs = entry
        declared = frozenset().union(*decls[lo:hi + 1]) if hi >= lo \
            else frozenset()
        if not declared:
            return True
        return not (declared & suffix_refs[hi + 1])


def valid_algorithm2(nodes: Sequence[DepNode], i: int, j: int) -> bool:
    """The paper's Algorithm 2, verbatim: LCA-depth comparison against the
    neighbours.  Kept as a reference implementation; the engine uses the
    structural :meth:`InsertionFinder.find`, which additionally checks
    static expressibility.  Tests cross-check that Algorithm 2 never
    rejects a placement the structural search accepts.
    """
    from ..dpst.tree import Dpst

    node_i, node_j = nodes[i].first, nodes[j].last
    lca_ij = Dpst.lca(node_i, node_j)
    if i > 0:
        lca_left = Dpst.lca(node_i, nodes[i - 1].last)
        if lca_left.depth > lca_ij.depth:
            return False
    if j + 1 < len(nodes):
        lca_right = Dpst.lca(node_j, nodes[j + 1].first)
        if lca_right.depth > lca_ij.depth:
            return False
    return True
