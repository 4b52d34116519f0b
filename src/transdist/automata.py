"""Finite automata over arbitrary hashable edge labels.

The label None is reserved for silent (epsilon) moves; they appear in padded
synchronizations and gadget constructions.  State ids are dense integers.
Equivalence of unambiguous automata uses exact rational path counting, never
floating point.  Every language inclusion (k-closeness, containment of
relations, and the difference of two deterministic automata) goes through one
engine, `included`, which walks an automaton against a determinized one.
The library determinizes only what that walk reads: `determinize(b,
within=a)` builds the subsets of b that a run of a reaches, with an edge
only under the letters that a reads there (the on-the-fly subset
construction of De Wulf, Doyen, Henzinger and Raskin, CAV 2006, without
the antichain), and `included(a, ·)` answers on it as on the full one.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Hashable, Iterable

from .errors import InputError, PreconditionError, ResourceLimitError

EPSILON = None

DEFAULT_STATE_CEILING = 2_000_000


class Nfa:
    """A finite automaton; transitions are (src, label, dst) triples."""

    __slots__ = ("n_states", "initials", "finals", "transitions", "_adj", "_radj")

    def __init__(self, n_states: int, initials: Iterable[int], finals: Iterable[int],
                 transitions: Iterable[tuple[int, Hashable, int]]):
        self.n_states = n_states
        self.initials = frozenset(initials)
        self.finals = frozenset(finals)
        self.transitions = tuple(transitions)
        for s in self.initials | self.finals:
            if not 0 <= s < n_states:
                raise InputError(f"state {s} out of range 0..{n_states - 1}")
        for s, _, d in self.transitions:
            if not (0 <= s < n_states and 0 <= d < n_states):
                raise InputError(f"transition ({s},...,{d}) out of range")
        self._adj = None
        self._radj = None

    # -- adjacency ----------------------------------------------------------

    def adj(self) -> list[list[tuple[Hashable, int, int]]]:
        """Outgoing (label, dst, transition index) lists per state."""
        if self._adj is None:
            adj = [[] for _ in range(self.n_states)]
            for t, (s, a, d) in enumerate(self.transitions):
                adj[s].append((a, d, t))
            self._adj = adj
        return self._adj

    def radj(self) -> list[list[tuple[Hashable, int, int]]]:
        if self._radj is None:
            radj = [[] for _ in range(self.n_states)]
            for t, (s, a, d) in enumerate(self.transitions):
                radj[d].append((a, s, t))
            self._radj = radj
        return self._radj

    def labels(self) -> list[Hashable]:
        """Distinct non-epsilon labels, in first-occurrence order."""
        seen, out = set(), []
        for _, a, _ in self.transitions:
            if a is not EPSILON and a not in seen:
                seen.add(a)
                out.append(a)
        return out

    def is_deterministic(self) -> bool:
        if len(self.initials) > 1:
            return False
        seen = set()
        for s, a, _ in self.transitions:
            if a is EPSILON or (s, a) in seen:
                return False
            seen.add((s, a))
        return True

    def __repr__(self):
        return (f"Nfa(states={self.n_states}, initials={sorted(self.initials)}, "
                f"finals={sorted(self.finals)}, transitions={len(self.transitions)})")


def scc_decomposition(nfa: Nfa
                      ) -> tuple[list[int], list[list[int]], list[int | None]]:
    """Tarjan's algorithm with an explicit stack of (state, iterator over its
    outgoing transitions).

    Returns (component id per state, components, tree link per state).
    Components are listed in topological order: every edge goes from an
    earlier or equal component to a later or equal one.  Each lists its
    root, the state of it that the depth-first walk reached first, and then
    its other states in the order the walk reached them.  tree[s] is the
    transition by which the walk reached s, None at the root of a
    component; it starts at a state of s's component listed before s, so
    the tree links of a component form a spanning tree of it, rooted at
    its root.
    """
    n = nfa.n_states
    adj = nfa.adj()
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 while the state is unvisited or on the stack
    tree: list[int | None] = [None] * n
    stack: list[int] = []
    comps_rev: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        # per state on the walk: its outgoing transitions not yet followed
        # and its position on the stack
        work = [(root, iter(adj[root]), 0)]
        while work:
            v, edges, at = work[-1]
            for _, w, t in edges:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    tree[w] = t
                    work.append((w, iter(adj[w]), len(stack)))
                    stack.append(w)
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    # v's component: the stack from v up, in the walk's order
                    members = stack[at:]
                    del stack[at:]
                    c = len(comps_rev)
                    for w in members:
                        comp[w] = c
                    tree[v] = None
                    comps_rev.append(members)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    # Tarjan emits components in reverse topological order
    last = len(comps_rev) - 1
    return [last - c for c in comp], comps_rev[::-1], tree


def is_unambiguous(nfa: Nfa) -> bool:
    """True iff no word has two distinct accepting runs.

    Decided by reachability in the self product, tracking whether the two
    simultaneous runs have already diverged.  Runs are transition sequences,
    so two parallel transitions with equal endpoints already diverge.
    Epsilon labels are rejected.
    """
    if any(a is EPSILON for _, a, _ in nfa.transitions):
        raise InputError("is_unambiguous expects an epsilon-free automaton")
    groups: dict[tuple[int, Hashable], list[tuple[int, int]]] = {}
    for t, (s, a, d) in enumerate(nfa.transitions):
        groups.setdefault((s, a), []).append((d, t))
    by_src: dict[int, list[tuple[Hashable, list[tuple[int, int]]]]] = {}
    for (s, a), ds in groups.items():
        by_src.setdefault(s, []).append((a, ds))
    start = set()
    inits = sorted(nfa.initials)
    for i in inits:
        for j in inits:
            if i <= j:
                start.add((i, j, i != j))
    seen = set(start)
    todo = deque(start)
    while todo:
        p, q, diff = todo.popleft()
        if diff and p in nfa.finals and q in nfa.finals:
            return False
        for a, pds in by_src.get(p, ()):
            qds = groups.get((q, a))
            if not qds:
                continue
            for pd, ti in pds:
                for qd, tj in qds:
                    x, y = (pd, qd) if pd <= qd else (qd, pd)
                    nd = diff or pd != qd or ti != tj
                    key = (x, y, nd)
                    if key not in seen:
                        seen.add(key)
                        todo.append(key)
    return True


# ---------------------------------------------------------------------------
# equivalence of unambiguous automata (exact path counting over Q)
# ---------------------------------------------------------------------------

def language_difference_witness(a: Nfa, b: Nfa, *, check: bool = True
                                ) -> tuple[Hashable, ...] | None:
    """Shortest word on which L(a) and L(b) disagree, or None if equivalent.

    Both automata must be unambiguous.  Two deterministic automata take two
    inclusion walks (`included` both ways) and the shorter word wins.
    Otherwise the test compares accepting-run counts (0 or 1 per word)
    through a rational-arithmetic vector system whose basis never exceeds
    |Q_a| + |Q_b|.
    """
    if check:
        for m, name in ((a, "left"), (b, "right")):
            if not (m.is_deterministic() or is_unambiguous(m)):
                raise PreconditionError(f"{name} automaton is ambiguous")
    if a.is_deterministic() and b.is_deterministic():
        found = [w for w in (included(a, b), included(b, a)) if w is not None]
        return min(found, key=len, default=None)

    na = a.n_states
    dim = na + b.n_states
    labels = sorted(set(a.labels()) | set(b.labels()), key=repr)
    by_label: dict[Hashable, list[tuple[int, int]]] = {x: [] for x in labels}
    for s, x, d in a.transitions:
        by_label[x].append((s, d))
    for s, x, d in b.transitions:
        by_label[x].append((na + s, na + d))
    final_sign = [0] * dim
    for f in a.finals:
        final_sign[f] = 1
    for f in b.finals:
        final_sign[na + f] = -1

    def weigh(vec):
        return sum(c * final_sign[i] for i, c in enumerate(vec) if c)

    v0 = [Fraction(0)] * dim
    for i in a.initials:
        v0[i] += 1
    for i in b.initials:
        v0[na + i] += 1   # sign carried by final_sign

    basis: list[tuple[int, list[Fraction]]] = []  # (pivot, reduced row)

    def in_span(vec):
        vec = vec[:]
        for pivot, row in basis:
            if vec[pivot]:
                c = vec[pivot]
                for i in range(dim):
                    vec[i] -= c * row[i]
        for i in range(dim):
            if vec[i]:
                return False, i, vec
        return True, None, vec

    todo = deque([(v0, ())])
    while todo:
        vec, word = todo.popleft()
        if weigh(vec) != 0:
            return word
        inside, pivot, reduced = in_span(vec)
        if inside:
            continue
        c = reduced[pivot]
        basis.append((pivot, [x / c for x in reduced]))
        for x in labels:
            nxt = [Fraction(0)] * dim
            for s, d in by_label[x]:
                if vec[s]:
                    nxt[d] += vec[s]
            todo.append((nxt, word + (x,)))
    return None


def equiv_unambiguous(a: Nfa, b: Nfa, *, check: bool = True) -> bool:
    """True iff two unambiguous automata accept the same language."""
    return language_difference_witness(a, b, check=check) is None


# ---------------------------------------------------------------------------
# subset construction and language inclusion
# ---------------------------------------------------------------------------

def epsilon_closure(nfa: Nfa, states: Iterable[int]) -> frozenset[int]:
    seen = set(states)
    todo = deque(seen)
    adj = nfa.adj()
    while todo:
        s = todo.popleft()
        for x, d, _ in adj[s]:
            if x is EPSILON and d not in seen:
                seen.add(d)
                todo.append(d)
    return frozenset(seen)


def determinize(nfa: Nfa, ceiling: int = DEFAULT_STATE_CEILING, *,
                within: Nfa | None = None) -> Nfa:
    """Subset construction with epsilon closure, guided by the automaton
    `within`; raises when the subsets pass the ceiling.

    The walk goes over pairs (state of `within`, subset of nfa), from its
    initial states with the closure of nfa's.  An epsilon move of `within`
    keeps the subset; a letter x read from state p moves the subset to its
    x-successor, and only then does the subset get its x-edge.  So the DFA
    has exactly the subsets and edges that `included(within, ·)` can reach,
    and `included(within, determinize(nfa, within=within))` answers as it
    would on the full construction, with the same word.  `within=None` is
    the one-state automaton that reads every label of nfa: the full
    construction, its subsets numbered breadth-first and its edges in
    first-occurrence label order.

    Successors are grouped per state and letter once, a subset's moves once,
    and its successor under each letter once, however many states of
    `within` meet it.  Each state's epsilon closure is taken at most once,
    and an automaton without epsilon moves takes none.
    """
    if within is None:
        within = Nfa(1, [0], [0], ((0, x, 0) for x in nfa.labels()))
    grouped: list[dict[Hashable, list[int]]] = [{} for _ in range(nfa.n_states)]
    silent = False
    for s, x, d in nfa.transitions:
        if x is EPSILON:
            silent = True
        else:
            grouped[s].setdefault(x, []).append(d)
    succ = [tuple(g.items()) for g in grouped]
    closures: list[frozenset[int] | None] = [None] * nfa.n_states

    def close(states: Iterable[int]) -> frozenset[int]:
        if not silent:
            return frozenset(states)
        out: set[int] = set()
        for s in states:
            c = closures[s]
            if c is None:
                c = closures[s] = epsilon_closure(nfa, (s,))
            out |= c
        return frozenset(out)

    start = close(nfa.initials)
    ids = {start: 0}
    order = [start]
    # per subset, built on first need: letter -> its successor states, each
    # replaced by the successor subset's id once that edge is built
    moves: list[dict[Hashable, list[int] | int] | None] = [None]
    transitions = []
    seen = {(p, 0) for p in within.initials}
    todo = deque(seen)
    adj = within.adj()
    while todo:
        p, here = todo.popleft()
        m = moves[here]
        for x, d, _ in adj[p]:
            if x is EPSILON:
                nxt = (d, here)
            else:
                if m is None:
                    m = moves[here] = {}
                    for s in order[here]:
                        for y, ds in succ[s]:
                            if y in m:
                                m[y].extend(ds)
                            else:
                                m[y] = list(ds)
                dst = m.get(x)
                if dst is None:
                    continue
                if isinstance(dst, list):
                    target = close(dst)
                    dst = ids.get(target)
                    if dst is None:
                        if len(ids) >= ceiling:
                            raise ResourceLimitError(
                                f"determinization exceeded ceiling of "
                                f"{ceiling} states")
                        dst = ids[target] = len(ids)
                        order.append(target)
                        moves.append(None)
                    m[x] = dst
                    transitions.append((here, x, dst))
                nxt = (d, dst)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    finals = [i for i, subset in enumerate(order)
              if not subset.isdisjoint(nfa.finals)]
    return Nfa(len(ids), [0], finals, transitions)


def _successor_maps(dfa: Nfa) -> list[dict[Hashable, int]]:
    """Per state, letter -> the first successor (the only one in a DFA)."""
    maps: list[dict[Hashable, int]] = [{} for _ in range(dfa.n_states)]
    for s, x, d in dfa.transitions:
        maps[s].setdefault(x, d)
    return maps


def included(a: Nfa, dfa: Nfa) -> tuple[Hashable, ...] | None:
    """A word of L(a) that the deterministic automaton rejects, or None
    when L(a) ⊆ L(dfa).

    One breadth-first walk over pairs (state of a, state of dfa or None).
    An epsilon move of a leaves the dfa state as it is; a letter the dfa
    cannot read leads to None, which rejects every continuation, so the dfa
    needs neither completion nor a sink.  Parent pointers rebuild the word
    only when one is found.  When a has no epsilon moves the word is a
    shortest one.
    """
    step = _successor_maps(dfa)
    q0 = next(iter(dfa.initials), None)
    parent: dict[tuple[int, int | None], tuple | None] = {
        (p, q0): None for p in a.initials}
    todo = deque(parent)
    adj = a.adj()
    while todo:
        key = p, q = todo.popleft()
        if p in a.finals and q not in dfa.finals:
            word = []
            while (link := parent[key]) is not None:
                key, x = link
                if x is not EPSILON:
                    word.append(x)
            return tuple(reversed(word))
        for x, d, _ in adj[p]:
            if x is EPSILON or q is None:
                nxt = (d, q)
            else:
                nxt = (d, step[q].get(x))
            if nxt not in parent:
                parent[nxt] = (key, x)
                todo.append(nxt)
    return None
