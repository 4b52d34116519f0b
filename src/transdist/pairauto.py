"""Automata over pairs of output words: the common substrate of all deciders.

A PairAutomaton is a trimmed NFA whose edge labels are pairs (x, y) with each
component the empty word or a single letter.  Edges optionally carry the
input letter they originate from, so certificates can be mapped back to input
words of the original transducers.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .automata import (EPSILON, Nfa, accessible_states, coaccessible_states,
                       scc_decomposition, trim)
from .errors import InputError, IntegrityError, ResourceLimitError
from .words import INF, Alphabet, ExtendedNat

_UNSET = object()  # a gap range not computed yet (None means unbounded)

#: per-state (min, max) gaps: one tuple of minima, one of maxima
GapRange = tuple[tuple[int, ...], tuple[int, ...]]


class PairAutomaton:
    """Trimmed automaton over (B ∪ {ε}) × (B ∪ {ε}) edge labels.

    Its prefix and suffix gap ranges are computed on first use and kept
    (`delay_range`, `suffix_gap_range`), the way `Nfa.adj()` is.
    """

    __slots__ = ("nfa", "left_alphabet", "right_alphabet", "input_letters",
                 "_prefix_gaps", "_suffix_gaps")

    def __init__(self, nfa: Nfa, left_alphabet: Alphabet, right_alphabet: Alphabet,
                 input_letters: tuple[str | None, ...]):
        for _, (x, y), _ in nfa.transitions:
            if len(x) > 1 or len(y) > 1:
                raise InputError(f"pair label ({x!r},{y!r}) is not normalized")
        if len(input_letters) != len(nfa.transitions):
            raise InputError("one provenance entry per transition required")
        self.nfa = nfa
        self.left_alphabet = left_alphabet
        self.right_alphabet = right_alphabet
        self.input_letters = tuple(input_letters)
        self._prefix_gaps = self._suffix_gaps = _UNSET

    @property
    def n_states(self):
        return self.nfa.n_states

    def __repr__(self):
        return f"PairAutomaton({self.nfa!r})"

    @staticmethod
    def from_edges(n_states: int,
                   initials: Iterable[int],
                   finals: Iterable[int],
                   edges: Iterable[tuple],
                   left_alphabet: Alphabet,
                   right_alphabet: Alphabet,
                   do_trim: bool = True) -> "PairAutomaton":
        """Build from edges (src, (left word, right word), dst[, input letter]).

        Multi-letter components are split left-aligned through fresh
        intermediate states; the input letter stays on the first piece.
        With `do_trim`, the edge graph is trimmed before it is split: a
        split chain is useful exactly when its edge is, so only the kept
        edges are split.  Kept states are renumbered in order, followed by
        the fresh states of the kept edges in edge order, which is the
        numbering that splitting everything and then trimming gives.
        """
        edges = [edge if len(edge) > 3 else (*edge, None) for edge in edges]
        for _, (xw, yw), _, _ in edges:
            left_alphabet.validate(xw, "left output")
            right_alphabet.validate(yw, "right output")
        if do_trim:
            # the Nfa checks the state ids
            graph = Nfa(n_states, initials, finals,
                        [(src, None, dst) for src, _, dst, _ in edges])
            keep = sorted(accessible_states(graph)
                          & coaccessible_states(graph))
            new_of_old = {old: new for new, old in enumerate(keep)}
            edges = [(new_of_old[src], lbl, new_of_old[dst], letter)
                     for src, lbl, dst, letter in edges
                     if src in new_of_old and dst in new_of_old]
            initials = [new_of_old[s] for s in graph.initials
                        if s in new_of_old]
            finals = [new_of_old[s] for s in graph.finals if s in new_of_old]
            n_states = len(keep)
        transitions = []
        provenance = []
        next_state = n_states
        for src, (xw, yw), dst, letter in edges:
            steps = max(len(xw), len(yw), 1)
            cur = src
            for i in range(steps):
                nxt = dst if i == steps - 1 else next_state
                if nxt == next_state:
                    next_state += 1
                transitions.append(
                    (cur, (xw[i:i + 1], yw[i:i + 1]), nxt))
                provenance.append(letter if i == 0 else None)
                cur = nxt
        nfa = Nfa(next_state, initials, finals, transitions)
        return PairAutomaton(nfa, left_alphabet, right_alphabet,
                             tuple(provenance))


def edge_gap(label: tuple[str, str]) -> int:
    x, y = label
    return len(x) - len(y)


def enumerate_pairs(p: PairAutomaton, max_len: int) -> set[tuple[str, str]]:
    """All accepted pairs (u, v) with |u| <= max_len and |v| <= max_len."""
    adj = p.nfa.adj()
    start = {(s, "", "") for s in p.nfa.initials}
    seen = set(start)
    todo = deque(start)
    out = set()
    while todo:
        s, u, v = todo.popleft()
        if s in p.nfa.finals:
            out.add((u, v))
        for (x, y), d, _ in adj[s]:
            u2, v2 = u + x, v + y
            if len(u2) > max_len or len(v2) > max_len:
                continue
            key = (d, u2, v2)
            if key not in seen:
                seen.add(key)
                todo.append(key)
    return out


# ---------------------------------------------------------------------------
# delays
# ---------------------------------------------------------------------------

def delay_range(p: PairAutomaton) -> GapRange | None:
    """Per-state (min, max) achievable prefix gap, or None when unbounded.

    The gap set is unbounded exactly when some cycle has nonzero net gap.
    Within a strongly connected component all cycles have zero gap iff a
    consistent potential exists, and then the gap from an entry point to any
    member is the potential difference.  On a trimmed automaton whose
    accepted pairs all have equal lengths, every state's gap is one value
    (lo == hi): the delay of the state.  Computed once per automaton.
    """
    if p._prefix_gaps is _UNSET:
        p._prefix_gaps = _gap_range(p.nfa, reverse=False)
    return p._prefix_gaps


def suffix_gap_range(p: PairAutomaton) -> GapRange | None:
    """Per-state (min, max) of |x| - |y| over the outputs (x, y) of the paths
    from the state to a final state, or None when unbounded.

    A gap is a sum over edges and does not depend on the direction, so this
    is the prefix gap range of the reversed automaton, initials and finals
    swapped.  Computed once per automaton.
    """
    if p._suffix_gaps is _UNSET:
        p._suffix_gaps = _gap_range(p.nfa, reverse=True)
    return p._suffix_gaps


def _gap_range(nfa: Nfa, reverse: bool) -> GapRange | None:
    """`delay_range` of a pair-labelled automaton, or of its reversal.

    The ranges are tuples: the automaton keeps them for every later caller.
    """
    if reverse:
        nfa = Nfa(nfa.n_states, nfa.finals, nfa.initials,
                  [(d, lbl, s) for s, lbl, d in nfa.transitions])
    n = nfa.n_states
    if n == 0:
        return (), ()
    comp, comps = scc_decomposition(nfa)
    adj = nfa.adj()

    pot = [0] * n
    for members in comps:
        inside = set(members)
        root = members[0]
        pot[root] = 0
        seen = {root}
        todo = deque([root])
        while todo:
            s = todo.popleft()
            for lbl, d, _ in adj[s]:
                if d in inside and d not in seen:
                    seen.add(d)
                    pot[d] = pot[s] + edge_gap(lbl)
                    todo.append(d)
        if seen != inside:
            raise IntegrityError("SCC traversal incomplete")
    for s, lbl, d in nfa.transitions:
        if comp[s] == comp[d] and pot[d] != pot[s] + edge_gap(lbl):
            return None  # nonzero-gap cycle

    lo: list[int | None] = [None] * n
    hi: list[int | None] = [None] * n

    def offer(state, g):
        if lo[state] is None or g < lo[state]:
            lo[state] = g
        if hi[state] is None or g > hi[state]:
            hi[state] = g

    for s in nfa.initials:
        offer(s, 0)
    for members in comps:
        entries = [s for s in members if lo[s] is not None]
        if not entries:
            continue  # not reachable (untrimmed input)
        base_lo = min(lo[e] - pot[e] for e in entries)
        base_hi = max(hi[e] - pot[e] for e in entries)
        for s in members:
            lo[s] = base_lo + pot[s]
            hi[s] = base_hi + pot[s]
        for s in members:
            for lbl, d, _ in adj[s]:
                if comp[d] != comp[s]:
                    g = edge_gap(lbl)
                    offer(d, lo[s] + g)
                    offer(d, hi[s] + g)
    return (tuple(0 if v is None else v for v in lo),
            tuple(0 if v is None else v for v in hi))


def max_abs_delay(p: PairAutomaton) -> int | None:
    """Bound on |prefix gap| over all states, or None when unbounded."""
    rng = delay_range(p)
    if rng is None:
        return None
    lo, hi = rng
    if not lo:
        return 0
    return max(max(abs(v) for v in lo), max(abs(v) for v in hi))


def pair_length_diameter(p: PairAutomaton) -> ExtendedNat:
    """sup ||u|-|v|| over accepted pairs (final outputs already folded in)."""
    rng = delay_range(p)
    if rng is None:
        return INF
    lo, hi = rng
    gaps = [max(abs(lo[f]), abs(hi[f])) for f in p.nfa.finals]
    return ExtendedNat(max(gaps, default=0))


def is_length_preserving(p: PairAutomaton) -> bool:
    """True iff |u| = |v| for every accepted pair."""
    rng = delay_range(p)
    if rng is None:
        return False
    lo, hi = rng
    return all(lo[f] == 0 and hi[f] == 0 for f in p.nfa.finals)


# ---------------------------------------------------------------------------
# synchronization to letter-to-letter form
# ---------------------------------------------------------------------------

def synchronize(p: PairAutomaton, delay_bound: int, pad: str | None = None,
                ceiling: int = 10 ** 6) -> Nfa:
    """Resynchronize to letter-to-letter form, buffering at most delay_bound.

    With pad=None the result accepts exactly the zipped letter pairs of the
    length-preserving relation; with a pad symbol, shorter sides are padded
    at the end (the canonical encoding of a bounded-delay pair).  Edge labels
    of the returned automaton are (a, b) letter pairs (possibly with the pad
    symbol) or EPSILON for moves that emit nothing.
    """
    ids: dict[tuple, int] = {}
    transitions: list[tuple[int, object, int]] = []
    todo: deque[tuple] = deque()

    def get(cfg):
        if cfg not in ids:
            if len(ids) >= ceiling:
                raise ResourceLimitError(
                    f"synchronization exceeded ceiling of {ceiling} states")
            ids[cfg] = len(ids)
            todo.append(cfg)
        return ids[cfg]

    initials = [get((s, "", "")) for s in sorted(p.nfa.initials)]
    finals = set()
    adj = p.nfa.adj()
    while todo:
        cfg = todo.popleft()
        sid = ids[cfg]
        q, lbuf, rbuf = cfg
        if q is None:
            # padding tail: drain the remaining buffer against the pad symbol
            if not lbuf and not rbuf:
                finals.add(sid)
                continue
            if lbuf:
                label = (lbuf[0], pad)
                nxt = (None, lbuf[1:], "")
            else:
                label = (pad, rbuf[0])
                nxt = (None, "", rbuf[1:])
            transitions.append((sid, label, get(nxt)))
            continue
        if q in p.nfa.finals:
            if not lbuf and not rbuf:
                finals.add(sid)
            elif pad is not None:
                transitions.append((sid, EPSILON, get((None, lbuf, rbuf))))
        for (x, y), d, _ in adj[q]:
            lq, rq = lbuf + x, rbuf + y
            k = min(len(lq), len(rq))
            label = (lq[:k], rq[:k]) if k else EPSILON
            lq, rq = lq[k:], rq[k:]
            if max(len(lq), len(rq)) > delay_bound:
                continue  # beyond the promised delay bound: not on a valid path
            transitions.append((sid, label, get((d, lq, rq))))
    return Nfa(len(ids), initials, finals, transitions)


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def _unbalanced_pair_witness(p: PairAutomaton) -> tuple[str, str]:
    """Some accepted pair with |u| != |v| (requires that one exists)."""
    n = p.nfa.n_states
    bound = 4 * (n + 2)
    adj = p.nfa.adj()
    start = {(s, 0) for s in p.nfa.initials}
    parent: dict[tuple, tuple] = {c: None for c in start}
    todo = deque(start)
    hit = None
    while todo:
        s, g = todo.popleft()
        if s in p.nfa.finals and g != 0:
            hit = (s, g)
            break
        for lbl, d, _ in adj[s]:
            g2 = g + edge_gap(lbl)
            key = (d, g2)
            if abs(g2) <= bound and key not in parent:
                parent[key] = ((s, g), lbl)
                todo.append(key)
    if hit is None:
        raise IntegrityError("expected a length-unbalanced pair but found none")
    u, v = "", ""
    cur = hit
    while parent[cur] is not None:
        prev, (x, y) = parent[cur]
        u, v = x + u, y + v
        cur = prev
    return u, v


def identity_witness(p: PairAutomaton) -> tuple[str, str] | None:
    """A concrete accepted pair (u, v) with u != v, or None for identities.

    Follows the decision recipe for identity relations: check length
    preservation first, then resynchronize to letter-to-letter form and
    inspect the labels.
    """
    if p.nfa.n_states == 0:
        return None
    rng = delay_range(p)
    if rng is None or any(rng[0][f] or rng[1][f] for f in p.nfa.finals):
        return _unbalanced_pair_witness(p)
    lo, hi = rng
    nfa, _, _ = trim(synchronize(p, max(map(abs, lo + hi))))
    bad = None
    for t, (s, lbl, d) in enumerate(nfa.transitions):
        if lbl is not EPSILON and lbl[0] != lbl[1]:
            bad = t
            break
    if bad is None:
        return None
    src, (a, b), dst = nfa.transitions[bad]
    prefix = _emitted_along_shortest_path(nfa, nfa.initials, {src})
    suffix = _emitted_along_shortest_path(nfa, {dst}, nfa.finals)
    return prefix[0] + a + suffix[0], prefix[1] + b + suffix[1]


def _emitted_along_shortest_path(nfa: Nfa, sources, targets):
    """Concatenated (left, right) emissions along a shortest path."""
    adj = nfa.adj()
    parent = {s: None for s in sources}
    todo = deque(sources)
    goal = None
    targets = set(targets)
    while todo:
        s = todo.popleft()
        if s in targets:
            goal = s
            break
        for lbl, d, _ in adj[s]:
            if d not in parent:
                parent[d] = (s, lbl)
                todo.append(d)
    if goal is None:
        raise IntegrityError("no path found in trimmed automaton")
    u, v = "", ""
    cur = goal
    while parent[cur] is not None:
        prev, lbl = parent[cur]
        if lbl is not EPSILON:
            u, v = lbl[0] + u, lbl[1] + v
        cur = prev
    return u, v


def unbalanced_cycle(p: PairAutomaton) -> tuple[int, list[int]] | None:
    """(root state, transition cycle at root) with nonzero net length gap.

    Exists exactly when the prefix gaps are unbounded.  Found through the
    component potentials: a potential-inconsistent edge closes two candidate
    cycles whose net gaps differ, so one of them is nonzero.
    """
    nfa = p.nfa
    comp, comps = scc_decomposition(nfa)
    adj = nfa.adj()
    for members in comps:
        inside = set(members)
        root = members[0]
        pot = {root: 0}
        tree: dict[int, tuple[int, int] | None] = {root: None}
        order = deque([root])
        while order:
            s = order.popleft()
            for lbl, d, t in adj[s]:
                if d in inside and d not in pot:
                    pot[d] = pot[s] + edge_gap(lbl)
                    tree[d] = (s, t)
                    order.append(d)
        bad = None
        for s in members:
            for lbl, d, t in adj[s]:
                if d in inside and pot[d] != pot[s] + edge_gap(lbl):
                    bad = (s, t, d)
                    break
            if bad:
                break
        if bad is None:
            continue
        s, t, d = bad

        def tree_path(state):
            path = []
            while tree[state] is not None:
                state, tr = tree[state]
                path.append(tr)
            return path[::-1]

        back = component_path(p, inside, d, root)
        for cycle in (tree_path(s) + [t] + back, tree_path(d) + back):
            net = sum(edge_gap(nfa.transitions[tr][1]) for tr in cycle)
            if net != 0 and cycle:
                return root, cycle
        raise IntegrityError("potential conflict without an unbalanced cycle")
    return None


# ---------------------------------------------------------------------------
# paths and certificates
# ---------------------------------------------------------------------------

def find_pair_path(p: PairAutomaton, pair: tuple[str, str]) -> list[int] | None:
    """Transition indices of a shortest accepting path generating `pair`."""
    u, v = pair
    adj = p.nfa.adj()
    start = {(s, 0, 0) for s in p.nfa.initials}
    parent: dict[tuple, tuple] = {c: None for c in start}
    todo = deque(start)
    goal = None
    while todo:
        cfg = todo.popleft()
        s, i, j = cfg
        if s in p.nfa.finals and i == len(u) and j == len(v):
            goal = cfg
            break
        for (x, y), d, t in adj[s]:
            if u[i:i + len(x)] != x or v[j:j + len(y)] != y:
                continue
            nxt = (d, i + len(x), j + len(y))
            if nxt not in parent:
                parent[nxt] = (cfg, t)
                todo.append(nxt)
    if goal is None:
        return None
    path = []
    cur = goal
    while parent[cur] is not None:
        cur, t = parent[cur]
        path.append(t)
    return path[::-1]


def input_word_of_path(p: PairAutomaton, path: Iterable[int]) -> str:
    """Input word along a path (provenance-free edges contribute nothing)."""
    return "".join(c for c in (p.input_letters[t] for t in path) if c is not None)


def output_pair_of_path(p: PairAutomaton, path: Iterable[int]) -> tuple[str, str]:
    u, v = "", ""
    for t in path:
        x, y = p.nfa.transitions[t][1]
        u += x
        v += y
    return u, v


def component_path(p: PairAutomaton, inside: set[int], source: int,
                   target: int) -> list[int]:
    """Transition indices of a shortest path source -> target whose states
    all lie in `inside`, a strongly connected component of p."""
    if source == target:
        return []
    adj = p.nfa.adj()
    parent = {source: None}
    todo = deque([source])
    while todo and target not in parent:
        s = todo.popleft()
        for _, d, t in adj[s]:
            if d in inside and d not in parent:
                parent[d] = (s, t)
                todo.append(d)
    if target not in parent:
        raise IntegrityError("component not strongly connected")
    path = []
    cur = target
    while parent[cur] is not None:
        cur, t = parent[cur]
        path.append(t)
    return path[::-1]


def shortest_prefix_path(p: PairAutomaton, target: int) -> list[int]:
    """Transition indices of a shortest path from the initial states to target."""
    adj = p.nfa.adj()
    parent = {s: None for s in p.nfa.initials}
    todo = deque(p.nfa.initials)
    while todo:
        s = todo.popleft()
        if s == target:
            path = []
            while parent[s] is not None:
                s, t = parent[s]
                path.append(t)
            return path[::-1]
        for _, d, t in adj[s]:
            if d not in parent:
                parent[d] = (s, t)
                todo.append(d)
    raise IntegrityError(f"state {target} unreachable in trimmed automaton")


def shortest_suffix_path(p: PairAutomaton, source: int) -> list[int]:
    """Transition indices of a shortest path from source to a final state."""
    radj = p.nfa.radj()
    parent = {f: None for f in p.nfa.finals}
    todo = deque(p.nfa.finals)
    while todo:
        s = todo.popleft()
        if s == source:
            path = []
            while parent[s] is not None:
                s, t = parent[s]
                path.append(t)
            return path
        for _, pred, t in radj[s]:
            if pred not in parent:
                parent[pred] = (s, t)
                todo.append(pred)
    raise IntegrityError(f"state {source} not coaccessible in trimmed automaton")


def wrap_pair_automaton(p: PairAutomaton, pre: tuple[str, str],
                        post: tuple[str, str]) -> PairAutomaton:
    """Pair automaton for pre · L(p) · post (pointwise concatenation)."""
    n = p.nfa.n_states
    edges = []
    for t, (s, lbl, d) in enumerate(p.nfa.transitions):
        edges.append((s + 1, lbl, d + 1, p.input_letters[t]))
    # fresh start 0 and fresh final n+1
    for s in p.nfa.initials:
        edges.append((0, pre, s + 1, None))
    for f in p.nfa.finals:
        edges.append((f + 1, post, n + 1, None))
    return PairAutomaton.from_edges(n + 2, [0], [n + 1], edges,
                                    p.left_alphabet, p.right_alphabet)
