"""Automata over pairs of output words: the common substrate of all deciders.

A PairAutomaton is a trimmed NFA whose edge labels are pairs (x, y) with each
component the empty word or a single letter.  Edges optionally carry the
input letter they originate from, so certificates can be mapped back to input
words of the original transducers.

Every question about delays is read off one component analysis per
automaton (`components`): the strongly connected components with their gap
potentials, summed along the links of Tarjan's depth-first tree, and the
first edge that contradicts them.  The prefix and suffix gap ranges
propagate over it in the two directions, and an unbalanced cycle is read
off its conflicting edge.  Gaps under other additive letter weights
(`weighted_gap_sup`) take potentials of their own from the same links.

A path whose outputs differ in length is read off the same analysis where
the gaps are unbounded: its conflicting edge and component tree give it
(`unbalanced_path`).  Shortest paths between states (`shortest_prefix_path`,
`shortest_suffix_path`, `component_path`) come from one forward
breadth-first walk each, with parent pointers over `Nfa.adj`.  Only
searches over configurations, (state, gap) pairs or positions in a pair of
words, take the generic `shortest_path`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from .automata import EPSILON, Nfa, scc_decomposition
from .errors import InputError, IntegrityError, ResourceLimitError
from .words import INF, Alphabet, ExtendedNat

_UNSET = object()  # a gap range not computed yet (None means unbounded)

#: per-state (min, max) gaps: one tuple of minima, one of maxima
GapRange = tuple[tuple[int, ...], tuple[int, ...]]


class PairAutomaton:
    """Trimmed automaton over (B ∪ {ε}) × (B ∪ {ε}) edge labels.

    Its component analysis, its prefix and suffix gap ranges and its
    weighted gap sups are computed on first use and kept (`components`,
    `delay_range`, `suffix_gap_range`, `weighted_gap_sup`), the way
    `Nfa.adj()` is.  Built only by `_split_edges`, behind `from_edges`, so
    the constructor checks nothing: every label is already split into
    letters, with one input letter (or None) per transition.
    """

    __slots__ = ("nfa", "left_alphabet", "right_alphabet", "input_letters",
                 "_components", "_prefix_gaps", "_suffix_gaps",
                 "_weighted_gaps")

    def __init__(self, nfa: Nfa, left_alphabet: Alphabet, right_alphabet: Alphabet,
                 input_letters: tuple[str | None, ...]):
        self.nfa = nfa
        self.left_alphabet = left_alphabet
        self.right_alphabet = right_alphabet
        self.input_letters = input_letters
        self._components = None
        self._prefix_gaps = self._suffix_gaps = _UNSET
        self._weighted_gaps: dict[tuple, int | None] = {}

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

        Validated: an output letter outside its alphabet or a state id
        outside 0..n_states - 1 raises InputError.  Every build from outside
        data comes here (`fileio`, the spheres and identities of
        `relations`), and so, with `do_trim` off, do the automata read off
        the edges of a pair automaton: the summands of
        `conjugacy.sumfree_decompose` and the loops of `component_loops`,
        both trim as built.
        `joint_product`, whose labels the `Transducer` constructor checked,
        and `relations.compose` and `relations.union`, whose labels come
        from pair automata, number their states themselves and split their
        edges with `_split_edges` unchecked.
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
        initials, finals = list(initials), list(finals)
        for s in (*initials, *finals):
            if not 0 <= s < n_states:
                raise InputError(f"state {s} out of range 0..{n_states - 1}")
        for src, _, dst, _ in edges:
            if not (0 <= src < n_states and 0 <= dst < n_states):
                raise InputError(f"edge ({src},...,{dst}) out of range")
        if do_trim:
            live = [ahead and behind for ahead, behind in zip(
                _reached(n_states, initials, edges),
                _reached(n_states, finals, edges, backward=True))]
            if not all(live):
                n_states, initials, finals, edges = _keep_live(
                    live, initials, finals, edges)
        return _split_edges(n_states, initials, finals, edges, left_alphabet,
                            right_alphabet)


def _split_edges(n_states: int, initials: Iterable[int], finals: Iterable[int],
                 edges: list[tuple], left_alphabet: Alphabet,
                 right_alphabet: Alphabet) -> PairAutomaton:
    """The pair automaton of edges (src, label, dst, letter) on states
    0..n_states - 1, each label split into one-letter pieces: the unchecked
    end of `PairAutomaton.from_edges`."""
    transitions = []
    provenance = []
    next_state = n_states
    for src, (xw, yw), dst, letter in edges:
        steps = max(len(xw), len(yw))
        if steps <= 1:
            transitions.append((src, (xw, yw), dst))
            provenance.append(letter)
            continue
        cur = src
        for i in range(steps):
            nxt = dst if i == steps - 1 else next_state
            if nxt == next_state:
                next_state += 1
            transitions.append((cur, (xw[i:i + 1], yw[i:i + 1]), nxt))
            provenance.append(letter if i == 0 else None)
            cur = nxt
    nfa = Nfa(next_state, initials, finals, transitions)
    return PairAutomaton(nfa, left_alphabet, right_alphabet, tuple(provenance))


def _reached(n_states: int, starts: Iterable[int], edges: list[tuple],
            backward: bool = False) -> list[bool]:
    """Per state: is it reached from `starts` along edges (src, label, dst,
    letter), or, `backward`, does it reach one of them?"""
    succ: list[list[int]] = [[] for _ in range(n_states)]
    for src, _, dst, _ in edges:
        if backward:
            succ[dst].append(src)
        else:
            succ[src].append(dst)
    seen = [False] * n_states
    todo = []
    for s in starts:
        if not seen[s]:
            seen[s] = True
            todo.append(s)
    while todo:
        for d in succ[todo.pop()]:
            if not seen[d]:
                seen[d] = True
                todo.append(d)
    return seen


def _keep_live(live: list[bool], initials: Iterable[int], finals: Iterable[int],
              edges: list[tuple]) -> tuple[int, list[int], list[int], list]:
    """Drop the states that are not live, with their edges, and renumber the
    rest in order: (state count, initials, finals, edges)."""
    new_of_old = [0] * len(live)
    n = 0
    for s, ok in enumerate(live):
        if ok:
            new_of_old[s] = n
            n += 1
    return (n, [new_of_old[s] for s in initials if live[s]],
            [new_of_old[s] for s in finals if live[s]],
            [(new_of_old[src], lbl, new_of_old[dst], letter)
             for src, lbl, dst, letter in edges if live[src] and live[dst]])


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
# components and delays
# ---------------------------------------------------------------------------

class Components(NamedTuple):
    """The strongly connected components of a pair automaton with their gap
    potentials (`components`).

    comp[s] is the component of state s; comps lists each component's
    states in the order of Tarjan's depth-first walk, root first, and
    components in topological order; tree[s] is the transition by which the
    walk reached s, None at a root (`automata.scc_decomposition`).  pot[s]
    is the gap of the tree path from the root to s.  conflict is the first
    transition (src, transition, dst) inside a component whose gap differs
    from pot[dst] - pot[src], in transition order, or None.  gaps[t] is the
    gap |x| - |y| of transition t with label (x, y).
    """
    comp: list[int]
    comps: list[list[int]]
    pot: list[int]
    tree: list[int | None]
    conflict: tuple[int, int, int] | None
    gaps: list[int]


def components(p: PairAutomaton) -> Components:
    """The component analysis of p, computed once per automaton.

    Every cycle has net gap 0 exactly when conflict is None: a conflicting
    edge closes two cycles through the root whose net gaps differ, and
    without one every closed walk inside a component sums potential
    differences to 0.
    """
    if p._components is None:
        comp, comps, tree = scc_decomposition(p.nfa)
        gaps = _transition_gaps(p)
        pot, conflict = _potentials(p, comp, comps, tree, gaps)
        p._components = Components(comp, comps, pot, tree, conflict, gaps)
    return p._components


def _transition_gaps(p: PairAutomaton, weight: dict[str, int] | None = None
                     ) -> list[int]:
    """Per transition of p with label (x, y), the gap |x| - |y|, or with a
    letter weight f, f(x) - f(y)."""
    if weight is None:
        return [len(x) - len(y) for _, (x, y), _ in p.nfa.transitions]
    return [weight.get(x, 0) - weight.get(y, 0)
            for _, (x, y), _ in p.nfa.transitions]


def _potentials(p: PairAutomaton, comp, comps, tree, gaps
                ) -> tuple[list[int], tuple[int, int, int] | None]:
    """Per-state sums of the per-transition weights `gaps` along the tree
    path from the component's root, and the first transition (src,
    transition, dst) inside a component that contradicts them, or None.
    `comps` lists a state's tree parent before it, so one pass suffices."""
    transitions = p.nfa.transitions
    pot = [0] * len(comp)
    for members in comps:
        for s in members:
            t = tree[s]
            if t is not None:
                src = transitions[t][0]
                if comp[src] != comp[s]:
                    raise IntegrityError("SCC traversal incomplete")
                pot[s] = pot[src] + gaps[t]
    for t, (s, _, d) in enumerate(transitions):
        if comp[s] == comp[d] and pot[d] - pot[s] != gaps[t]:
            return pot, (s, t, d)
    return pot, None


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
        p._prefix_gaps = _gap_range(p, reverse=False)
    return p._prefix_gaps


def suffix_gap_range(p: PairAutomaton) -> GapRange | None:
    """Per-state (min, max) of |x| - |y| over the outputs (x, y) of the paths
    from the state to a final state, or None when unbounded.

    A gap is a sum over edges and does not depend on the direction, so this
    is the prefix gap range of the reversed automaton, initials and finals
    swapped.  Computed once per automaton.
    """
    if p._suffix_gaps is _UNSET:
        p._suffix_gaps = _gap_range(p, reverse=True)
    return p._suffix_gaps


def _gap_range(p: PairAutomaton, reverse: bool) -> GapRange | None:
    """Prefix gap ranges, propagated forward from the initial states over
    the components in topological order, or suffix gap ranges, propagated
    backward from the final states in reverse order.

    Both read the one component analysis: backward, the potentials of the
    reversed edges are the negated ones.  The ranges are tuples: the
    automaton keeps them for every later caller.
    """
    comp, comps, pot, _, conflict, gaps = components(p)
    if conflict is not None:
        return None  # nonzero-gap cycle
    lo, hi = _propagate(p, comp, comps, pot, gaps, reverse)
    return (tuple(0 if v is None else v for v in lo),
            tuple(0 if v is None else v for v in hi))


def _propagate(p: PairAutomaton, comp, comps, pot, gaps, reverse: bool):
    """Per-state (min, max) lists of the summed per-transition weight `gaps`
    over the paths from an initial state (or, with `reverse`, to a final
    state), given each component's consistent potentials `pot` for that
    weight; None at a state no path reaches."""
    if reverse:
        starts, order, links, sign = (p.nfa.finals, reversed(comps),
                                       p.nfa.radj(), -1)
    else:
        starts, order, links, sign = p.nfa.initials, comps, p.nfa.adj(), 1
    n = p.nfa.n_states
    lo: list[int | None] = [None] * n
    hi: list[int | None] = [None] * n
    for s in starts:
        lo[s] = hi[s] = 0
    for members in order:
        base_lo = base_hi = None
        for s in members:
            if lo[s] is not None:
                shift = sign * pot[s]
                if base_lo is None or lo[s] - shift < base_lo:
                    base_lo = lo[s] - shift
                if base_hi is None or hi[s] - shift > base_hi:
                    base_hi = hi[s] - shift
        if base_lo is None:
            continue  # not reached (untrimmed input)
        here = comp[members[0]]
        for s in members:
            shift = sign * pot[s]
            low = lo[s] = base_lo + shift
            high = hi[s] = base_hi + shift
            for _, d, t in links[s]:
                if comp[d] != here:
                    # low <= high: s offers d low + gap and high + gap
                    gap = gaps[t]
                    if lo[d] is None or low + gap < lo[d]:
                        lo[d] = low + gap
                    if hi[d] is None or high + gap > hi[d]:
                        hi[d] = high + gap
    return lo, hi


def weighted_gap_sup(p: PairAutomaton, weight: dict[str, int]) -> int | None:
    """sup |f(u) - f(v)| over the accepted pairs (u, v), for the additive
    letter weight f(w) = sum of weight[c] over the letters c of w (letters
    it omits weigh 0), or None when that sup is unbounded.

    Sums the f-gaps along the tree links of the one component analysis, as
    `components` sums the length gaps, and checks every edge inside a
    component against those potentials.  An edge that disagrees closes a cycle of nonzero net f-gap, which pumps
    the gap without bound; otherwise one forward propagation over the
    components, as for the prefix gaps, gives the least and greatest f-gap
    reaching each final state.  Computed once per automaton and weight.
    """
    key = tuple(sorted(weight.items()))
    if key in p._weighted_gaps:
        return p._weighted_gaps[key]
    comp, comps, _, tree, _, _ = components(p)
    gaps = _transition_gaps(p, weight)
    pot, conflict = _potentials(p, comp, comps, tree, gaps)
    if conflict is not None:
        sup = None  # a cycle of nonzero net f-gap
    else:
        lo, hi = _propagate(p, comp, comps, pot, gaps, reverse=False)
        sup = max((max(abs(lo[f]), abs(hi[f])) for f in p.nfa.finals
                   if lo[f] is not None), default=0)
    p._weighted_gaps[key] = sup
    return sup


def output_letters(p: PairAutomaton) -> list[str]:
    """The letters of p's two output alphabets, sorted."""
    return sorted(set(p.left_alphabet) | set(p.right_alphabet))


def unbalanced_letter(p: PairAutomaton) -> str | None:
    """The first output letter whose count differs between the two sides of
    some accepted pair (a nonzero `weighted_gap_sup` of its count), or None
    when every accepted pair is a permutation pair."""
    return next((c for c in output_letters(p)
                 if weighted_gap_sup(p, {c: 1}) != 0), None)


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
                ceiling: int = 10 ** 6) -> tuple[Nfa, list[int | None]]:
    """Resynchronize to letter-to-letter form, buffering at most delay_bound.

    With pad=None the result accepts exactly the zipped letter pairs of the
    length-preserving relation; with a pad symbol, shorter sides are padded
    at the end (the canonical encoding of a bounded-delay pair).  Edge labels
    of the returned automaton are (a, b) letter pairs (possibly with the pad
    symbol) or EPSILON for moves that emit nothing.

    Returns the automaton with, per transition, the index of the transition
    of p it reads (None for the moves that drain the buffer into the pad).
    """
    ids: dict[tuple, int] = {}
    transitions: list[tuple[int, object, int]] = []
    reads: list[int | None] = []
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
            reads.append(None)
            continue
        if q in p.nfa.finals:
            if not lbuf and not rbuf:
                finals.add(sid)
            elif pad is not None:
                transitions.append((sid, EPSILON, get((None, lbuf, rbuf))))
                reads.append(None)
        for (x, y), d, t in adj[q]:
            lq, rq = lbuf + x, rbuf + y
            k = min(len(lq), len(rq))
            label = (lq[:k], rq[:k]) if k else EPSILON
            lq, rq = lq[k:], rq[k:]
            if max(len(lq), len(rq)) > delay_bound:
                continue  # beyond the promised delay bound: not on a valid path
            transitions.append((sid, label, get((d, lq, rq))))
            reads.append(t)
    return Nfa(len(ids), initials, finals, transitions), reads


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def _unbalanced_pair_witness(p: PairAutomaton,
                             weight: dict[str, int] | None = None
                             ) -> list[int]:
    """Transition indices of a shortest accepting path whose outputs differ
    in length, or with a letter weight f, whose outputs differ in f
    (`weighted_gap_sup`); requires that one exists.

    A breadth-first search over (state, gap) pairs.  `unbalanced_path`
    runs it only when the length gaps are bounded or a letter weight is
    given.
    """
    gaps = (components(p).gaps if weight is None
            else _transition_gaps(p, weight))
    bound = 4 * (p.nfa.n_states + 2)
    adj = p.nfa.adj()
    finals = p.nfa.finals

    def step(cfg):
        s, g = cfg
        for _, d, t in adj[s]:
            g2 = g + gaps[t]
            if abs(g2) <= bound:
                yield t, (d, g2)

    path = shortest_path([(s, 0) for s in p.nfa.initials], step,
                         lambda cfg: cfg[0] in finals and cfg[1] != 0)
    if path is None:
        raise IntegrityError("expected an unbalanced pair but found none")
    return path


def unbalanced_path(p: PairAutomaton,
                    weight: dict[str, int] | None = None) -> list[int]:
    """Transition indices of an accepting path whose outputs differ in
    length, or with a letter weight f, in f; requires that one exists.

    With unbounded length gaps, read off the conflicting edge s -> d of the
    component analysis, in the component of root r: the shortest prefix
    path to r, the tree path from r to d and the shortest suffix path from
    d, or the same with the tree path to s and the edge in place of the
    tree path to d.  Their gaps differ by pot(s) + gap(s -> d) - pot(d) != 0,
    so one of them is nonzero; no cycle and no way back is needed.  With
    bounded gaps or a weight, a shortest such path
    (`_unbalanced_pair_witness`).
    """
    if weight is not None:
        return _unbalanced_pair_witness(p, weight)
    comp, comps, pot, tree, conflict, gaps = components(p)
    if conflict is None:
        return _unbalanced_pair_witness(p)
    s, t, d = conflict
    prefix = shortest_prefix_path(p, comps[comp[s]][0])
    suffix = shortest_suffix_path(p, d)
    ends = sum(gaps[u] for u in prefix + suffix)
    middle = (_tree_path(p, tree, d) if ends + pot[d] != 0
              else _tree_path(p, tree, s) + [t])
    return prefix + middle + suffix


def _tree_path(p: PairAutomaton, tree: list[int | None], state: int
               ) -> list[int]:
    """Transition indices of the path to state along `tree`, the transition
    into each state (None at a root, as in `Components.tree`)."""
    path = []
    while tree[state] is not None:
        path.append(tree[state])
        state = p.nfa.transitions[tree[state]][0]
    return path[::-1]


def delay_conflict(p: PairAutomaton, start: tuple[str, str]
                   ) -> tuple[list[list[int]], int] | None:
    """None when every accepting path of p, read after the words `start`
    (left, right), ends with the delay of `start`; else (prefixes, state):
    paths to `state` of which one does not, however it is completed.  p
    must be trimmed.  From ('', '') this decides identity, from ('', z)
    u·z = z·v for all pairs (u, v) of p, and from (z, '') z·u = v·z.

    One breadth-first walk over p's states.  A delay, the free-group word
    x⁻¹·y of the words read so far, is kept as buffers: the unmatched tail
    of the side ahead.  An edge (a, b) maps δ to a⁻¹·δ·b, one to one, so if
    all accepting paths end with one delay, all paths to a state leave one
    delay, with buffers since the sides agree (Béal, Carton, Prieur and
    Sakarovitch, "Squaring transducers").  Each state keeps the buffers of
    the first path to it; a conflict is an edge that spells two letters at
    one position, which no completion mends, an edge into a state holding
    other buffers, whose two paths end apart once completed alike, or a
    final state whose buffers are not `start`.  Without one, every path
    leaves its state's buffers, by induction on its length.
    """
    buffers = dict.fromkeys(p.nfa.initials, start)
    tree: list[int | None] = [None] * p.nfa.n_states
    order = list(buffers)
    for s in order:  # breadth-first: order grows behind s
        if s in p.nfa.finals and buffers[s] != start:
            return [_tree_path(p, tree, s)], s
        lbuf, rbuf = buffers[s]
        for (x, y), d, t in p.nfa.adj()[s]:
            left, right = lbuf + x, rbuf + y
            k = min(len(left), len(right))
            if left[:k] != right[:k]:
                return [_tree_path(p, tree, s) + [t]], d
            held = left[k:], right[k:]
            if d not in buffers:
                buffers[d], tree[d] = held, t
                order.append(d)
            elif buffers[d] != held:
                return [_tree_path(p, tree, d),
                        _tree_path(p, tree, s) + [t]], d
    return None


def identity_witness(p: PairAutomaton) -> tuple[str, str] | None:
    """A concrete accepted pair (u, v) with u != v, or None for identities;
    p must be trimmed.

    p is an identity exactly when every accepted path ends with an empty
    delay (`delay_conflict` from ('', '')); a conflict's paths, each
    completed by one shortest suffix, spell the pair.
    """
    conflict = delay_conflict(p, ("", ""))
    if conflict is None:
        return None
    prefixes, state = conflict
    suffix = shortest_suffix_path(p, state)
    for prefix in prefixes:
        u, v = output_pair_of_path(p, prefix + suffix)
        if u != v:
            return u, v
    raise IntegrityError("a delay conflict without a pair of different words")


def component_loops(p: PairAutomaton, state: int
                    ) -> tuple[PairAutomaton, list[int]]:
    """The loops of p at `state` inside its component: the pair automaton
    of the component's transitions, in p's order, with the i-th state of
    the component in `Components.comps` as its state i and `state` its one
    initial and final state, and per transition the one of p it copies."""
    comp, comps = components(p)[:2]
    members = comps[comp[state]]
    local = {s: i for i, s in enumerate(members)}
    adj = p.nfa.adj()
    inside = sorted(t for s in members for _, d, t in adj[s] if d in local)
    edges = [(local[s], lbl, local[d])
             for s, lbl, d in (p.nfa.transitions[t] for t in inside)]
    loops = PairAutomaton.from_edges(
        len(members), [local[state]], [local[state]], edges, p.left_alphabet,
        p.right_alphabet, do_trim=False)
    return loops, inside


def unbalanced_cycle(p: PairAutomaton) -> tuple[int, list[int]] | None:
    """(root state, transition cycle at root) with nonzero net length gap.

    Exists exactly when the prefix gaps are unbounded.  Read off the
    component analysis: its conflicting edge s -> d closes two cycles at the
    root of their component, the tree path to s, the edge and a shortest
    way back from d, and the tree path to d and the same way back.  Their
    net gaps differ, so one of them is nonzero.
    """
    comp, comps, _, tree, conflict, gaps = components(p)
    if conflict is None:
        return None
    s, t, d = conflict
    members = comps[comp[s]]
    root = members[0]
    back = component_path(p, set(members), d, root)
    for cycle in (_tree_path(p, tree, s) + [t] + back,
                  _tree_path(p, tree, d) + back):
        net = sum(gaps[tr] for tr in cycle)
        if net != 0 and cycle:
            return root, cycle
    raise IntegrityError("potential conflict without an unbalanced cycle")


# ---------------------------------------------------------------------------
# paths and certificates
# ---------------------------------------------------------------------------

def shortest_path(sources: Iterable, successors, is_goal) -> list[int] | None:
    """Transition indices of a shortest path from a source to a goal node,
    or None when no goal is reachable.

    One breadth-first search with parent pointers over hashable nodes:
    `successors(node)` yields (transition index, next node) pairs, and the
    first node taken off the queue that `is_goal` accepts ends the search.
    Sources are queued in the order given.
    """
    parent = dict.fromkeys(sources)
    todo = deque(parent)
    while todo:
        node = todo.popleft()
        if is_goal(node):
            path = []
            while parent[node] is not None:
                node, t = parent[node]
                path.append(t)
            return path[::-1]
        for t, nxt in successors(node):
            if nxt not in parent:
                parent[nxt] = node, t
                todo.append(nxt)
    return None


def _bfs_path(adj, sources: Iterable[int], goals, inside=None
              ) -> list[int] | None:
    """Transition indices of a shortest path along the adjacency lists
    `adj` (`Nfa.adj`) from a state of `sources` to a state in `goals`,
    through states in `inside` only when it is given, or None.

    One breadth-first walk with parent pointers that ends at the first goal
    it reaches; sources are taken in the order given.
    """
    parent = dict.fromkeys(sources)
    for s in parent:
        if s in goals:
            return []
    order = list(parent)
    for s in order:  # breadth-first: order grows behind s
        for _, d, t in adj[s]:
            if d in parent or (inside is not None and d not in inside):
                continue
            parent[d] = s, t
            if d in goals:
                path = []
                while parent[d] is not None:
                    d, t = parent[d]
                    path.append(t)
                return path[::-1]
            order.append(d)
    return None


def find_pair_path(p: PairAutomaton, pair: tuple[str, str]) -> list[int] | None:
    """Transition indices of a shortest accepting path generating `pair`."""
    u, v = pair
    adj = p.nfa.adj()
    finals = p.nfa.finals

    def step(cfg):
        s, i, j = cfg
        for (x, y), d, t in adj[s]:
            if u[i:i + len(x)] == x and v[j:j + len(y)] == y:
                yield t, (d, i + len(x), j + len(y))

    return shortest_path([(s, 0, 0) for s in p.nfa.initials], step,
                         lambda cfg: (cfg[0] in finals and cfg[1] == len(u)
                                      and cfg[2] == len(v)))


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
    path = _bfs_path(p.nfa.adj(), (source,), (target,), inside)
    if path is None:
        raise IntegrityError("component not strongly connected")
    return path


def shortest_prefix_path(p: PairAutomaton, target: int) -> list[int]:
    """Transition indices of a shortest path from the initial states to target."""
    path = _bfs_path(p.nfa.adj(), p.nfa.initials, (target,))
    if path is None:
        raise IntegrityError(f"state {target} unreachable in trimmed automaton")
    return path


def shortest_suffix_path(p: PairAutomaton, source: int) -> list[int]:
    """Transition indices of a shortest path from source to a final state,
    searched forward to the nearest one."""
    path = _bfs_path(p.nfa.adj(), (source,), p.nfa.finals)
    if path is None:
        raise IntegrityError(
            f"state {source} not coaccessible in trimmed automaton")
    return path
