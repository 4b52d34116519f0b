import random
from collections import deque

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_joint_machine
from transdist import automata, pairauto
from transdist.automata import Nfa, scc_decomposition
from transdist.errors import InputError
from transdist.oracles import accepts, edge_gap, trim
from transdist.pairauto import (
    PairAutomaton, _unbalanced_pair_witness, component_loops, component_path,
    components, delay_range, enumerate_pairs, find_pair_path,
    identity_witness, input_word_of_path, is_length_preserving,
    max_abs_delay, output_pair_of_path, pair_length_diameter,
    shortest_prefix_path, shortest_suffix_path, suffix_gap_range,
    synchronize, unbalanced_cycle, unbalanced_letter, unbalanced_path,
    weighted_gap_sup,
)
from transdist.transducers import joint_product
from transdist.words import INF, Alphabet

AB = Alphabet("ab")
B01 = Alphabet("01")


def pa(edges, n, initials=(0,), finals=None, alphabet=AB):
    finals = list(initials) if finals is None else finals
    return PairAutomaton.from_edges(n, initials, finals, edges, alphabet, alphabet)


def loop_relation(x, y, alphabet=AB):
    """Pair automaton of {(x, y)}* rooted at a single state."""
    return pa([(0, (x, y), 0)], 1, alphabet=alphabet)


# ---------------------------------------------------------------------------
# construction and enumeration
# ---------------------------------------------------------------------------

def test_normalization_splits_left_aligned():
    p = pa([(0, ("ab", "b"), 0)], 1)
    labels = sorted(lbl for _, lbl, _ in p.nfa.transitions)
    assert labels == [("a", "b"), ("b", "")]
    assert enumerate_pairs(p, 4) == {("", ""), ("ab", "b"), ("abab", "bb")}


def test_enumerate_pairs_identity_star():
    p = pa([(0, ("a", "a"), 0), (0, ("b", "b"), 0)], 1)
    pairs = enumerate_pairs(p, 2)
    assert ("ab", "ab") in pairs and ("", "") in pairs
    assert all(u == v for u, v in pairs)


def test_provenance_tracks_first_piece():
    p = PairAutomaton.from_edges(2, [0], [1], [(0, ("ab", ""), 1, "x")], AB, AB)
    path = find_pair_path(p, ("ab", ""))
    assert path is not None
    assert input_word_of_path(p, path) == "x"
    assert output_pair_of_path(p, path) == ("ab", "")


def split_then_trim(n_states, initials, finals, edges, do_trim=True):
    """Reference for `from_edges`: split every edge into one-letter pieces
    through fresh states, then trim the split automaton."""
    transitions, provenance = [], []
    next_state = n_states
    for src, (xw, yw), dst, letter in edges:
        steps = max(len(xw), len(yw), 1)
        cur = src
        for i in range(steps):
            nxt = dst if i == steps - 1 else next_state
            if nxt == next_state:
                next_state += 1
            transitions.append((cur, (xw[i:i + 1], yw[i:i + 1]), nxt))
            provenance.append(letter if i == 0 else None)
            cur = nxt
    nfa = Nfa(next_state, initials, finals, transitions)
    if not do_trim:
        return nfa, tuple(provenance)
    nfa, _, kept = trim(nfa)
    return nfa, tuple(provenance[t] for t in kept)


@st.composite
def edge_graphs(draw):
    """Random edge lists with multi-letter labels, optional input letters,
    and states that are unreachable, dead, or both."""
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    label = st.text("ab", max_size=3)
    edges = draw(st.lists(st.tuples(state, st.tuples(label, label), state,
                                    st.sampled_from([None, "x", "y"])),
                          max_size=10))
    return (n, draw(st.sets(state, max_size=2)), draw(st.sets(state)), edges)


# state 1 is unreachable and state 3 is dead, both behind multi-letter edges
DEAD_ENDS = (4, {0}, {2}, [(0, ("ab", "a"), 2, "x"), (1, ("aaa", ""), 2, "y"),
                          (2, ("b", "bb"), 0, "y"), (2, ("abab", "b"), 3, "x")])


@settings(max_examples=200, deadline=None)
@given(graph=edge_graphs(), do_trim=st.booleans())
@example(graph=DEAD_ENDS, do_trim=True)
@example(graph=DEAD_ENDS, do_trim=False)
def test_from_edges_matches_split_then_trim(graph, do_trim):
    n, initials, finals, edges = graph
    p = PairAutomaton.from_edges(n, initials, finals, edges, AB, AB,
                                 do_trim=do_trim)
    nfa, provenance = split_then_trim(n, initials, finals, edges, do_trim)
    assert p.n_states == nfa.n_states
    assert p.nfa.initials == nfa.initials
    assert p.nfa.finals == nfa.finals
    assert p.nfa.transitions == nfa.transitions
    assert p.input_letters == provenance


@pytest.mark.parametrize("do_trim", [True, False])
@pytest.mark.parametrize("initials, finals, edges", [
    ([2], [1], [(0, ("a", "a"), 1)]),
    ([-1], [1], [(0, ("a", "a"), 1)]),
    ([0], [2], [(0, ("a", "a"), 1)]),
    ([0], [-1], [(0, ("a", "a"), 1)]),
    ([0], [1], [(2, ("a", "a"), 1)]),
    ([0], [1], [(-1, ("a", "a"), 1)]),
    # a split chain's fresh state would take the id 2
    ([0], [1], [(0, ("ab", "a"), 2)]),
    ([0], [1], [(0, ("a", "a"), -1)]),
])
def test_from_edges_rejects_out_of_range_states(initials, finals, edges,
                                                do_trim):
    with pytest.raises(InputError, match="out of range"):
        PairAutomaton.from_edges(2, initials, finals, edges, AB, AB,
                                 do_trim=do_trim)


@pytest.mark.parametrize("do_trim", [True, False])
@pytest.mark.parametrize("label, right", [
    (("ac", "a"), AB), (("a", "ab"), B01), (("", "2"), B01)])
def test_from_edges_rejects_output_letters_outside_the_alphabets(
        label, right, do_trim):
    with pytest.raises(InputError, match="outside alphabet"):
        PairAutomaton.from_edges(2, [0], [1], [(0, label, 1)], AB, right,
                                 do_trim=do_trim)


# ---------------------------------------------------------------------------
# delays
# ---------------------------------------------------------------------------

# a state's delay is its one prefix gap (lo == hi of delay_range)

def test_compute_delays_identity_zero():
    p = pa([(0, ("a", "a"), 0)], 1)
    assert delay_range(p) == ((0,), (0,))


def test_compute_delays_inconsistent_on_unbalanced_loop():
    p = loop_relation("a", "")
    assert delay_range(p) is None
    assert pair_length_diameter(p) == INF


def test_compute_delays_alternating():
    # (a, ε)(ε, a) loop through two states: delays 0 and 1
    p = pa([(0, ("a", ""), 1), (1, ("", "a"), 0)], 2)
    lo, hi = delay_range(p)
    assert lo == hi and sorted(lo) == [0, 1]


def test_delay_range_handles_parallel_paths():
    # two parallel edges with different gaps, both rebalanced before the final:
    # per-state delays at state 1 are not unique, yet every pair is balanced
    edges = [(0, ("a", ""), 1), (0, ("", "a"), 1),
             (1, ("", "a"), 2), (1, ("a", ""), 2),
             (2, ("b", "b"), 3)]
    p = PairAutomaton.from_edges(4, [0], [3], edges, AB, AB)
    rng = delay_range(p)
    assert rng is not None                    # no cycle: bounded
    lo, hi = rng
    assert lo[1] != hi[1]                     # conflicting per-state delay
    assert pair_length_diameter(p) == 2       # (aa·b, b) realizes gap 2... check
    pairs = enumerate_pairs(p, 4)
    assert max(abs(len(u) - len(v)) for u, v in pairs) == 2


def path_gap_extremes(p, max_edges):
    """Max ||u|-|v|| over accepting paths with at most max_edges edges."""
    frontier = {(s, 0) for s in p.nfa.initials}
    adj = p.nfa.adj()
    best = None
    seen = set(frontier)
    for _ in range(max_edges + 1):
        nxt = set()
        for s, g in frontier:
            if s in p.nfa.finals and (best is None or abs(g) > best):
                best = abs(g)
            for lbl, d, _ in adj[s]:
                key = (d, g + (len(lbl[0]) - len(lbl[1])))
                if key not in seen:
                    seen.add(key)
                    nxt.add(key)
        frontier = nxt
    return best


def test_delay_range_matches_path_search_random():
    rng = random.Random(23)
    outs = ["", "a", "b", "ab"]
    for _ in range(80):
        n = rng.randrange(1, 4)
        edges = [(rng.randrange(n), (rng.choice(outs), rng.choice(outs)),
                  rng.randrange(n)) for _ in range(rng.randrange(1, 5))]
        p = PairAutomaton.from_edges(n, [0], [rng.randrange(n)], edges, AB, AB)
        if p.nfa.n_states == 0:
            continue
        dia = pair_length_diameter(p)
        seen = path_gap_extremes(p, 24)
        if seen is None:
            continue
        if dia.is_finite:
            assert seen <= dia.value()
            assert path_gap_extremes(p, 4 * p.nfa.n_states + 8) == dia.value()
        else:
            assert seen > 8 or path_gap_extremes(p, 40) > seen


def suffix_gaps(p, state):
    """Every |x| - |y| over the outputs (x, y) of paths from state to a final.

    Walks (state, gap) configurations, finitely many when the gaps are
    bounded, so the walk enumerates every accepted suffix's gap.
    """
    adj = p.nfa.adj()
    seen = {(state, 0)}
    todo = [(state, 0)]
    while todo:
        s, g = todo.pop()
        for lbl, d, _ in adj[s]:
            key = (d, g + len(lbl[0]) - len(lbl[1]))
            if key not in seen:
                seen.add(key)
                todo.append(key)
    return {g for s, g in seen if s in p.nfa.finals}


# about six in seven random pairs have unbounded gaps and are filtered out
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(rng=st.randoms(use_true_random=False))
def test_suffix_gap_range_matches_enumerated_suffixes(rng):
    pair = random_joint_machine(rng, max_states=4, max_out_len=3)
    assume(pair is not None)
    p = joint_product(*pair)
    assume(delay_range(p) is not None)
    lo, hi = suffix_gap_range(p)
    for q in range(p.nfa.n_states):
        gaps = suffix_gaps(p, q)
        assert (lo[q], hi[q]) == (min(gaps), max(gaps)), q


def test_suffix_gap_range_is_none_on_an_unbalanced_loop():
    assert suffix_gap_range(pa([(0, ("a", ""), 0)], 1)) is None


def reference_gap_range(nfa, reverse):
    """Gap ranges as one decomposition per direction computes them: the
    suffix ranges are the prefix ranges of the reversed automaton."""
    if reverse:
        nfa = Nfa(nfa.n_states, nfa.finals, nfa.initials,
                  [(d, lbl, s) for s, lbl, d in nfa.transitions])
    n = nfa.n_states
    if n == 0:
        return (), ()
    comp, comps, _ = scc_decomposition(nfa)
    adj = nfa.adj()
    pot = [0] * n
    for members in comps:
        inside = set(members)
        seen = {members[0]}
        todo = deque([members[0]])
        while todo:
            s = todo.popleft()
            for lbl, d, _ in adj[s]:
                if d in inside and d not in seen:
                    seen.add(d)
                    pot[d] = pot[s] + edge_gap(lbl)
                    todo.append(d)
    for s, lbl, d in nfa.transitions:
        if comp[s] == comp[d] and pot[d] != pot[s] + edge_gap(lbl):
            return None
    lo, hi = [None] * n, [None] * n

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
            continue
        base_lo = min(lo[e] - pot[e] for e in entries)
        base_hi = max(hi[e] - pot[e] for e in entries)
        for s in members:
            lo[s], hi[s] = base_lo + pot[s], base_hi + pot[s]
        for s in members:
            for lbl, d, _ in adj[s]:
                if comp[d] != comp[s]:
                    offer(d, lo[s] + edge_gap(lbl))
                    offer(d, hi[s] + edge_gap(lbl))
    return (tuple(0 if v is None else v for v in lo),
            tuple(0 if v is None else v for v in hi))


def reference_components(nfa):
    """Tarjan's algorithm written recursively: (components in topological
    order, each listing its root first and its states in discovery order;
    per state the transition that discovered it, None at a component's
    root)."""
    adj = nfa.adj()
    index, low, tree = {}, {}, {}
    stack, comps = [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for _, w, t in adj[v]:
            if w not in index:
                tree[w] = t
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            at = stack.index(v)
            comps.append(stack[at:])
            del stack[at:]
            tree[v] = None

    for v in range(nfa.n_states):
        if v not in index:
            visit(v)
    return comps[::-1], tree


def reference_unbalanced_cycle(p):
    """The unbalanced cycle as a walk of its own finds it: a recursive
    depth-first decomposition, the gap of each state's tree path from its
    component's root, the first transition inside a component that
    contradicts them, and a breadth-first way back inside the component."""
    nfa = p.nfa
    comps, tree = reference_components(nfa)
    adj = nfa.adj()
    inside = {s: set(members) for members in comps for s in members}

    def tree_path(state):
        path = []
        while tree[state] is not None:
            path.append(tree[state])
            state = nfa.transitions[tree[state]][0]
        return path[::-1]

    def pot(state):
        return sum(edge_gap(nfa.transitions[tr][1]) for tr in tree_path(state))

    bad = next(((s, t, d) for t, (s, lbl, d) in enumerate(nfa.transitions)
                if d in inside[s] and pot(d) != pot(s) + edge_gap(lbl)), None)
    if bad is None:
        return None
    s, t, d = bad
    root = next(r for r in inside[s] if tree[r] is None)
    parent = {d: None}
    todo = deque([d])
    while root not in parent:
        x = todo.popleft()
        for _, y, tr in adj[x]:
            if y in inside[s] and y not in parent:
                parent[y] = (x, tr)
                todo.append(y)
    back, cur = [], root
    while parent[cur] is not None:
        cur, tr = parent[cur]
        back.append(tr)
    back.reverse()
    for cycle in (tree_path(s) + [t] + back, tree_path(d) + back):
        if cycle and sum(edge_gap(nfa.transitions[tr][1])
                         for tr in cycle) != 0:
            return root, cycle
    raise AssertionError("potential conflict without an unbalanced cycle")


def chains(p, path, start, end):
    """Does the transition path run from start to end?"""
    states = [start] + [p.nfa.transitions[t][2] for t in path]
    return (states[-1] == end
            and all(p.nfa.transitions[t][0] == s for t, s in zip(path, states)))


# a conflicting edge inside the second component, found after the first
# component's consistent cycle; state 3 is unreachable and state 4 dead
TWO_LOOPS = (5, {0}, {2}, [(0, ("ab", "ba"), 0, "x"), (0, ("a", ""), 1, "y"),
                           (1, ("ab", "b"), 2, "x"), (2, ("", "a"), 1, "y"),
                           (1, ("b", "b"), 2, "y"), (3, ("aa", ""), 1, "x"),
                           (2, ("a", "a"), 4, None)])


@settings(max_examples=300, deadline=None)
@given(graph=edge_graphs(), do_trim=st.booleans())
@example(graph=TWO_LOOPS, do_trim=True)
@example(graph=TWO_LOOPS, do_trim=False)
@example(graph=DEAD_ENDS, do_trim=False)
def test_component_analysis_matches_a_decomposition_per_question(graph,
                                                                 do_trim):
    n, initials, finals, edges = graph
    p = PairAutomaton.from_edges(n, initials, finals, edges, AB, AB,
                                 do_trim=do_trim)
    comps, tree = reference_components(p.nfa)
    analysis = components(p)
    assert analysis.comps == comps
    assert analysis.tree == [tree[s] for s in range(p.n_states)]
    assert delay_range(p) == reference_gap_range(p.nfa, False)
    assert suffix_gap_range(p) == reference_gap_range(p.nfa, True)
    cycle = unbalanced_cycle(p)
    assert cycle == reference_unbalanced_cycle(p)
    assert (cycle is None) == (delay_range(p) is not None)
    if cycle is not None:
        root, path = cycle
        assert path and chains(p, path, root, root)
        u, v = output_pair_of_path(p, path)
        assert len(u) != len(v)


WEIGHTS = [{"a": 1}, {"b": 1}, {"a": 1, "b": -1}, {"a": 1, "b": 1}]


def final_weighted_gaps(p, weight, cap):
    """(overflow, gaps): every f(x) - f(y) over the accepted (x, y) whose
    prefixes all keep |f-gap| <= cap, and whether some prefix passed it.

    With every cycle of net f-gap 0 each prefix gap is a sum of potential
    differences and edges between components, at most 2 per state, so a
    cap of 2·n_states is never passed; a cycle of nonzero net f-gap on a
    trimmed automaton passes any cap.
    """
    def gap(lbl):
        return sum(weight.get(c, 0) for c in lbl[0]) - sum(
            weight.get(c, 0) for c in lbl[1])

    adj = p.nfa.adj()
    seen = {(s, 0) for s in p.nfa.initials}
    todo = list(seen)
    overflow = False
    while todo:
        s, g = todo.pop()
        for lbl, d, _ in adj[s]:
            key = (d, g + gap(lbl))
            if abs(key[1]) > cap:
                overflow = True
            elif key not in seen:
                seen.add(key)
                todo.append(key)
    return overflow, {g for s, g in seen if s in p.nfa.finals}


@settings(max_examples=200, deadline=None)
@given(graph=edge_graphs())
@example(graph=TWO_LOOPS)
@example(graph=DEAD_ENDS)
def test_weighted_gap_sup_matches_walked_gaps(graph):
    n, initials, finals, edges = graph
    p = PairAutomaton.from_edges(n, initials, finals, edges, AB, AB)
    for weight in WEIGHTS:
        overflow, gaps = final_weighted_gaps(p, weight,
                                             2 * p.nfa.n_states)
        sup = weighted_gap_sup(p, weight)
        if sup is None:
            assert overflow, weight
        else:
            assert not overflow, weight
            assert sup == max(map(abs, gaps), default=0), weight
    # the length weight is the length diameter
    length = weighted_gap_sup(p, {"a": 1, "b": 1})
    assert pair_length_diameter(p) == (INF if length is None else length)


def test_weighted_gap_sup_examples():
    # (ab, ba)*: equal counts, so every weight's gap is 0
    assert [weighted_gap_sup(loop_relation("ab", "ba"), w)
            for w in WEIGHTS] == [0, 0, 0, 0]
    # (a, b)*: the count of a and of b drift apart, the length does not
    assert [weighted_gap_sup(loop_relation("a", "b"), w)
            for w in WEIGHTS] == [None, None, None, 0]
    # (aab, a) once: a is 1 apart, b 1, a - b 0, length 2
    once = pa([(0, ("aab", "a"), 1)], 2, finals=[1])
    assert [weighted_gap_sup(once, w) for w in WEIGHTS] == [1, 1, 0, 2]


def test_weighted_gap_sup_reuses_the_component_analysis(monkeypatch):
    runs = []
    real = automata.scc_decomposition

    def recording(nfa):
        runs.append(nfa)
        return real(nfa)

    monkeypatch.setattr(pairauto, "scc_decomposition", recording)
    p = pa([(0, ("ab", "b"), 1), (1, ("b", "a"), 1), (1, ("a", "b"), 1)],
           2, finals=[1])
    delay_range(p)
    for weight in WEIGHTS * 2:
        weighted_gap_sup(p, weight)
    assert runs == [p.nfa]
    assert len(p._weighted_gaps) == len(WEIGHTS)


def test_length_gaps_are_listed_once_per_automaton(monkeypatch):
    # the component analysis keeps the per-transition length gaps, which the
    # gap ranges of both directions and the search for an unbalanced pair
    # then read; a letter weight lists its own
    listed = []
    real = pairauto._transition_gaps

    def listing(p, weight=None):
        listed.append((p, weight))
        return real(p, weight)

    monkeypatch.setattr(pairauto, "_transition_gaps", listing)
    # bounded gaps, and a pair whose lengths differ: (ab, b) then (b, b)*
    p = pa([(0, ("ab", "b"), 1), (1, ("b", "b"), 1)], 2, finals=[1])
    assert delay_range(p) is not None
    assert suffix_gap_range(p) is not None
    assert unbalanced_path(p) == _unbalanced_pair_witness(p)
    assert listed == [(p, None)]
    weighted_gap_sup(p, {"a": 1})
    assert listed == [(p, None), (p, {"a": 1})]


def bfs_distance(sources, successors, is_goal):
    """Fewest steps from a source to a goal node, or None."""
    dist = dict.fromkeys(sources, 0)
    todo = deque(dist)
    while todo:
        node = todo.popleft()
        if is_goal(node):
            return dist[node]
        for nxt in successors(node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                todo.append(nxt)
    return None


@settings(max_examples=200, deadline=None)
@given(graph=edge_graphs())
@example(graph=TWO_LOOPS)
@example(graph=DEAD_ENDS)
def test_shortest_paths_chain_and_are_shortest(graph):
    n, initials, finals, edges = graph
    p = PairAutomaton.from_edges(n, initials, finals, edges, AB, AB)
    adj, radj = p.nfa.adj(), p.nfa.radj()

    def forward(s):
        return [d for _, d, _ in adj[s]]

    for q in range(p.n_states):
        path = shortest_prefix_path(p, q)
        assert any(chains(p, path, s, q) for s in p.nfa.initials)
        assert len(path) == bfs_distance(p.nfa.initials, forward,
                                         lambda s: s == q)
        path = shortest_suffix_path(p, q)
        assert any(chains(p, path, q, f) for f in p.nfa.finals)
        assert len(path) == bfs_distance(p.nfa.finals,
                                         lambda s: [d for _, d, _ in radj[s]],
                                         lambda s: s == q)
    for members in scc_decomposition(p.nfa)[1]:
        inside = set(members)
        for a in members:
            for b in members:
                path = component_path(p, inside, a, b)
                assert chains(p, path, a, b)
                assert all(p.nfa.transitions[t][2] in inside for t in path)
                assert len(path) == bfs_distance(
                    [a], lambda s: [d for d in forward(s) if d in inside],
                    lambda s: s == b)
    for u, v in sorted(enumerate_pairs(p, 4)):
        path = find_pair_path(p, (u, v))
        assert any(chains(p, path, s, f)
                   for s in p.nfa.initials for f in p.nfa.finals)
        assert output_pair_of_path(p, path) == (u, v)

        def step(cfg):
            s, i, j = cfg
            return [(d, i + len(x), j + len(y)) for (x, y), d, _ in adj[s]
                    if u[i:i + len(x)] == x and v[j:j + len(y)] == y]

        assert len(path) == bfs_distance(
            [(s, 0, 0) for s in p.nfa.initials], step,
            lambda cfg: cfg in {(f, len(u), len(v)) for f in p.nfa.finals})
    rng = delay_range(p)
    if rng is None or any(rng[0][f] or rng[1][f] for f in p.nfa.finals):
        for path in (_unbalanced_pair_witness(p), unbalanced_path(p)):
            assert any(chains(p, path, s, f)
                       for s in p.nfa.initials for f in p.nfa.finals)
            u, v = output_pair_of_path(p, path)
            assert len(u) != len(v)


def test_length_preserving_examples():
    assert is_length_preserving(loop_relation("a", "b"))
    assert not is_length_preserving(pa([(0, ("a", ""), 1)], 2, finals=[1]))
    # balanced loop through two states is length-preserving overall
    p = pa([(0, ("a", ""), 1), (1, ("", "a"), 0)], 2)
    assert is_length_preserving(p)


def test_max_abs_delay_counts_intermediate_states():
    p = pa([(0, ("a", ""), 1), (1, ("", "a"), 0)], 2)
    assert max_abs_delay(p) == 1


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def test_identity_on_identity_star():
    p = pa([(0, ("a", "a"), 0)], 1)
    assert identity_witness(p) is None


def test_identity_false_on_single_swap():
    p = PairAutomaton.from_edges(2, [0], [1], [(0, ("a", "b"), 1)], AB, AB)
    w = identity_witness(p)
    assert w == ("a", "b")


def test_identity_on_multiletter_blocks():
    p = pa([(0, ("ab", "ab"), 0), (0, ("aab", "aab"), 0)], 1)
    assert identity_witness(p) is None
    for u, v in enumerate_pairs(p, 6):
        assert u == v


def test_identity_witness_reads_diagonal_labels_without_synchronizing(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("a diagonal automaton was analysed")

    monkeypatch.setattr(pairauto, "delay_range", refuse)
    monkeypatch.setattr(pairauto, "synchronize", refuse)
    diagonal = [(0, ("a", "a"), 1), (1, ("", ""), 0), (1, ("b", "b"), 1)]
    assert identity_witness(pa(diagonal, 2, finals=[1])) is None
    assert identity_witness(pa([], 1)) is None
    # one off-diagonal label is found by the same walk
    assert identity_witness(pa(diagonal + [(1, ("b", "a"), 1)], 2,
                               finals=[1])) == ("ab", "aa")


def test_identity_witness_unbalanced():
    p = loop_relation("a", "")
    u, v = identity_witness(p)
    assert len(u) != len(v)
    assert find_pair_path(p, (u, v)) is not None


def test_identity_witness_is_accepted_pair():
    edges = [(0, ("a", "a"), 1), (1, ("b", "a"), 0)]
    p = pa(edges, 2)
    u, v = identity_witness(p)
    assert u != v
    assert find_pair_path(p, (u, v)) is not None


def test_unbalanced_letter_and_its_shortest_pair():
    assert unbalanced_letter(loop_relation("ab", "ba")) is None
    assert unbalanced_letter(pa([], 1)) is None
    # both letters' counts differ on (ab, bb), and a comes first
    p = pa([(0, ("ab", "bb"), 0), (0, ("b", "b"), 0)], 1)
    assert unbalanced_letter(p) == "a"
    path = _unbalanced_pair_witness(p, {"a": 1})
    assert output_pair_of_path(p, path) == ("ab", "bb")
    assert chains(p, path, 0, 0)


def test_component_loops_copy_the_loops_at_a_state():
    # a chain into the component {1, 2}, which an edge leaves for 3
    edges = [(0, ("a", ""), 1), (1, ("b", "b"), 2), (2, ("a", "a"), 1),
             (2, ("b", "a"), 2), (1, ("", "a"), 3)]
    p = pa(edges, 4, finals=[3])
    loops, copied = component_loops(p, 2)
    comp, comps = components(p)[:2]
    members = comps[comp[2]]
    assert copied == [t for t, (s, _, d) in enumerate(p.nfa.transitions)
                      if comp[s] == comp[d] == comp[2]]
    assert list(loops.nfa.transitions) == [
        (members.index(s), lbl, members.index(d))
        for s, lbl, d in (p.nfa.transitions[t] for t in copied)]
    assert loops.nfa.initials == loops.nfa.finals == {members.index(2)}
    assert enumerate_pairs(loops, 5) == enumerate_pairs(
        pa(edges, 4, initials=(2,)), 5)


# ---------------------------------------------------------------------------
# synchronize
# ---------------------------------------------------------------------------

def test_synchronize_letter_to_letter_labels():
    p = pa([(0, ("a", ""), 1), (1, ("", "b"), 0)], 2)
    sync, _ = synchronize(p, max_abs_delay(p))
    labels = {lbl for _, lbl, _ in sync.transitions if lbl is not None}
    assert labels == {("a", "b")}


def test_synchronize_padded_accepts_canonical_encoding():
    p = PairAutomaton.from_edges(2, [0], [1], [(0, ("ab", "b"), 1)], AB, AB)
    sync, _ = synchronize(p, 2, pad="#")
    assert accepts(sync, [("a", "b"), ("b", "#")])
    assert not accepts(sync, [("a", "b")])
    assert not accepts(sync, [("a", "#"), ("b", "b")])


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_paths_and_their_input_words():
    edges = [(0, ("a", "b"), 1, "x"), (1, ("b", "a"), 0, "y")]
    p = PairAutomaton.from_edges(2, [0], [0], edges, AB, AB)
    path = find_pair_path(p, ("ab", "ba"))
    assert input_word_of_path(p, path) == "xy"
    assert shortest_prefix_path(p, 0) == []
    assert shortest_suffix_path(p, 1) != []
