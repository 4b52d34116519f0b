import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transdist.automata import (
    Nfa, determinize, epsilon_closure, equiv_unambiguous, included,
    is_unambiguous, language_difference_witness, scc_decomposition,
)
from transdist.errors import PreconditionError, ResourceLimitError
from transdist.oracles import accepts, enumerate_words, trim


def words(alphabet, n):
    out = [()]
    for k in range(1, n + 1):
        out.extend(itertools.product(alphabet, repeat=k))
    return out


def brute_language(nfa, max_len, alphabet):
    return {w for w in words(alphabet, max_len) if accepts(nfa, w)}


# ---------------------------------------------------------------------------
# trim
# ---------------------------------------------------------------------------

def test_trim_removes_unreachable_sink():
    # state 2 is a sink that cannot reach a final state, state 3 is unreachable
    nfa = Nfa(4, [0], [1], [(0, "a", 1), (0, "b", 2), (2, "a", 2), (3, "a", 1)])
    trimmed, old_states, kept = trim(nfa)
    assert trimmed.n_states == 2
    assert old_states == [0, 1]
    assert kept == [0]
    for n in range(0, 6):
        assert brute_language(trimmed, n, "ab") == brute_language(nfa, n, "ab")


def test_trim_is_idempotent_on_trim_automata():
    nfa = Nfa(2, [0], [1], [(0, "a", 1), (1, "b", 0)])
    trimmed, old_states, kept = trim(nfa)
    assert trimmed.n_states == 2
    assert old_states == [0, 1]
    assert kept == [0, 1]
    again, _, _ = trim(trimmed)
    assert again.transitions == trimmed.transitions


def test_trim_empty_language():
    nfa = Nfa(2, [0], [], [(0, "a", 1)])
    trimmed, _, _ = trim(nfa)
    assert trimmed.n_states == 0
    assert trimmed.transitions == ()


def test_trim_language_preserving_random():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 6)
        trans = [(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                 for _ in range(rng.randrange(0, 10))]
        nfa = Nfa(n, [0], [rng.randrange(n)], trans)
        trimmed, _, _ = trim(nfa)
        assert brute_language(trimmed, 6, "ab") == brute_language(nfa, 6, "ab")


# ---------------------------------------------------------------------------
# SCC
# ---------------------------------------------------------------------------

def test_scc_two_cycles_in_topological_order():
    # 0<->1 feeds 2<->3
    nfa = Nfa(4, [0], [3], [(0, "a", 1), (1, "a", 0), (1, "b", 2),
                            (2, "a", 3), (3, "a", 2)])
    comp, comps, _ = scc_decomposition(nfa)
    assert comp[0] == comp[1]
    assert comp[2] == comp[3]
    assert comp[0] < comp[2]
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]
    for s, _, d in nfa.transitions:
        assert comp[s] <= comp[d]


def test_scc_respects_edge_direction_random():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 9)
        trans = [(rng.randrange(n), "a", rng.randrange(n))
                 for _ in range(rng.randrange(0, 2 * n))]
        nfa = Nfa(n, [0], [0], trans)
        comp, comps, _ = scc_decomposition(nfa)
        assert sorted(s for c in comps for s in c) == list(range(n))
        for s, _, d in nfa.transitions:
            assert comp[s] <= comp[d]


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 7))
    state = st.integers(0, n - 1)
    return Nfa(n, [0], [0], draw(st.lists(st.tuples(state, st.just("a"), state),
                                          max_size=14)))


@settings(max_examples=300, deadline=None)
@given(nfa=edge_lists())
def test_scc_tree_links_span_each_component_in_discovery_order(nfa):
    comp, comps, tree = scc_decomposition(nfa)
    assert sorted(s for c in comps for s in c) == list(range(nfa.n_states))
    for c, members in enumerate(comps):
        assert all(comp[s] == c for s in members)
        assert tree[members[0]] is None  # the root is listed first
        for i, s in enumerate(members[1:], 1):
            src, _, dst = nfa.transitions[tree[s]]
            assert dst == s and src in members[:i]
    for s, _, d in nfa.transitions:  # topological order
        assert comp[s] <= comp[d]


def test_scc_deep_chain_no_recursion_limit():
    n = 5000
    trans = [(i, "a", i + 1) for i in range(n - 1)]
    nfa = Nfa(n, [0], [n - 1], trans)
    comp, comps, _ = scc_decomposition(nfa)
    assert len(comps) == n


# ---------------------------------------------------------------------------
# unambiguity
# ---------------------------------------------------------------------------

def test_dfa_is_unambiguous():
    dfa = Nfa(2, [0], [1], [(0, "a", 1), (1, "a", 0)])
    assert is_unambiguous(dfa)


def test_two_parallel_paths_are_ambiguous():
    # two distinct paths both accept "a"
    nfa = Nfa(4, [0], [2, 3], [(0, "a", 2), (0, "a", 3)])
    trimmed, _, _ = trim(nfa)
    assert not is_unambiguous(trimmed)


def test_union_sharing_ab_is_ambiguous():
    # a*b and ab*: the word ab has a run through each branch
    nfa = Nfa(5, [0], [2, 4], [
        (0, "a", 1), (1, "a", 1), (1, "b", 2),    # a a* b
        (0, "a", 3), (3, "b", 4), (4, "b", 4),    # a b b*
    ])
    assert not is_unambiguous(nfa)


def test_duplicate_parallel_transitions_are_ambiguous():
    # two identical transitions are two distinct runs
    nfa = Nfa(2, [0], [1], [(0, "a", 1), (0, "a", 1)])
    assert not is_unambiguous(nfa)


def test_unambiguous_nondeterministic_machine():
    # nondeterministic guess of the last letter; still one accepting run
    nfa = Nfa(3, [0], [2], [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "$", 2)])
    assert is_unambiguous(nfa)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def abstar_dfa():
    return Nfa(2, [0], [0, 1], [(0, "a", 0), (0, "b", 1), (1, "b", 1)])


def test_equiv_identical():
    a = abstar_dfa()
    assert equiv_unambiguous(a, a)


def test_equiv_ab_star_vs_ab_star_ab():
    # (ab)* versus (ab)*ab: shortest witness is the empty word... the spec's
    # example pair differs first on "": adjust to machines differing at "ab".
    abstar = Nfa(2, [0], [0], [(0, "a", 1), (1, "b", 0)])
    abplus = Nfa(3, [0], [2], [(0, "a", 1), (1, "b", 2), (2, "a", 1)])
    w = language_difference_witness(abstar, abplus)
    assert w == ()  # (ab)* accepts epsilon, (ab)+ does not
    abstar_shifted = Nfa(2, [0], [0], [(0, "a", 1), (1, "b", 0)])
    same = Nfa(4, [0], [0, 3], [(0, "a", 1), (1, "b", 3), (3, "a", 1)])
    # same language built differently: still (ab)*
    assert equiv_unambiguous(abstar_shifted, same)


def test_equiv_two_unambiguous_automata_for_astarbstar():
    a1 = Nfa(2, [0], [0, 1], [(0, "a", 0), (0, "b", 1), (1, "b", 1)])
    a2 = Nfa(3, [0], [0, 1, 2], [(0, "a", 1), (1, "a", 1), (0, "b", 2),
                                 (1, "b", 2), (2, "b", 2)])
    assert is_unambiguous(a2)
    assert equiv_unambiguous(a1, a2)


def test_equiv_rejects_ambiguous_input():
    amb = Nfa(3, [0], [1, 2], [(0, "a", 1), (0, "a", 2)])
    with pytest.raises(PreconditionError):
        equiv_unambiguous(amb, abstar_dfa())


def test_equiv_unambiguous_vs_brute_force_random():
    rng = random.Random(17)
    done = 0
    while done < 25:
        n = rng.randrange(1, 6)
        trans = {(rng.randrange(n), rng.choice("ab")): rng.randrange(n)
                 for _ in range(rng.randrange(1, 2 * n + 1))}
        m = rng.randrange(1, 6)
        trans2 = {(rng.randrange(m), rng.choice("ab")): rng.randrange(m)
                  for _ in range(rng.randrange(1, 2 * m + 1))}
        a = Nfa(n, [0], [rng.randrange(n)], [(s, x, d) for (s, x), d in trans.items()])
        b = Nfa(m, [0], [rng.randrange(m)], [(s, x, d) for (s, x), d in trans2.items()])
        la = brute_language(a, 10, "ab")
        lb = brute_language(b, 10, "ab")
        wit = language_difference_witness(a, b)
        if wit is None:
            assert la == lb
        else:
            assert (wit in la) != (wit in lb)
            if la == lb:  # only possible when the shortest witness is longer
                assert len(wit) > 10
        if la != lb:  # the witness is a shortest word of the difference
            assert wit is not None and len(wit) == min(map(len, la ^ lb))
        done += 1


def test_witness_on_nondeterministic_unambiguous_machines():
    # ends-with-a versus ends-with-b over {a,b}
    ends_a = Nfa(2, [0], [1], [(0, "a", 0), (0, "b", 0), (0, "a", 1)])
    ends_b = Nfa(2, [0], [1], [(0, "a", 0), (0, "b", 0), (0, "b", 1)])
    assert is_unambiguous(ends_a) and is_unambiguous(ends_b)
    w = language_difference_witness(ends_a, ends_b)
    assert w is not None and len(w) == 1


# ---------------------------------------------------------------------------
# subset construction and language inclusion
# ---------------------------------------------------------------------------

def test_included_in_a_determinization():
    ends_a = Nfa(2, [0], [1], [(0, "a", 0), (0, "b", 0), (0, "a", 1)])
    dfa = determinize(ends_a)
    assert included(ends_a, dfa) is None
    sigma_star = Nfa(1, [0], [0], [(0, "a", 0), (0, "b", 0)])
    assert included(sigma_star, dfa) == ()


def test_determinize_ceiling():
    # "5th letter from the end is an a" needs 2^5 subsets
    k = 5
    trans = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    trans += [(i, x, i + 1) for i in range(1, k) for x in "ab"]
    nfa = Nfa(k + 1, [0], [k], trans)
    with pytest.raises(ResourceLimitError):
        determinize(nfa, ceiling=8)
    assert determinize(nfa).n_states == 2 ** k


def test_guided_determinization_builds_what_the_guide_reads():
    # the automaton of test_determinize_ceiling guided by a^k a*: only the
    # subsets {0}, {0, 1}, ..., {0, ..., k} are reached, so the ceiling of 8
    # is not passed
    k = 5
    trans = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    trans += [(i, x, i + 1) for i in range(1, k) for x in "ab"]
    nfa = Nfa(k + 1, [0], [k], trans)
    guide = Nfa(k + 1, [0], [k],
                [(i, "a", i + 1) for i in range(k)] + [(k, "a", k)])
    dfa = determinize(nfa, ceiling=8, within=guide)
    assert dfa.n_states == k + 1
    assert all(x == "a" for _, x, _ in dfa.transitions)
    assert included(guide, dfa) is None
    shorter = Nfa(k, [0], [k - 1], [(i, "a", i + 1) for i in range(k - 1)]
                  + [(k - 1, "a", k - 1)])
    found = included(shorter, determinize(nfa, within=shorter))
    assert found == ("a",) * (k - 1)


def reference_determinize(nfa, alphabet):
    """Textbook subset construction: breadth-first, letters in order."""
    start = epsilon_closure(nfa, nfa.initials)
    ids, order, transitions = {start: 0}, [start], []
    for cur in order:
        for x in alphabet:
            moved = {d for s in cur for y, d, _ in nfa.adj()[s] if y == x}
            if not moved:
                continue
            nxt = epsilon_closure(nfa, moved)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            transitions.append((ids[cur], x, ids[nxt]))
    finals = [i for i, subset in enumerate(order) if subset & nfa.finals]
    return len(order), finals, transitions


@st.composite
def small_nfas(draw):
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    transitions = draw(st.lists(st.tuples(state, st.sampled_from([None, "a", "b"]),
                                          state), max_size=12))
    initials = draw(st.sets(state, max_size=2))
    finals = draw(st.sets(state))
    return Nfa(n, initials, finals, transitions)


@settings(max_examples=200, deadline=None)
@given(nfa=small_nfas())
def test_determinize_random_epsilon_nfas(nfa):
    dfa = determinize(nfa)
    assert dfa.is_deterministic()
    for w in words("ab", 5):
        assert accepts(dfa, w) == accepts(nfa, w), w
    want = reference_determinize(nfa, nfa.labels())
    assert (dfa.n_states, sorted(dfa.finals), list(dfa.transitions)) == want


@settings(max_examples=200, deadline=None)
@given(a=small_nfas(), b=small_nfas())
def test_included_random_epsilon_nfas(a, b):
    w = included(a, determinize(b))
    if w is not None:
        assert accepts(a, w) and not accepts(b, w)
    else:
        assert all(accepts(b, v) for v in words("ab", 5) if accepts(a, v))


@settings(max_examples=300, deadline=None)
@given(a=small_nfas(), b=small_nfas())
def test_guided_determinization_answers_as_the_full_one(a, b):
    full = determinize(b)
    guided = determinize(b, within=a)
    assert guided.is_deterministic()
    # the walk over the guided DFA is the walk over the full one, renamed
    assert included(a, guided) == included(a, full)
    # every guided subset is a subset of the full construction: the words
    # that reach a guided state all reach one full state, distinct guided
    # states reach distinct full states, and finality and edges agree
    image = {0: 0}
    todo = [0]
    full_step = [dict() for _ in range(full.n_states)]
    for s, x, d in full.transitions:
        full_step[s][x] = d
    for s in todo:
        for x, d, _ in guided.adj()[s]:
            target = full_step[image[s]].get(x)
            assert target is not None, (s, x)
            if d not in image:
                image[d] = target
                todo.append(d)
            assert image[d] == target
    assert len(image) == guided.n_states
    assert len(set(image.values())) == guided.n_states
    assert all((s in guided.finals) == (f in full.finals)
               for s, f in image.items())


def test_enumerate_words_with_epsilon_edges():
    nfa = Nfa(3, [0], [2], [(0, "a", 1), (1, None, 2), (2, "b", 2)])
    got = enumerate_words(nfa, 3)
    assert got == {("a",), ("a", "b"), ("a", "b", "b")}
