"""Closeness deciders for the Hamming and transposition distances, and their
distances from one longest path.

Unequal output lengths on some input make both distances infinite.  On a
length-preserving pair automaton p both deciders ask for a transition of
their own kind inside a strongly connected component of S_L, the
synchronization of p's loops (`pairauto.synchronized_loop`); one found
gives an input loop to pump.  S_L is exponential only in the delays of
states on loops.  When close, `distance_bounds` synchronizes all of p
into S, whose accepting paths spell the output pairs letter by letter, and
takes the longest path over S's component condensation: the number of
mismatched letter pairs under Hamming, the footrule Σ_i ‖D_i‖₁ of the
letter-count differences under transposition.  The first is the Hamming
distance, half the second is the transposition distance over two letters,
and over more the distance lies between half of it and all of it.  S is
exponential in every delay of p, so it is built under a state ceiling.
`distance_subst` computes the exact distances by another route, the maximum
over accepting paths of an acyclic automaton that keeps only borders and
cross-component outputs, and serves as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import EPSILON, Nfa, scc_decomposition, trim
from .errors import IntegrityError, InputError, ResourceLimitError
from .pairauto import (PairAutomaton, components, delay_range,
                       input_word_of_path, is_length_preserving,
                       letter_mismatches, max_abs_delay, synchronize,
                       synchronized_loop, unbalanced_letter)
from .transducers import (DomainMismatchError, joint_product,
                          loop_certificate, unbalanced_word_certificate)
from .verdicts import Close, NotClose
from .words import INF, Alphabet, ExtendedNat, Metric, word_distance

DEFAULT_GADGET_CEILING = 20_000
DEFAULT_PATHSET_CEILING = 200_000


# ---------------------------------------------------------------------------
# shared pipeline state
# ---------------------------------------------------------------------------

@dataclass
class _Pipeline:
    p: PairAutomaton
    delays: list[int]
    comp: list[int]
    comps: list[list[int]]
    intra: list[list[int]]  # per component: transition indices inside it


def _build_pipeline(p: PairAutomaton) -> _Pipeline:
    """Needs a trimmed, length-preserving p: each state's delay is then the
    one gap of `delay_range` (lo == hi)."""
    gaps = delay_range(p)
    if gaps is None or gaps[0] != gaps[1]:
        raise IntegrityError("length-preserving automaton with conflicting delays")
    delays = gaps[0]
    analysis = components(p)
    comp, comps = analysis.comp, analysis.comps
    intra: list[list[int]] = [[] for _ in comps]
    for t, (s, _, d) in enumerate(p.nfa.transitions):
        if comp[s] == comp[d]:
            intra[comp[s]].append(t)
    return _Pipeline(p, delays, comp, comps, intra)


# ---------------------------------------------------------------------------
# public deciders
# ---------------------------------------------------------------------------

def _count_gaps(s: Nfa) -> list[int]:
    """Per transition of a synchronized automaton, ‖D‖₁ after it for a
    letter-pair transition and 0 for a silent one.  D, the difference of the
    letter counts spelled on the two sides, is propagated breadth-first from
    the initial states; it is a function of the state when the states are
    reached by runs of p and every accepted pair is a permutation pair."""
    diff = {q: {} for q in s.initials}
    order = list(diff)
    adj = s.adj()
    for q in order:  # breadth-first: order grows behind q
        for lbl, d, _ in adj[q]:
            if d not in diff:
                diff[d] = counts = dict(diff[q])
                if lbl is not EPSILON:
                    counts[lbl[0]] = counts.get(lbl[0], 0) + 1
                    counts[lbl[1]] = counts.get(lbl[1], 0) - 1
                order.append(d)
    norm = {q: sum(map(abs, counts.values())) for q, counts in diff.items()}
    return [0 if lbl is EPSILON else norm[d] for _, lbl, d in s.transitions]


def _unbalanced_positions(s: Nfa):
    """The letter-pair transitions of a synchronized automaton after which
    the letter counts spelled on the two sides differ, in order."""
    return (t for t, gap in enumerate(_count_gaps(s)) if gap)


def _close(t1, t2, p: PairAutomaton, metric: Metric, bad):
    """Close(bound=None), or NotClose with the loop of p whose cycle of S_L
    crosses a transition that `bad` picks inside a component."""
    hit = synchronized_loop(p, bad)
    if hit is None:
        return Close(bound=None)
    q, loop = hit
    return NotClose(loop_certificate(t1, t2, metric, p, q,
                                     input_word_of_path(p, loop)))


def close_hamming(t1, t2, p: PairAutomaton):
    """Hamming closeness on p, the pair automaton of two machines with one
    domain: equal output lengths, and no transition of S_L inside a
    strongly connected component reads two different letters.

    An accepting path of S, the synchronization of all of p, is the run of
    one input and spells its output pair letter by letter, so their Hamming
    distance is the number of mismatched transitions on it.  One outside
    every component is crossed at most once per path; one inside lies on a
    cycle, and each turn adds a mismatch.  The cycles of S that spell
    letters are those of S_L (`pairauto.synchronized_loop`).
    """
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    return _close(t1, t2, p, Metric.HAMMING, letter_mismatches)


def close_transposition(t1, t2, p: PairAutomaton):
    """Transposition closeness on p, the pair automaton of two machines with
    one domain: equal output lengths, equal letter counts on the two sides
    of every accepted pair (else a shortest path with unequal counts
    certifies ∞), and no letter-pair transition of S_L inside a strongly
    connected component leads to a state where D, the difference of the
    letter counts spelled so far, is not 0.

    Proof.  An accepting path of S spells its output pair (u, v) letter by
    letter; let D_i = #(u[:i]) - #(v[:i]), as letter-count vectors.  For a
    permutation pair, matching the j-th c of u with the j-th c of v gives
    the permutation π that the fewest adjacent swaps realise, and its
    footrule Σ|π(i) - i| is Σ_i ‖D_i‖₁: per letter, the area between two
    counting staircases sums the distances between their j-th steps.  By
    Diaconis and Graham the swap count lies between half the footrule and
    all of it.  When every pair is a permutation pair, D is a function of
    the state of S, a state q of p with buffered letters: the counts p
    emits up to q are minus those of any suffix from q.  A transition
    outside every component is crossed at most once per path, so without a
    bad one inside the footrule is bounded; a bad one inside lies on a
    cycle, and each turn adds at least 1.  The cycles of S that spell
    letters are those of S_L, whose runs start with the output of a real
    path of p, so D is the same there.
    """
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    letter = unbalanced_letter(p)
    if letter is not None:
        return NotClose(unbalanced_word_certificate(p, {letter: 1}))
    return _close(t1, t2, p, Metric.TRANSPOSITION, _unbalanced_positions)


# ---------------------------------------------------------------------------
# distances from one longest path over S
# ---------------------------------------------------------------------------

def distance_bounds(metric: Metric, p: PairAutomaton,
                    ceiling: int) -> tuple[int, int]:
    """(lo, hi) with lo <= d(T1, T2) <= hi, for p the pair automaton of two
    machines that the metric's decider found close: lo = hi, the distance,
    under Hamming and under transposition over at most two letters.

    S, the synchronization of p, is built under `ceiling` (past it, the
    `ResourceLimitError` of `synchronize`).  It needs no trim: p is trimmed
    and length-preserving, so a state of S is a state q of p with |delay(q)|
    letters buffered, and every path of p from q to a final state runs on
    from it.  Each accepting path of S is the run of one input and spells
    its output pair letter by letter (see `close_hamming` and
    `close_transposition`).  A transition weighs 1 when it reads two
    different letters, under Hamming, or ‖D‖₁ after it, under
    transposition, and the heaviest accepting path gives the Hamming
    distance or F, the largest footrule Σ_i ‖D_i‖₁.  Over two letters a and
    b, D_b = -D_a, and the swap distance Σ_i |D_a,i| is F / 2; over more,
    Diaconis and Graham put it between ⌈F/2⌉ and F.
    """
    s = synchronize(p, max_abs_delay(p), ceiling=ceiling)[0]
    if metric is Metric.HAMMING:
        weights = [0] * len(s.transitions)
        for t in letter_mismatches(s):
            weights[t] = 1
        value = _longest_path(s, weights)
        return value, value
    footrule = _longest_path(s, _count_gaps(s))
    letters = {c for _, (x, y), _ in p.nfa.transitions for c in x + y}
    half = footrule // 2  # ‖D_i‖₁ is even: D_i sums to 0
    return (half, half) if len(letters) <= 2 else (half, footrule)


def _longest_path(s: Nfa, weights: list[int]) -> int:
    """The largest weight of an accepting path of s, whose every state
    reaches a final one, under per-transition weights none of which is
    positive inside a strongly connected component: the Close verdicts rule
    those out.  One pass over the components in reverse topological order,
    since a path crosses each transition between components at most once."""
    comp, comps, _ = scc_decomposition(s)
    adj = s.adj()
    best = [0] * len(comps)  # per component: the heaviest path to a final
    for c in range(len(comps) - 1, -1, -1):
        for q in comps[c]:
            for _, d, t in adj[q]:
                if comp[d] != c:
                    best[c] = max(best[c], weights[t] + best[comp[d]])
                elif weights[t]:
                    raise IntegrityError(
                        "a weighted transition of S lies on a cycle of a "
                        "pair declared close")
    return max((best[comp[q]] for q in s.initials), default=0)


# ---------------------------------------------------------------------------
# acyclic gadget: exact distance and k-closeness
# ---------------------------------------------------------------------------

def _acyclic_gadget(pipe: _Pipeline, ceiling: int) -> Nfa:
    """A_T: borders and cross-component outputs only; interiors dropped.

    Within a letter-emitting component, forward levels emit the leading
    border, level-0 moves cross the interior silently, and backward levels
    emit the trailing border.  Pass-through components keep their edges.
    """
    p = pipe.p
    ids: dict[tuple, int] = {}
    order: list[tuple] = []

    def node(key):
        if key not in ids:
            if len(ids) >= ceiling:
                raise ResourceLimitError(
                    f"acyclic gadget exceeded ceiling of {ceiling} states")
            ids[key] = len(order)
            order.append(key)
        return ids[key]

    gadgeted = [any(p.nfa.transitions[t][1] != ("", "") for t in intra)
                for intra in pipe.intra]
    edges: list[tuple] = []
    for cid, members in enumerate(pipe.comps):
        if not gadgeted[cid]:
            for t in pipe.intra[cid]:
                s, lbl, d = p.nfa.transitions[t]
                edges.append((node(("p", s)), lbl, node(("p", d))))
            continue
        dmax = max(abs(pipe.delays[s]) for s in members)
        for t in pipe.intra[cid]:
            s, (x, y), d = p.nfa.transitions[t]
            for i in range(-dmax, dmax + 1):
                if i > 0:  # forward: keep the leading border side
                    j = i - 1 if y else i
                    edges.append((_fnode(node, s, i), ("", y), _fnode(node, d, j)))
                elif i < 0:
                    j = i + 1 if x else i
                    edges.append((_fnode(node, s, i), (x, ""), _fnode(node, d, j)))
                if i > 0:  # backward: keep the trailing border side
                    j = i - 1 if y else i
                    edges.append((_bnode(node, s, j), ("", y), _bnode(node, d, i)))
                elif i < 0:
                    j = i + 1 if x else i
                    edges.append((_bnode(node, s, j), (x, ""), _bnode(node, d, i)))
            # level-0 interior movement emits nothing
            edges.append((node(("z", s)), ("", ""), node(("z", d))))

    def entry(state):
        cid = pipe.comp[state]
        if not gadgeted[cid]:
            return node(("p", state))
        return _fnode(node, state, pipe.delays[state])

    def exit_(state):
        cid = pipe.comp[state]
        if not gadgeted[cid]:
            return node(("p", state))
        return _bnode(node, state, -pipe.delays[state])

    for t, (s, lbl, d) in enumerate(p.nfa.transitions):
        if pipe.comp[s] != pipe.comp[d]:
            edges.append((exit_(s), lbl, entry(d)))
    initials = [entry(s) for s in sorted(p.nfa.initials)]
    finals = [exit_(f) for f in sorted(p.nfa.finals)]
    return Nfa(len(order), initials, finals,
               [(s, lbl, d) for s, lbl, d in edges])


def _fnode(node, state, level):
    return node(("z", state)) if level == 0 else node(("f", state, level))


def _bnode(node, state, level):
    return node(("z", state)) if level == 0 else node(("b", state, level))


def _collapse_silent_cycles(nfa: Nfa) -> Nfa:
    """Quotient by strongly connected components of the (ε,ε)-subgraph."""
    silent = Nfa(nfa.n_states, nfa.initials, nfa.finals,
                 [tr for tr in nfa.transitions if tr[1] == ("", "")])
    comp, comps, _ = scc_decomposition(silent)
    transitions = []
    seen = set()
    for s, lbl, d in nfa.transitions:
        cs, cd = comp[s], comp[d]
        if cs == cd and lbl == ("", ""):
            continue
        key = (cs, lbl, cd)
        if key not in seen:
            seen.add(key)
            transitions.append(key)
    return Nfa(len(comps), {comp[s] for s in nfa.initials},
               {comp[f] for f in nfa.finals}, transitions)


def _assert_dag(nfa: Nfa):
    comp, comps, _ = scc_decomposition(nfa)
    if any(len(c) > 1 for c in comps):
        raise IntegrityError("border gadget is not acyclic")
    for s, _, d in nfa.transitions:
        if s == d:
            raise IntegrityError("border gadget has a self-loop")


def _max_path_distance(nfa: Nfa, metric: Metric, alphabet: Alphabet,
                       ceiling: int) -> ExtendedNat:
    """Max over accepting paths of the output-pair distance (exhaustive)."""
    at, _, _ = trim(nfa)
    if at.n_states == 0:
        return ExtendedNat(0)
    at = _collapse_silent_cycles(at)
    at, _, _ = trim(at)
    _assert_dag(at)
    comp, comps, _ = scc_decomposition(at)
    topo_states = [c[0] for c in comps]  # singleton components in topo order
    suffix: dict[int, set[tuple[str, str]]] = {s: set() for s in range(at.n_states)}
    adj = at.adj()
    total = 0
    for s in reversed(topo_states):
        pairs = set()
        if s in at.finals:
            pairs.add(("", ""))
        for (x, y), d, _ in adj[s]:
            for u, v in suffix[d]:
                pairs.add((x + u, y + v))
        total += len(pairs)
        if total > ceiling:
            raise ResourceLimitError(
                f"path enumeration exceeded {ceiling} suffix pairs")
        suffix[s] = pairs
    best = ExtendedNat(0)
    found = False
    for s in at.initials:
        for u, v in suffix[s]:
            found = True
            d = word_distance(metric, u, v, alphabet)
            if d == INF:
                raise IntegrityError(
                    "infinite path distance on a machine declared close")
            best = max(best, d)
    return best if found else ExtendedNat(0)


def distance_subst(metric: Metric, t1, t2) -> ExtendedNat:
    """Exact Hamming/transposition distance through the acyclic gadget: a
    reference route, independent of `distance_bounds`, that the tests
    compare `kapprox.distance` against.

    Builds the pair automaton (checking the domains) once, for the verdict
    and the gadget alike; the gadget's pipeline reads the delays and
    components the verdict left on it.  The gadget holds at most
    `DEFAULT_GADGET_CEILING` states and the path enumeration at most
    `DEFAULT_PATHSET_CEILING` suffix pairs.
    """
    if metric is Metric.HAMMING:
        decide = close_hamming
    elif metric is Metric.TRANSPOSITION:
        decide = close_transposition
    else:
        raise InputError(f"distance_subst handles hamming/transposition, "
                         f"not {metric}")
    try:
        p = joint_product(t1, t2)
    except DomainMismatchError:
        return INF
    if isinstance(decide(t1, t2, p), NotClose):
        return INF
    gadget = _acyclic_gadget(_build_pipeline(p), DEFAULT_GADGET_CEILING)
    return _max_path_distance(gadget, metric, p.left_alphabet,
                              DEFAULT_PATHSET_CEILING)
