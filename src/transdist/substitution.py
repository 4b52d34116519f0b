"""Closeness deciders for the Hamming and transposition distances, and their
distances from one longest path.

Unequal output lengths on some input make both distances infinite.  On a
length-preserving pair automaton p both deciders ask for a transition of
their own kind inside a strongly connected component of S_L, the
synchronization of p's loops (`pairauto.synchronized_loop`); one found
gives an input loop to pump.  S_L is exponential only in the delays of
states on loops.  When close, `path_distance` reads the distance off the
longest path over a walk of p: S, the synchronization of all of p, under
Hamming, and under transposition, over any alphabet, the synchronization
of the outputs' projections onto each pair of letters, whose swap
distances add up to the distance.  Both walks are exponential in every
delay of p, so they are built under a state ceiling.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .automata import EPSILON, Nfa, scc_decomposition
from .errors import IntegrityError, ResourceLimitError
from .pairauto import (PairAutomaton, is_length_preserving,
                       letter_mismatches, max_abs_delay, synchronize,
                       synchronized_loop, unbalanced_letter)
from .transducers import loop_certificate, unbalanced_word_certificate
from .verdicts import Close, NotClose
from .words import Metric


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


def _close(p: PairAutomaton, metric: Metric, bad):
    """Close(bound=None), or NotClose with the loop of p whose cycle of S_L
    crosses a transition that `bad` picks inside a component."""
    hit = synchronized_loop(p, bad)
    if hit is None:
        return Close(bound=None)
    return NotClose(loop_certificate(metric, p, *hit))


def close_hamming(p: PairAutomaton):
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
    return _close(p, Metric.HAMMING, letter_mismatches)


def close_transposition(p: PairAutomaton):
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
    return _close(p, Metric.TRANSPOSITION, _unbalanced_positions)


# ---------------------------------------------------------------------------
# distances from one longest path
# ---------------------------------------------------------------------------

def path_distance(metric: Metric, p: PairAutomaton, ceiling: int) -> int:
    """d(T1, T2) under Hamming or transposition, for p the pair automaton of
    two machines that the metric's decider found close: the heaviest
    accepting path of a walk over p, built under `ceiling`.  Under Hamming
    the walk is S, the synchronization of p, whose accepting paths spell
    the output pairs letter by letter (see `close_hamming`), and a
    transition weighs 1 when its two letters differ; p is trimmed and
    length-preserving, so S needs no trim.  Under transposition it is
    `_pairwise_walk`.
    """
    if metric is Metric.HAMMING:
        s = synchronize(p, max_abs_delay(p), ceiling=ceiling)[0]
        weights = [0] * len(s.transitions)
        for t in letter_mismatches(s):
            weights[t] = 1
        return _longest_path(s, weights)
    return _longest_path(*_pairwise_walk(p, ceiling))


def _pairwise_walk(p: PairAutomaton, ceiling: int) -> tuple[Nfa, list[int]]:
    """The walk, with its transition weights, whose heaviest accepting path
    is the transposition distance of p, whose accepted pairs are all
    permutation pairs.

    Transposition counts the inversions of the in-order matching of equal
    letters.  Two equal letters are never inverted, and whether an x and a
    y are inverted depends only on the order of the x's and y's, so d(u, v)
    is the sum over letter pairs {x, y} of d(π_xy(u), π_xy(v)), for π_xy
    the projection onto x and y.  Each term is binary, so it is Σ_i |D_i|,
    for D_i the count of x in the first i letters of π_xy(u) minus that in
    π_xy(v): the area between the two counting staircases sums how far the
    j-th x's stand apart, which is how many y's each must pass.

    A state is a state q of p and, per letter pair, the tails of the two
    projected outputs not aligned yet (one of them empty) and D.  A
    transition of p appends its letters to the tails they project onto and
    weighs the sum of |D| at each position it aligns.  The counts p emits
    up to q are minus those of any suffix from q, so the tails' lengths
    are functions of q and D of q and the tails: the walk is about as large
    as S, reaches every final state of p with its tails aligned, and, like
    S, needs no trim.  The Close verdict leaves no positive weight on a
    cycle.
    """
    letters = sorted({c for _, (x, y), _ in p.nfa.transitions for c in x + y})
    pairs = list(combinations(letters, 2))
    ids: dict[tuple, int] = {}
    todo: deque[tuple] = deque()
    transitions: list[tuple[int, int, int]] = []
    weights: list[int] = []

    def get(cfg):
        sid = ids.get(cfg)
        if sid is None:
            if len(ids) >= ceiling:
                raise ResourceLimitError(
                    f"pairwise synchronization exceeded ceiling of {ceiling} "
                    f"states")
            sid = ids[cfg] = len(ids)
            todo.append(cfg)
        return sid

    aligned = tuple(("", "", 0) for _ in pairs)
    initials = [get((q, aligned)) for q in sorted(p.nfa.initials)]
    finals = []
    adj = p.nfa.adj()
    while todo:
        cfg = todo.popleft()
        sid = ids[cfg]
        q, tails = cfg
        if q in p.nfa.finals and tails == aligned:
            finals.append(sid)
        for (x, y), d, t in adj[q]:
            weight = 0
            nxt = []
            for (a, b), (lu, lv, diff) in zip(pairs, tails):
                if x == a or x == b:
                    lu += x
                if y == a or y == b:
                    lv += y
                if lu and lv:  # one tail was empty and gained a letter
                    diff += (lu[0] == a) - (lv[0] == a)
                    weight += abs(diff)
                    lu, lv = lu[1:], lv[1:]
                nxt.append((lu, lv, diff))
            transitions.append((sid, t, get((d, tuple(nxt)))))
            weights.append(weight)
    return Nfa(len(ids), initials, finals, transitions), weights


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
                        "a weighted transition of the walk lies on a cycle "
                        "of a pair declared close")
    return max((best[comp[q]] for q in s.initials), default=0)
