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
"""

from __future__ import annotations

from .automata import EPSILON, Nfa, scc_decomposition
from .errors import IntegrityError
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
