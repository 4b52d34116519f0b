"""Closeness deciders for the Hamming and transposition distances, and their
distances from one longest path.

Unequal output lengths on some input make both distances infinite.  On a
length-preserving pair automaton p both deciders walk each strongly
connected component of p once, from the one buffer its loops can settle
into (`pairauto.delay_conflict`); a conflict gives an input loop to pump.
Unlike S below, no verdict walk is exponential in the delays of
states on loops.  When close, `path_distance` reads the distance off the
longest path over a walk of p: S, the synchronization of all of p, under
Hamming, and under transposition, over any alphabet, the synchronization
of the outputs' projections onto each pair of letters, whose swap
distances add up to the distance.  Both walks are exponential in every
delay of p, so they are built under a state ceiling.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations

from .automata import EPSILON, Nfa, scc_decomposition
from .errors import IntegrityError, ResourceLimitError
from .pairauto import (PairAutomaton, component_loops, component_path,
                       components, delay_conflict, delay_range,
                       is_length_preserving, max_abs_delay,
                       output_pair_of_path, shortest_prefix_path, synchronize,
                       unbalanced_letter)
from .transducers import loop_certificate, unbalanced_word_certificate
from .verdicts import Close, NotClose
from .words import Metric


# ---------------------------------------------------------------------------
# public deciders
# ---------------------------------------------------------------------------

def close_hamming(p: PairAutomaton):
    """Hamming closeness on p, the pair automaton of two machines with one
    domain: equal output lengths, and for each component C of p with a loop
    ℓ at its root r spelling (u, v) ≠ (ε, ε), no delay conflict on C's
    loops at r from z, the first g letters of v^ω, or if g < 0 the first
    -g letters of u^ω, for g the prefix gap of r (`_loop_verdict`).

    An accepting path of S, the synchronization of all of p, is the run of
    one input and spells its output pair letter by letter, so their Hamming
    distance is the number of mismatched transitions on it.  One outside
    every component is crossed at most once per path; one inside lies on a
    cycle, and each turn adds a mismatch.  A cycle of S at (q, b), b the
    buffer of the side ahead, reads a loop of p at q in a component C,
    spelling (α, β) with |α| = |β|.  If α ≠ ε, b returns after it, so b is
    the last |b| letters of α^k for large k (of β^k with the right side
    ahead).  Close: with no conflict, all paths of C from r to q leave one
    buffer Z(q), so the loop leaves Z(q) with no mismatch, and Z(q) = b.
    NotClose: say g >= 0 (else exchange the sides); |u| = |v| >= 1.  From
    any buffer, N = ⌈g/|u|⌉ turns of ℓ leave y, the last g letters of u^N,
    and a turn from y with no mismatch means y·u = v·y, so y = z (Lyndon
    and Schützenberger).  So if z·u ≠ v·z, each later turn of ℓ has a
    mismatch.  Else y = z, and the conflict's path closed back to r is a
    loop c that z does not keep (of two paths into a state with other
    buffers, one is, since an edge maps delays one to one).  Each turn of
    ℓ^N·c then has a mismatch in c, or c leaves z' ≠ z and ℓ^N has one,
    since z'·u^N = v^N·z = z·u^N needs z' = z.
    """
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    return _loop_verdict(p, Metric.HAMMING)


def close_transposition(p: PairAutomaton):
    """Transposition closeness on p, the pair automaton of two machines with
    one domain: equal output lengths, equal letter counts on the two sides
    of every accepted pair (else a shortest path with unequal counts
    certifies ∞), Hamming closeness (`close_hamming`), and on each of its
    components C a count difference D_C = #(L) - #(R) - #(z) of 0, for
    (L, R) the outputs of a shortest path to r (+ #(z) with z on the right).

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
    outside every component is crossed at most once per path.  Close: one
    inside that spells letters lies on a cycle at (q, Z(q)) (see
    `close_hamming`), reached from (r, z) with no mismatch, so D = D_C = 0
    after it.  NotClose: a swap moves two letters, so the Hamming distance
    is at most twice the swap count.  With Hamming close, N turns of ℓ
    leave z, and D = D_C ≠ 0 after each letter of each later turn.
    """
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    letter = unbalanced_letter(p)
    if letter is not None:
        return NotClose(unbalanced_word_certificate(p, {letter: 1}))
    return _loop_verdict(p, Metric.TRANSPOSITION)


def _loop_verdict(p: PairAutomaton, metric: Metric):
    """Close(bound=None), or NotClose with a loop of p that pumps the
    distance, for p length-preserving: one `delay_conflict` walk per
    component (see `close_hamming` and `close_transposition`)."""
    comp, comps = components(p)[:2]
    gap = delay_range(p)[0]
    spelling: dict[int, int] = {}  # component -> its first letter transition
    for t, (s, (x, y), d) in enumerate(p.nfa.transitions):
        if comp[s] == comp[d] and (x or y):
            spelling.setdefault(comp[s], t)
    for c, t in spelling.items():
        members = comps[c]
        root, inside = members[0], set(members)
        s, _, d = p.nfa.transitions[t]
        pump = (component_path(p, inside, root, s) + [t]
                + component_path(p, inside, d, root))
        u, v = output_pair_of_path(p, pump)
        g = gap[root]
        z = ((v * g)[:g], "") if g >= 0 else ("", (u * -g)[:-g])
        loops, copied = component_loops(p, root)
        conflict = delay_conflict(loops, z)
        if conflict is not None:
            prefixes, state = conflict
            back = component_path(p, inside, members[state], root)
            turns = pump * -(-abs(g) // len(u))
            for loop in [pump] + [turns + [copied[e] for e in prefix] + back
                                  for prefix in prefixes]:
                a, b = output_pair_of_path(p, loop)
                if z[0] + a + z[1] != z[1] + b + z[0]:  # z does not keep it
                    return NotClose(loop_certificate(metric, p, root, loop))
            raise IntegrityError("a delay conflict without a loop to pump")
        if metric is Metric.TRANSPOSITION:
            left, right = output_pair_of_path(p, shortest_prefix_path(p, root))
            if Counter(left + z[1]) != Counter(right + z[0]):
                return NotClose(loop_certificate(metric, p, root, pump))
    return Close(bound=None)


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
        return _longest_path(s, [int(lbl is not EPSILON and lbl[0] != lbl[1])
                                 for _, lbl, _ in s.transitions])
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
