"""Diameters of rational relations and indices in composition closures.

The diameter of a relation is the distance of the two machines whose pair
automaton it is (Nivat), computed on the relation with one input letter per
edge (`_indexed`): no machine is built and no domain compared.  The index
of R in the closure of a distance relation S is bounded iff R is close
(the closeness verdict on R decides it, not the exact diameter); it is the
least k with R ⊆ S^{≤∘k}, and containment of bounded-delay relations is
inclusion of padded letter-to-letter encodings.  The search pads R once and
grows S^{≤∘k} by one composition per step (`power_levels`), testing
containment only from ⌈L(R) / g(S)⌉ on, the ratio of the two length
diameters: a chain of k pairs of S changes a length by at most k·g(S).
Each containment test determinizes padded S^{≤∘k} guided by padded R, so
only the subsets that a run of padded R reaches are built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .automata import DEFAULT_STATE_CEILING, Nfa, determinize, included
from .errors import InputError, ResourceLimitError, UnsupportedCaseError
from .kapprox import _distance_on, _verdict_on
from .pairauto import (PairAutomaton, _keep_live, _reached, _split_edges,
                       max_abs_delay, pair_length_diameter, synchronize)
from .verdicts import NotClose, Unknown
from .words import INF, Alphabet, ExtendedNat, Metric

PAD = "⊥"  # ⊥: reserved out-of-alphabet padding marker

DEFAULT_INDEX_CEILING = 512
DEFAULT_CONTAINMENT_CEILING = 200_000


def diameter(r: PairAutomaton, metric: Metric) -> ExtendedNat | Unknown:
    """sup of d(u, v) over related pairs, computed on r (`_indexed`)."""
    return _distance_on(metric, _indexed(r), DEFAULT_STATE_CEILING)


def _indexed(r: PairAutomaton) -> PairAutomaton:
    """r with its own input letter, chr(0x100 + t), on each transition t:
    an input names its one accepting path, as in a joint product.  The
    labels are split already, so `_split_edges` makes no state."""
    edges = [(s, lbl, d, chr(0x100 + t))
             for t, (s, lbl, d) in enumerate(r.nfa.transitions)]
    return _split_edges(r.nfa.n_states, r.nfa.initials, r.nfa.finals, edges,
                        r.left_alphabet, r.right_alphabet)


# ---------------------------------------------------------------------------
# unit-sphere relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceRelation:
    """The relation {(u, v) : d(u, v) = 1} of a rationalizable distance."""
    metric: Metric
    automaton: PairAutomaton


def make_distance_relation(metric: Metric, alphabet: Alphabet) -> DistanceRelation:
    """Pair automaton of the unit sphere of an edit metric (or length)."""
    letters = alphabet.letters
    edges = []
    if metric is Metric.DISCRETE:
        raise UnsupportedCaseError(
            "the discrete metric has no unit sphere: d∞ never equals 1")
    if metric is Metric.LENGTH:
        # arbitrary contents, length gap exactly one
        n = 3
        for a in letters:
            for b in letters:
                edges.append((0, (a, b), 0))
        for a in letters:
            edges.append((0, (a, ""), 1))
            edges.append((0, ("", a), 2))
        return DistanceRelation(metric, PairAutomaton.from_edges(
            n, [0], [1, 2], edges, alphabet, alphabet))
    if metric is Metric.CONJUGACY:
        return DistanceRelation(metric, _conjugacy_sphere(alphabet))

    # one-edit relations: copy, apply a single edit, copy
    n = 2
    for a in letters:
        edges.append((0, (a, a), 0))
        edges.append((1, (a, a), 1))
    if metric in (Metric.HAMMING, Metric.LEVENSHTEIN, Metric.DAMERAU_LEVENSHTEIN):
        for a in letters:
            for b in letters:
                if a != b:
                    edges.append((0, (a, b), 1))  # substitution
    if metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
        for a in letters:
            edges.append((0, (a, ""), 1))  # deletion
            edges.append((0, ("", a), 1))  # insertion
    if metric in (Metric.TRANSPOSITION, Metric.DAMERAU_LEVENSHTEIN):
        mid = n
        for a in letters:
            for b in letters:
                if a != b:
                    edges.append((0, (a, b), mid))
                    edges.append((mid, (b, a), 1))
                    n += 1
                    mid = n
    return DistanceRelation(metric, PairAutomaton.from_edges(
        n, [0], [1], edges, alphabet, alphabet))


def _conjugacy_sphere(alphabet: Alphabet) -> PairAutomaton:
    """Pairs (u, rot(u)) with rot(u) != u, both shift directions.

    A left shift moves the first letter to the end (u = a·x ↦ x·a), a right
    shift the last letter to the front; the rotation is excluded when x is a
    power of the moved letter (then rot(u) = u, distance 0).
    """
    letters = alphabet.letters
    edges = []
    ids: dict[tuple, int] = {}

    def node(key):
        return ids.setdefault(key, len(ids))

    final = node(("final",))
    for a in letters:
        # left shift: guess the first letter a, replay it at the end
        pure = node(("l", a, "pure"))
        mixed = node(("l", a, "mixed"))
        edges.append((node(("start",)), (a, ""), pure))
        edges.append((pure, (a, a), pure))
        for b in letters:
            if b != a:
                edges.append((pure, (b, b), mixed))
        for b in letters:
            edges.append((mixed, (b, b), mixed))
        edges.append((mixed, ("", a), final))
        # right shift: emit the guessed last letter up front
        rpure = node(("r", a, "pure"))
        rmixed = node(("r", a, "mixed"))
        edges.append((node(("start",)), ("", a), rpure))
        edges.append((rpure, (a, a), rpure))
        for b in letters:
            if b != a:
                edges.append((rpure, (b, b), rmixed))
        for b in letters:
            edges.append((rmixed, (b, b), rmixed))
        edges.append((rmixed, (a, ""), final))
    return PairAutomaton.from_edges(len(ids), [node(("start",))], [final],
                                    edges, alphabet, alphabet)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def identity_relation(alphabet: Alphabet) -> PairAutomaton:
    edges = [(0, (a, a), 0) for a in alphabet.letters]
    return PairAutomaton.from_edges(1, [0], [0], edges, alphabet, alphabet)


def compose(s1: PairAutomaton, s2: PairAutomaton) -> PairAutomaton:
    """(s2 ∘ s1): pairs (u, w) such that (u, v) ∈ s1 and (v, w) ∈ s2.

    States are the state pairs reachable from the initial pairs, numbered
    breadth-first: a pair moves s1 alone on a label (x, ε), s2 alone on a
    label (ε, y), and both on labels (x, m) and (m, y) that agree on the
    middle letter m.  One backward pass trims the pairs that reach no final
    pair.  The labels are the one-letter pieces of s1 and s2, so
    `pairauto._split_edges` takes the edges unchecked.
    """
    if s1.right_alphabet != s2.left_alphabet:
        raise InputError("middle alphabets differ; relations do not compose")
    adj1, adj2 = s1.nfa.adj(), s2.nfa.adj()
    order = [(p, q) for p in sorted(s1.nfa.initials)
             for q in sorted(s2.nfa.initials)]
    ids = {pq: i for i, pq in enumerate(order)}
    initials = range(len(order))
    edges = []

    def add(sid, label, pq):
        did = ids.get(pq)
        if did is None:
            did = ids[pq] = len(order)
            order.append(pq)
        edges.append((sid, label, did, None))

    # order grows while it is walked: pair ids are breadth-first
    for sid, (p, q) in enumerate(order):
        for (x, m), d1, _ in adj1[p]:
            if not m:
                add(sid, (x, ""), (d1, q))
                continue
            for (m2, y), d2, _ in adj2[q]:
                if m2 == m:
                    add(sid, (x, y), (d1, d2))
        for (m, y), d2, _ in adj2[q]:
            if not m:
                add(sid, ("", y), (p, d2))
    n = len(order)
    finals = [sid for sid, (p, q) in enumerate(order)
              if p in s1.nfa.finals and q in s2.nfa.finals]
    live = _reached(n, finals, edges, backward=True)
    if not all(live):
        n, initials, finals, edges = _keep_live(live, initials, finals, edges)
    return _split_edges(n, initials, finals, edges, s1.left_alphabet,
                        s2.right_alphabet)


def union(r1: PairAutomaton, r2: PairAutomaton) -> PairAutomaton:
    """r1 ∪ r2, side by side.  Both are trimmed, so their disjoint union is,
    and its labels are already split: `pairauto._split_edges` takes the
    edges unchecked."""
    if (r1.left_alphabet != r2.left_alphabet
            or r1.right_alphabet != r2.right_alphabet):
        raise InputError("alphabets differ; relations do not union")
    n1 = r1.nfa.n_states
    edges = [(s, lbl, d, r1.input_letters[t])
             for t, (s, lbl, d) in enumerate(r1.nfa.transitions)]
    edges += [(n1 + s, lbl, n1 + d, r2.input_letters[t])
              for t, (s, lbl, d) in enumerate(r2.nfa.transitions)]
    initials = list(r1.nfa.initials) + [n1 + s for s in r2.nfa.initials]
    finals = list(r1.nfa.finals) + [n1 + s for s in r2.nfa.finals]
    return _split_edges(n1 + r2.nfa.n_states, initials, finals, edges,
                        r1.left_alphabet, r1.right_alphabet)


def power(s: PairAutomaton, n: int) -> PairAutomaton:
    """n-fold composition; power(s, 0) is the identity relation."""
    if n < 0:
        raise InputError("power needs n >= 0")
    acc = identity_relation(s.left_alphabet)
    for _ in range(n):
        acc = compose(acc, s)
    return acc


def power_levels(s: PairAutomaton) -> Iterator[PairAutomaton]:
    """S^{≤∘0}, S^{≤∘1}, ...: the identity, then
    S^{≤∘(n+1)} = identity ∪ (S^{≤∘n} followed by S).

    Each level costs one composition with S, made only when it is asked for.
    """
    ident = identity_relation(s.left_alphabet)
    level = ident
    while True:
        yield level
        level = union(ident, compose(level, s))


# ---------------------------------------------------------------------------
# containment of bounded-delay relations
# ---------------------------------------------------------------------------

def _padded_nfa(r: PairAutomaton, ceiling: int) -> Nfa:
    bound = max_abs_delay(r)
    if bound is None:
        raise UnsupportedCaseError(
            "containment requires bounded delay on both relations")
    return synchronize(r, bound, pad=PAD, ceiling=ceiling)[0]


def _included_padded(padded_small: Nfa, big: PairAutomaton,
                     ceiling: int) -> bool:
    """Is the padded encoding `padded_small` inside that of big?

    Padded big is determinized guided by `padded_small`: only the subsets
    that a run of padded_small reaches are built, and `ceiling` bounds the
    padding and those subsets.
    """
    det = determinize(_padded_nfa(big, ceiling), ceiling, within=padded_small)
    return included(padded_small, det) is None


def _start_level(r: PairAutomaton, s: PairAutomaton) -> int:
    """⌈L(R) / g(S)⌉ for the length diameters L(R) and g(S), or 0 when g(S)
    is not finite and positive: no k below it has R ⊆ S^{≤∘k}.  Needs a
    finite L(R), which a Close verdict on R's halves implies.

    A pair of S^{≤∘k} is a chain of at most k pairs of S, and length gaps
    add along a chain, so its gap is at most k·g(S); R has a pair of gap
    L(R).  No metrizability is assumed.
    """
    gap = pair_length_diameter(s)
    if not gap.is_finite or gap.value() == 0:
        return 0
    return -(-pair_length_diameter(r).value() // gap.value())


def index(r: PairAutomaton, s: PairAutomaton | DistanceRelation,
          declared_metric: Metric | None = None, *,
          metrizable_asserted: bool = False,
          ceiling: int = DEFAULT_INDEX_CEILING) -> ExtendedNat | Unknown:
    """Least k with R ⊆ S^{≤∘k}, for S metrizable w.r.t. the declared metric.

    Boundedness comes from the closeness verdict on R (`_indexed`), not
    from the exact diameter: NotClose gives ∞, Unknown is returned as is, and
    on Close the containment search tests R ⊆ S^{≤∘k} for k = k0, k0 + 1,
    ... up to `ceiling`.  k0 = ⌈L(R) / g(S)⌉ for the length diameters of R
    and S (0 unless g(S) is finite and positive): length gaps add along a
    composition chain, so every pair of S^{≤∘k} has a gap of at most k·g(S),
    and R, with a pair of gap L(R), lies in no level below k0.  A k0 above
    the ceiling raises at once.  The verdict, L(R) and R's padding are read
    off one indexed copy of R, whose labels and transitions are R's.  R is
    padded once for the whole search, and each level S^{≤∘k} comes from the
    one before by one composition (`power_levels`), so finding index d
    composes d times; the levels from k0 on are padded and determinized
    once each, those below it not at all.
    A level is determinized only as far as padded R reads it
    (`_included_padded`).  The padding and the determinization each stop at
    `DEFAULT_CONTAINMENT_CEILING` states; past it, the `ResourceLimitError`
    names index containment, the level k and that ceiling, chained to the
    error of the layer that overflowed.  General metrizability of
    user-supplied relations is undecidable, so such relations require an
    explicit metrizability assertion.
    """
    if isinstance(s, DistanceRelation):
        if declared_metric is not None and declared_metric is not s.metric:
            raise InputError(
                f"declared metric {declared_metric} contradicts the generated "
                f"distance relation for {s.metric}")
        declared_metric = s.metric
        s_auto = s.automaton
    else:
        if not metrizable_asserted:
            raise InputError(
                "user-supplied relations need an explicit metrizability "
                "assertion: the index of a relation in an arbitrary relation's "
                "closure is undecidable")
        if declared_metric is None:
            raise InputError("a declared metric is required")
        s_auto = s
    if declared_metric is Metric.LENGTH:
        warnings.warn("index over a length-metrizable relation is experimental: "
                      "the diameter boundedness transfer assumes d_len ≲ d",
                      stacklevel=2)
    if r.nfa.n_states == 0:
        return ExtendedNat(0)
    indexed = _indexed(r)
    verdict = _verdict_on(declared_metric, indexed)
    if isinstance(verdict, Unknown):
        return verdict
    if isinstance(verdict, NotClose):
        return INF
    start = _start_level(indexed, s_auto)
    if start <= ceiling:
        states = DEFAULT_CONTAINMENT_CEILING
        k = start
        try:
            padded_r = _padded_nfa(indexed, states)
            levels = islice(power_levels(s_auto), start, ceiling + 1)
            for k, level in enumerate(levels, start):
                if _included_padded(padded_r, level, states):
                    return ExtendedNat(k)
        except ResourceLimitError as e:
            raise ResourceLimitError(
                f"index containment R ⊆ S^≤∘{k} (k={k}) exceeded "
                f"{states} states: {e}") from e
    bound = "finite" if verdict.bound is None else f"at most {verdict.bound}"
    raise UnsupportedCaseError(
        f"index search exceeded the ceiling {ceiling} despite diameter "
        f"{bound}; is the relation really metrizable w.r.t. {declared_metric}?")
