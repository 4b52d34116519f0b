"""Common witnesses, and the closeness deciders for the conjugacy and
Levenshtein-family distances.

Both deciders reduce closeness to common witnesses: words z with uz = zv
for every pair (u, v) of a language (inner), or zu = vz for all (outer).
Both search loop languages read straight off the pair automaton p.
Witness candidates come from the split families of a concrete non-identical
pair, are generated lazily in length order up to one cutoff rule (1 + the
transitions of the searched automaton), and are verified exactly against
that automaton, so a wrong verdict is impossible; an exhausted candidate
budget surfaces as Unknown, never as Close or NotClose.

* Conjugacy: conjugate words have equal lengths, so the output lengths are
  checked first, and a pair automaton that is not length-preserving is
  NotClose, certified by an unbalanced pair.  Otherwise L(p) splits into
  sumfree summands, one per simple accepting path q0 e1 q1 ... em qm of p:
  L0*·e1·L1*·...·em·Lm*, with Li the loops at qi that avoid q0 ... q(i-1),
  the stars kept whole, and paths of one shape make one summand
  (`sumfree_decompose`).  Cutting any accepting path after its last visit
  to each state in turn shows that the summands cover L(p).  Every summand
  needs a common witness.
* Levenshtein family: per entry state e of each strongly connected
  component of p, the loop language L_e needs a common witness; the
  distance bound is proven at `close_levenshtein_transducers`.

The two transducer-level deciders take the pair automaton alone, and build
none themselves.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import IntegrityError, InputError, ResourceLimitError
from .pairauto import (PairAutomaton, components, delay_conflict,
                       delay_range, enumerate_pairs, find_pair_path,
                       identity_witness, input_word_of_path,
                       is_length_preserving)
from .transducers import (loop_certificate, unbalanced_loop_certificate,
                          unbalanced_word_certificate)
from .verdicts import Close, InfiniteWordCertificate, NotClose, Unknown
from .words import ExtendedNat, Metric

DEFAULT_SUMMAND_LIMIT = 4096


# ---------------------------------------------------------------------------
# sumfree decomposition
# ---------------------------------------------------------------------------

def sumfree_decompose(p: PairAutomaton) -> list[PairAutomaton]:
    """Summand automata whose languages are sumfree and together make L(p).

    One summand per simple accepting path q0 e1 q1 ... em qm of p (q0
    initial, qm final, the qi distinct).  Its block i is the strongly
    connected component of qi once q0 ... q(i-1) are removed from p, so it
    holds the loops at qi that avoid the earlier states, and the edges ei
    chain the blocks.  Its language is L0*·e1·L1*·...·em·Lm* for Li the
    loop language of block i: a star is kept whole, which is all a witness
    search needs, since z witnesses G* iff z witnesses G.

    Exact.  Each summand spells accepting paths of p, so it lies inside
    L(p).  Conversely, cut an accepting path of p after its last visit to
    its first state q0, then after its last visit to the state q1 that
    follows, and so on: the states cut at are distinct, so they form a
    simple path, and each piece cut off is a loop at qi that avoids q0 ...
    q(i-1), so the path lies in that path's summand.

    A summand is built from its shape alone: per block, the label of the
    edge into it and its edges numbered from qi (`_block_shape`).  Paths of
    one shape give one summand, in the order of their first path, and a
    path prefix is followed once per shape, current state and removed
    states that this state can still reach; so parallel edges with one
    label, or branches that spell the same words, do not multiply the
    summands.  Every state of a block reaches qi and is reached from it, so
    each summand is trim as built.  A prefix is kept only while a final
    state is reachable without its earlier states, so every prefix kept
    leads to a summand.  Simple paths can be exponentially many, hence the
    limit of `DEFAULT_SUMMAND_LIMIT` distinct summands.
    """
    limit = DEFAULT_SUMMAND_LIMIT
    adj, radj = p.nfa.adj(), p.nfa.radj()
    reach = [_reach(q, adj, set()) for q in range(p.nfa.n_states)]
    shapes: dict[tuple, None] = {}
    followed = set()
    # path prefixes: the shape of the blocks so far and the label of the
    # edge on, the state reached and the states removed; a stack, pushed in
    # reverse so that the paths come out in the order of p's initials and
    # edges
    todo = [((), None, q, frozenset())
            for q in sorted(p.nfa.initials, reverse=True)]
    while todo:
        shape, into, q, barred = todo.pop()
        key = (shape, into, q, barred & reach[q])
        if key in followed:
            continue
        followed.add(key)
        ahead = _reach(q, adj, barred)
        if ahead.isdisjoint(p.nfa.finals):
            continue
        block = ahead & _reach(q, radj, barred)
        shape += ((into, *_block_shape(q, block, adj)),)
        if q in p.nfa.finals and shape not in shapes:
            shapes[shape] = None
            if len(shapes) > limit:
                raise ResourceLimitError(
                    f"sumfree decomposition exceeded {limit} summands")
        barred |= {q}
        for lbl, d, _ in reversed(adj[q]):
            if d not in barred:
                todo.append((shape, lbl, d, barred))
    return [_summand(p, shape) for shape in shapes]


def _reach(q: int, links, barred: set[int]) -> set[int]:
    """The states reached from q along `links` (`Nfa.adj` or `Nfa.radj`)
    through states outside `barred`."""
    seen = {q}
    stack = [q]
    while stack:
        for _, d, _ in links[stack.pop()]:
            if d not in seen and d not in barred:
                seen.add(d)
                stack.append(d)
    return seen


def _block_shape(q: int, block: set[int], adj) -> tuple[int, tuple]:
    """The block's size and edges, its states numbered breadth-first from
    q along edges in label order: blocks of one shape have one loop
    language at q."""
    ids = {q: 0}
    order = [q]
    edges = []
    for s in order:
        for lbl, d, _ in sorted(adj[s], key=lambda e: e[0]):
            if d in block:
                if d not in ids:
                    ids[d] = len(order)
                    order.append(d)
                edges.append((ids[s], lbl, ids[d]))
    return len(order), tuple(edges)


def _summand(p: PairAutomaton, shape: tuple) -> PairAutomaton:
    """The summand automaton of a shape: its blocks numbered apart, each
    joined to the next by the edge from qi to q(i+1)."""
    edges = []
    root = n = 0
    for into, size, block in shape:
        if into is not None:
            edges.append((root, into, n))
        root = n
        edges.extend((root + s, lbl, root + d) for s, lbl, d in block)
        n += size
    return PairAutomaton.from_edges(n, [0], [root], edges, p.left_alphabet,
                                    p.right_alphabet, do_trim=False)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessFamily:
    """Candidate witnesses x·(y·x)^j of one conjugate pair."""
    x: str
    y: str
    side: str  # "inner" | "outer"

    def member(self, j: int) -> str:
        return self.x + (self.y + self.x) * j


@dataclass(frozen=True)
class PairWitnesses:
    inner: tuple[WitnessFamily, ...]
    outer: tuple[WitnessFamily, ...]
    universal: bool = False


def pair_witnesses(u: str, v: str) -> PairWitnesses | None:
    """All witness families of the pair, or None when not conjugate.

    Inner witnesses of (u, v) are exactly the words x·(yx)* over splits
    u = xy, v = yx; outer witnesses of (u, v) are the inner witnesses of
    (v, u).  For u = v = ε every word is a witness (universal family).
    """
    if len(u) != len(v):
        return None
    if u == "" and v == "":
        return PairWitnesses((), (), universal=True)
    inner = tuple(WitnessFamily(u[:i], u[i:], "inner")
                  for i in range(len(u) + 1) if u[i:] + u[:i] == v)
    outer = tuple(WitnessFamily(v[:i], v[i:], "outer")
                  for i in range(len(v) + 1) if v[i:] + v[:i] == u)
    if not inner and not outer:
        return None
    if not inner or not outer:
        raise IntegrityError("a conjugate pair must have both witness sides")
    return PairWitnesses(inner, outer)


def verify_witness(p: PairAutomaton, z: str, side: str) -> bool:
    """Exact check that z is a common witness of every pair (u, v) of L(p):
    u·z = z·v (inner) or z·u = v·z (outer), decided by one walk over p
    from z's delay (`delay_conflict`); p must be trimmed."""
    starts = {"inner": ("", z), "outer": (z, "")}
    if side not in starts:
        raise InputError(f"side must be inner or outer, got {side!r}")
    return delay_conflict(p, starts[side]) is None


@dataclass(frozen=True)
class Witness:
    z: str
    side: str


@dataclass(frozen=True)
class NoWitness:
    """A concrete non-conjugate pair: no common witness can exist."""
    pair: tuple[str, str]


@dataclass(frozen=True)
class WitnessUnknown:
    """Candidate budget exhausted without a verified witness."""
    cutoff: int
    pair: tuple[str, str]
    shortest_family: WitnessFamily | None


def _nonconjugate_pair_scan(p: PairAutomaton, max_len: int) -> tuple[str, str] | None:
    """Bounded search for a generated non-conjugate pair."""
    for u, v in sorted(enumerate_pairs(p, max_len)):
        if pair_witnesses(u, v) is None:
            return u, v
    return None


def _family_members(fam: WitnessFamily, cutoff: int):
    for j in range(cutoff + 1):
        yield fam.member(j), fam.side


def witness_candidates(families: Iterable[WitnessFamily],
                       cutoff: int) -> Iterator[tuple[str, str]]:
    """Candidates (z, side) for the members x·(yx)^j, j <= cutoff, of the
    families, in (length, word, side) order and without repeats.

    Lazy: a family's members grow with j, so merging the families holds one
    pending candidate per family, and a long candidate is built only after
    every shorter one has been tried.
    """
    last = None
    for candidate in heapq.merge(*(_family_members(fam, cutoff)
                                   for fam in families),
                                 key=lambda c: (len(c[0]), c[0], c[1])):
        if candidate != last:
            last = candidate
            yield candidate


def _witness_search(p: PairAutomaton, cutoff: int
                    ) -> Witness | NoWitness | WitnessUnknown:
    """Common inner or outer witness of L(p), candidates up to the cutoff."""
    mism = identity_witness(p)
    if mism is None:
        return Witness("", "inner")
    u, v = mism
    families = pair_witnesses(u, v)
    if families is None:
        return NoWitness((u, v))
    # the mismatch pair is conjugate; a non-conjugate pair may still hide a
    # little deeper, and finding one settles the answer negatively
    bad = _nonconjugate_pair_scan(p, min(max(len(u) + 2, 4), 6))
    if bad is not None:
        return NoWitness(bad)
    for z, side in witness_candidates(families.inner + families.outer, cutoff):
        if verify_witness(p, z, side):
            return Witness(z, side)
    shortest = min(families.inner + families.outer,
                   key=lambda f: (len(f.member(0)), f.member(0)))
    return WitnessUnknown(cutoff, (u, v), shortest)


# ---------------------------------------------------------------------------
# closeness w.r.t. conjugacy: one witness per summand
# ---------------------------------------------------------------------------

def close_conjugacy_transducers(p: PairAutomaton):
    """Conjugacy closeness on p, the pair automaton of two machines with one
    domain, with an input-level certificate.

    Close iff every accepted pair is conjugate.  Conjugate words have equal
    lengths, so a p that is not length-preserving is NotClose at once: the
    input and its outputs come off one unbalanced path.  Otherwise every
    summand of `sumfree_decompose(p)` is searched for a common witness,
    with candidates up to 1 + the summand's transitions.  A witness z
    bounds the distance on the summand by |z|, so the Close bound is the
    longest witness found.  A non-conjugate pair of a summand gives
    NotClose, with the input of its path in p; a search that runs out of
    candidates leaves the verdict Unknown.
    """
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    unknown = None
    bound = 0
    for summand in sumfree_decompose(p):
        res = _witness_search(summand, 1 + len(summand.nfa.transitions))
        if isinstance(res, NoWitness):
            path = find_pair_path(p, res.pair)
            if path is None:
                raise IntegrityError(
                    "non-conjugate pair not generated by automaton")
            return NotClose(InfiniteWordCertificate(
                input_word_of_path(p, path), res.pair))
        if isinstance(res, WitnessUnknown):
            if unknown is None:
                unknown = Unknown(
                    "no verified witness below the candidate cutoff",
                    cutoff=res.cutoff, detail=res)
        else:
            bound = max(bound, len(res.z))
    return Close(bound=ExtendedNat(bound)) if unknown is None else unknown


# ---------------------------------------------------------------------------
# closeness w.r.t. the Levenshtein family: per-entry loop languages
# ---------------------------------------------------------------------------

def close_levenshtein_transducers(p: PairAutomaton, metric: Metric):
    """Levenshtein-family closeness on p, the trim pair automaton of two
    machines with one domain, with certificates.

    Unbounded prefix gaps give NotClose, pumping an unbalanced cycle.
    Otherwise, for every entry e of every nontrivial strongly connected
    component C (an initial state of C, or the target of an edge from
    another component), the loop language L_e (C's internal edges, e the
    only initial and final state) is searched for a common witness z_e,
    with candidates up to 1 + the number of transitions of L_e.  A
    non-conjugate pair of L_e gives NotClose: its path, mapped back to p's
    transitions, is the loop pumped at e (`loop_certificate`).  Close needs
    every z_e; anything else is Unknown.  A component whose internal edges
    are all diagonal, (x, x) or ('', ''), is settled from its labels with
    no search: every loop pair is (u, u), and u·ε = ε·u, so z_e = ε for
    each of its entries.

    Bound.  An accepting path crosses the DAG of components, entering each
    C at an entry e and leaving it at a state x (the source of the next
    bridging edge, or a final state).  Close its segment (s1, s2) inside C
    with a return path (r1, r2) from x to e inside C: that is a loop at e,
    so s1·r1·z = z·s2·r2 for z = z_e (the outer case is symmetric).  Hence
    s1 and s2 are factors of one word, at offsets 0 and |z|, and deleting
    the letters of one outside their overlap and inserting those of the
    other gives d_L(s1, s2) <= 2|z_e| + ||s1| - |s2||.  Inside C the prefix
    gap (the `lo` of `delay_range(p)`) is a constant plus a potential pot,
    so ||s1| - |s2|| = |pot(x) - pot(e)| <= spread_C <= 2·max_abs_delay(p),
    where spread_C is the max minus the min of `lo` over C's states.  A
    diagonal component weighs 0: z_e = ε, and its edges all have gap 0, so
    its states share one `lo` and spread_C = 0.  A
    bridging edge (x, y) costs at most 1 when x != y, since labels carry one
    letter per side at most.  The Levenshtein distance is subadditive under
    concatenation, so the longest DAG path B, with each nontrivial component
    weighing 2·max_e |z_e| + spread_C and each bridging edge its cost,
    bounds the distance on every input.  d_LCS <= 2·d_L doubles B for
    LCS; d_DL <= d_L keeps it for Damerau.
    """
    gaps = delay_range(p)
    if gaps is None:
        return NotClose(unbalanced_loop_certificate(p))
    lo = gaps[0]
    analysis = components(p)
    comp, comps = analysis.comp, analysis.comps
    local = [0] * p.nfa.n_states
    for members in comps:
        for i, s in enumerate(members):
            local[s] = i
    internal: list[list[tuple]] = [[] for _ in comps]
    inside: list[list[int]] = [[] for _ in comps]  # p's id per internal edge
    entries: list[set[int]] = [set() for _ in comps]
    into: list[list[tuple[int, int]]] = [[] for _ in comps]
    off_diagonal = [False] * len(comps)  # an internal edge with x != y
    for s in p.nfa.initials:
        entries[comp[s]].add(s)
    for t, (s, (x, y), d) in enumerate(p.nfa.transitions):
        if comp[s] == comp[d]:
            internal[comp[s]].append((local[s], (x, y), local[d]))
            inside[comp[s]].append(t)
            off_diagonal[comp[s]] |= x != y
        else:
            entries[comp[d]].add(d)
            into[comp[d]].append((comp[s], int(x != y)))
    unknown = None
    best: list[int] = []  # longest weighted DAG path ending in a component
    for c, members in enumerate(comps):
        weight = 0
        if off_diagonal[c]:
            longest = 0
            for e in sorted(entries[c]):
                loops = PairAutomaton.from_edges(
                    len(members), [local[e]], [local[e]], internal[c],
                    p.left_alphabet, p.right_alphabet, do_trim=False)
                res = _witness_search(loops, 1 + len(loops.nfa.transitions))
                if isinstance(res, NoWitness):
                    # p's labels are split: one transition per edge
                    loop = [inside[c][t]
                            for t in find_pair_path(loops, res.pair)]
                    return NotClose(loop_certificate(metric, p, e, loop))
                if isinstance(res, WitnessUnknown):
                    if unknown is None:
                        unknown = Unknown(
                            "no verified witness below the candidate cutoff",
                            cutoff=res.cutoff, detail=res)
                else:
                    longest = max(longest, len(res.z))
            spread = (max(lo[s] for s in members)
                      - min(lo[s] for s in members))
            weight = 2 * longest + spread
        best.append(weight + max((best[a] + cost for a, cost in into[c]),
                                 default=0))
    if unknown is not None:
        return unknown
    bound = max(best, default=0)
    if metric is Metric.LCS:
        bound *= 2
    return Close(bound=ExtendedNat(bound))
