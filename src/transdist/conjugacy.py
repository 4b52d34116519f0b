"""Rational expressions of pairs, common witnesses, and the closeness
deciders for the conjugacy and Levenshtein-family distances.

Both deciders reduce closeness to common witnesses: words z with uz = zv
for every pair (u, v) of a language (inner), or zu = vz for all (outer).
Witness candidates come from the split families of a concrete non-identical
pair, are generated lazily in length order up to one cutoff rule (1 + the
transitions of the searched automaton), and are verified exactly against
that automaton, so a wrong verdict is impossible; an exhausted candidate
budget surfaces as Unknown, never as Close or NotClose.

* Conjugacy: conjugate words have equal lengths, so the output lengths are
  checked first, and a pair automaton that is not length-preserving is
  NotClose, certified by an unbalanced pair.  Otherwise state elimination
  turns it into a rational expression, distributed into summands
  (a0,b0)E1*(a1,b1)···Ek*(ak,bk) with the stars kept whole, and every
  summand needs a common witness.
* Levenshtein family: no expression is built.  Per entry state e of each
  strongly connected component of the pair automaton, the loop language
  L_e needs a common witness; the distance bound is proven at
  `close_levenshtein_transducers`.

The two transducer-level deciders take the pair automaton alone, and build
none themselves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import IntegrityError, InputError, ResourceLimitError
from .pairauto import (PairAutomaton, components, enumerate_pairs,
                       find_pair_path, delay_range, identity_witness,
                       input_word_of_path, is_length_preserving,
                       wrap_pair_automaton)
from .transducers import (loop_certificate, unbalanced_loop_certificate,
                          unbalanced_word_certificate)
from .verdicts import (Close, InfiniteWordCertificate, NotClose,
                       PairCertificate, Unknown)
from .words import Alphabet, ExtendedNat, Metric

DEFAULT_SUMMAND_LIMIT = 4096


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class PairExpr:
    """Rational expression over pairs of words (pointwise concatenation)."""


@dataclass(frozen=True)
class Empty(PairExpr):
    def __str__(self):
        return "∅"


@dataclass(frozen=True)
class Atom(PairExpr):
    x: str
    y: str

    def __str__(self):
        if not self.x and not self.y:
            return "()"
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class Cat(PairExpr):
    parts: tuple[PairExpr, ...]

    def __str__(self):
        return " ".join(_paren(p, need=isinstance(p, Sum)) for p in self.parts)


@dataclass(frozen=True)
class Sum(PairExpr):
    parts: tuple[PairExpr, ...]

    def __str__(self):
        return " + ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Star(PairExpr):
    child: PairExpr

    def __str__(self):
        return _paren(self.child, need=isinstance(self.child, (Cat, Sum))) + "*"


def _paren(e: PairExpr, need: bool) -> str:
    return f"({e})" if need else str(e)


EPS_ATOM = Atom("", "")


def cat(*parts: PairExpr) -> PairExpr:
    flat: list[PairExpr] = []
    for p in parts:
        if isinstance(p, Empty):
            return Empty()
        if p == EPS_ATOM:
            continue
        if isinstance(p, Cat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EPS_ATOM
    if len(flat) == 1:
        return flat[0]
    return Cat(tuple(flat))


def sum_(*parts: PairExpr) -> PairExpr:
    flat: list[PairExpr] = []
    seen = set()
    for p in parts:
        if isinstance(p, Empty):
            continue
        items = p.parts if isinstance(p, Sum) else (p,)
        for it in items:
            if it not in seen:
                seen.add(it)
                flat.append(it)
    if not flat:
        return Empty()
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def star(child: PairExpr) -> PairExpr:
    if isinstance(child, Empty) or child == EPS_ATOM:
        return EPS_ATOM
    if isinstance(child, Star):
        return child
    return Star(child)


# ---------------------------------------------------------------------------
# expression <-> automaton
# ---------------------------------------------------------------------------

def to_pair_automaton(e: PairExpr, left_alphabet: Alphabet | None = None,
                      right_alphabet: Alphabet | None = None) -> PairAutomaton:
    """Thompson-style construction; labels normalized to single letters."""
    if left_alphabet is None or right_alphabet is None:
        letters = sorted(_letters_of(e))
        inferred = Alphabet(letters if letters else "a")
        left_alphabet = left_alphabet or inferred
        right_alphabet = right_alphabet or inferred
    edges: list[tuple] = []
    counter = [2]  # 0 = global start, 1 = global end

    def fresh():
        counter[0] += 1
        return counter[0] - 1

    def build(node, src, dst):
        if isinstance(node, Empty):
            return
        if isinstance(node, Atom):
            edges.append((src, (node.x, node.y), dst))
            return
        if isinstance(node, Cat):
            cur = src
            for part in node.parts[:-1]:
                nxt = fresh()
                build(part, cur, nxt)
                cur = nxt
            build(node.parts[-1], cur, dst)
            return
        if isinstance(node, Sum):
            for part in node.parts:
                build(part, src, dst)
            return
        if isinstance(node, Star):
            hub = fresh()
            edges.append((src, ("", ""), hub))
            build(node.child, hub, hub)
            edges.append((hub, ("", ""), dst))
            return
        raise InputError(f"not a pair expression node: {node!r}")

    build(e, 0, 1)
    return PairAutomaton.from_edges(counter[0], [0], [1], edges,
                                    left_alphabet, right_alphabet)


def _letters_of(e: PairExpr) -> set[str]:
    if isinstance(e, Atom):
        return set(e.x) | set(e.y)
    if isinstance(e, (Cat, Sum)):
        out: set[str] = set()
        for p in e.parts:
            out |= _letters_of(p)
        return out
    if isinstance(e, Star):
        return _letters_of(e.child)
    return set()


def state_elimination(p: PairAutomaton) -> PairExpr:
    """Rational expression of pairs with L(expr) = L(p).

    States are eliminated in ascending (in-degree × out-degree) order, ties
    by state index; the order only affects the expression's size.
    """
    n = p.nfa.n_states
    if n == 0:
        return Empty()
    START, END = n, n + 1
    arrows: dict[tuple[int, int], PairExpr] = {}

    def add(s, d, e):
        if (s, d) in arrows:
            arrows[(s, d)] = sum_(arrows[(s, d)], e)
        else:
            arrows[(s, d)] = e

    for s in sorted(p.nfa.initials):
        add(START, s, EPS_ATOM)
    for f in sorted(p.nfa.finals):
        add(f, END, EPS_ATOM)
    for s, (x, y), d in p.nfa.transitions:
        add(s, d, Atom(x, y))

    remaining = set(range(n))
    while remaining:
        def cost(s):
            indeg = sum(1 for (a, b) in arrows if b == s and a != s)
            outdeg = sum(1 for (a, b) in arrows if a == s and b != s)
            return (indeg * outdeg, s)

        s = min(remaining, key=cost)
        remaining.discard(s)
        loop = arrows.pop((s, s), None)
        loop_star = star(loop) if loop is not None else EPS_ATOM
        ins = [(a, e) for (a, b), e in arrows.items() if b == s]
        outs = [(b, e) for (a, b), e in arrows.items() if a == s]
        for (a, _) in ins:
            arrows.pop((a, s))
        for (b, _) in outs:
            arrows.pop((s, b))
        for a, ein in ins:
            for b, eout in outs:
                add(a, b, cat(ein, loop_star, eout))
    return arrows.get((START, END), Empty())


# ---------------------------------------------------------------------------
# sumfree decomposition
# ---------------------------------------------------------------------------

def sumfree_decompose(e: PairExpr) -> list[PairExpr]:
    """Equivalent sum of expressions with no sum outside their stars.

    Concatenation distributes over the sums outside stars; a star is kept
    whole.  Each summand is (a0,b0)E1*(a1,b1)···Ek*(ak,bk) with the star
    bodies Ei as they come, which is all a witness search needs: it reads
    the summand's language, and z witnesses G* iff z witnesses G.  The
    distribution can blow up exponentially in the sums outside stars, hence
    the limit of `DEFAULT_SUMMAND_LIMIT` summands.
    """
    limit = DEFAULT_SUMMAND_LIMIT

    def go(node: PairExpr) -> list[PairExpr]:
        if isinstance(node, Empty):
            return []
        if isinstance(node, Atom):
            return [node]
        if isinstance(node, Sum):
            out: list[PairExpr] = []
            seen = set()
            for part in node.parts:
                for s in go(part):
                    if s not in seen:
                        seen.add(s)
                        out.append(s)
                if len(out) > limit:
                    raise ResourceLimitError(
                        f"sumfree decomposition exceeded {limit} summands")
            return out
        if isinstance(node, Cat):
            acc: list[PairExpr] = [EPS_ATOM]
            for part in node.parts:
                branch = go(part)
                acc = [cat(a, b) for a in acc for b in branch]
                if len(acc) > limit:
                    raise ResourceLimitError(
                        f"sumfree decomposition exceeded {limit} summands")
            return acc
        if isinstance(node, Star):
            return [node]
        raise InputError(f"not a pair expression node: {node!r}")

    return go(e)


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
    """Exact check that z is a common witness of every pair of L(p).

    Builds the pair automaton of {(u·z, z·v)} (inner) or {(z·u, v·z)} (outer)
    and decides whether it is an identity relation.
    """
    if side == "inner":
        wrapped = wrap_pair_automaton(p, ("", z), (z, ""))
    elif side == "outer":
        wrapped = wrap_pair_automaton(p, (z, ""), ("", z))
    else:
        raise InputError(f"side must be inner or outer, got {side!r}")
    return identity_witness(wrapped) is None


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


def common_witness(e: PairExpr, cutoff: int | None = None
                   ) -> Witness | NoWitness | WitnessUnknown:
    """Search a common inner or outer witness of L(e).

    A verified witness or a non-conjugate pair is definitive; running out of
    candidates below the repetition cutoff yields WitnessUnknown.  The
    cutoff defaults to 1 + the number of transitions of the searched
    automaton `to_pair_automaton(e)`, the rule of the Levenshtein route.
    Star bodies need no recursion: z witnesses G* iff z witnesses G,
    because witnesshood is closed under pointwise concatenation and G ⊆ G*.
    """
    p = to_pair_automaton(e)
    if cutoff is None:
        cutoff = 1 + len(p.nfa.transitions)
    return _witness_search(p, cutoff)


# ---------------------------------------------------------------------------
# closeness w.r.t. conjugacy: the sumfree route
# ---------------------------------------------------------------------------

def close_conjugacy(target: PairAutomaton | PairExpr):
    """Close w.r.t. the conjugacy distance iff every generated pair is
    conjugate.

    Per sumfree summand, a common witness z bounds the distance by |z|; the
    overall bound is the maximum over summands.  NotClose carries a concrete
    non-conjugate pair.  Conjugate words have equal lengths, so a pair
    automaton that is not length-preserving is NotClose at once, certified
    by an unbalanced pair, before any expression is built.
    """
    if isinstance(target, PairAutomaton):
        if not is_length_preserving(target):
            return NotClose(PairCertificate(identity_witness(target)))
        e = state_elimination(target)
    else:
        e = target
    unknown = None
    bound = ExtendedNat(0)
    for summand in sumfree_decompose(e):
        res = common_witness(summand)
        if isinstance(res, NoWitness):
            return NotClose(PairCertificate(res.pair))
        if isinstance(res, WitnessUnknown):
            if unknown is None:
                unknown = Unknown(
                    "no verified witness below the candidate cutoff",
                    cutoff=res.cutoff, detail=res)
            continue
        bound = max(bound, ExtendedNat(len(res.z)))
    return Close(bound=bound) if unknown is None else unknown


def close_conjugacy_transducers(p: PairAutomaton):
    """Conjugacy closeness on p, the pair automaton of two machines with one
    domain, with an input-level certificate.  When p is not
    length-preserving, the input and its outputs come off one unbalanced
    path."""
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    verdict = close_conjugacy(p)
    if isinstance(verdict, NotClose):
        bad_pair = verdict.certificate.pair
        path = find_pair_path(p, bad_pair)
        if path is None:
            raise IntegrityError("non-conjugate pair not generated by automaton")
        word = input_word_of_path(p, path)
        return NotClose(InfiniteWordCertificate(word, bad_pair))
    return verdict


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
