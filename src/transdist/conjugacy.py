"""Rational expressions of pairs, common witnesses, and the closeness
deciders for the conjugacy and Levenshtein-family distances.

The pipeline: state elimination turns a pair automaton into a rational
expression; every expression is a sum of sumfree expressions
(a0,b0)E1*(a1,b1)···Ek*(ak,bk); closeness reduces to the existence of common
witnesses (words z with uz = zv for all generated (u,v), or zu = vz for all).
Witness candidates come from the split families of a concrete non-identical
pair and every candidate is verified exactly against the full automaton, so
a wrong verdict is impossible; an exhausted candidate budget surfaces as
Unknown, never as Close or NotClose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IntegrityError, InputError, ResourceLimitError
from .pairauto import (PairAutomaton, enumerate_pairs, find_pair_path,
                       identity_witness, input_word_of_path,
                       wrap_pair_automaton)
from .transducers import (domain_mismatch_certificate, same_domain,
                          transducer_pair_automaton)
from .verdicts import (Close, GrowthCertificate, InfiniteWordCertificate,
                       NotClose, PairCertificate, Unknown)
from .words import INF, Alphabet, ExtendedNat, Metric, word_distance

DEFAULT_SUMMAND_LIMIT = 4096


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class PairExpr:
    """Rational expression over pairs of words (pointwise concatenation)."""

    def language_upto(self, max_len: int, left_alphabet=None, right_alphabet=None):
        p = to_pair_automaton(self, left_alphabet, right_alphabet)
        return enumerate_pairs(p, max_len)


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


def expr_size(e: PairExpr) -> int:
    if isinstance(e, (Empty, Atom)):
        return 1
    if isinstance(e, (Cat, Sum)):
        return 1 + sum(expr_size(p) for p in e.parts)
    return 1 + expr_size(e.child)


def _expr_stats(e: PairExpr) -> tuple[int, int]:
    """(total constant letters, number of star nodes)."""
    if isinstance(e, Empty):
        return 0, 0
    if isinstance(e, Atom):
        return len(e.x) + len(e.y), 0
    if isinstance(e, (Cat, Sum)):
        letters = stars = 0
        for p in e.parts:
            a, b = _expr_stats(p)
            letters += a
            stars += b
        return letters, stars
    a, b = _expr_stats(e.child)
    return a, b + 1


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

def sumfree_decompose(e: PairExpr,
                      limit: int = DEFAULT_SUMMAND_LIMIT) -> list[PairExpr]:
    """Equivalent sum of sumfree expressions.

    Concatenation distributes over sums; (X+Y)* rewrites to (X*Y)*X*.  The
    rewriting can blow up exponentially, hence the summand limit.
    """

    def star_of(parts: list[PairExpr]) -> PairExpr:
        if not parts:
            return EPS_ATOM
        if len(parts) == 1:
            return star(parts[0])
        head_star = star_of(parts[:-1])
        return cat(star(cat(head_star, parts[-1])), head_star)

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
            return [star_of(go(node.child))]
        raise InputError(f"not a pair expression node: {node!r}")

    return go(e)


@dataclass(frozen=True)
class Sumfree:
    """Canonical shape (consts[0]) stars[0]* (consts[1]) ... stars[k-1]* (consts[k])."""
    consts: tuple[tuple[str, str], ...]
    stars: tuple[PairExpr, ...]

    @property
    def expr(self) -> PairExpr:
        parts = [Atom(*self.consts[0])]
        for body, const in zip(self.stars, self.consts[1:]):
            parts.append(star(body))
            parts.append(Atom(*const))
        return cat(*parts)


def canonical_sumfree(e: PairExpr) -> Sumfree:
    """Flatten a sumfree expression into alternating constants and stars."""
    consts: list[tuple[str, str]] = [("", "")]
    stars: list[PairExpr] = []

    def walk(node):
        if isinstance(node, Atom):
            u, v = consts[-1]
            consts[-1] = (u + node.x, v + node.y)
        elif isinstance(node, Cat):
            for part in node.parts:
                walk(part)
        elif isinstance(node, Star):
            stars.append(node.child)
            consts.append(("", ""))
        elif isinstance(node, Empty):
            raise InputError("empty expression has no sumfree shape")
        else:
            raise InputError(f"expression contains a sum: {node}")

    walk(e)
    return Sumfree(tuple(consts), tuple(stars))


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


def verify_witness(target: PairAutomaton | PairExpr, z: str, side: str) -> bool:
    """Exact check that z is a common witness of every pair of the language.

    Builds the pair automaton of {(u·z, z·v)} (inner) or {(z·u, v·z)} (outer)
    and decides whether it is an identity relation.
    """
    p = target if isinstance(target, PairAutomaton) else to_pair_automaton(target)
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


def witness_cutoff(e: PairExpr) -> int:
    letters, stars = _expr_stats(e)
    return 1 + letters + stars


def _nonconjugate_pair_scan(p: PairAutomaton, max_len: int) -> tuple[str, str] | None:
    """Bounded search for a generated non-conjugate pair."""
    for u, v in sorted(enumerate_pairs(p, max_len)):
        if pair_witnesses(u, v) is None:
            return u, v
    return None


def common_witness(e: PairExpr, cutoff: int | None = None
                   ) -> Witness | NoWitness | WitnessUnknown:
    """Search a common inner or outer witness of L(e).

    A verified witness or a non-conjugate pair is definitive; running out of
    candidates below the repetition cutoff yields WitnessUnknown.  Star
    bodies need no recursion: z witnesses G* iff z witnesses G, because
    witnesshood is closed under pointwise concatenation and G ⊆ G*.
    """
    p = to_pair_automaton(e)
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
    if cutoff is None:
        cutoff = witness_cutoff(e)
    candidates: dict[tuple[str, str], None] = {}
    for fam in families.inner + families.outer:
        for j in range(cutoff + 1):
            candidates[(fam.member(j), fam.side)] = None
    for z, side in sorted(candidates, key=lambda t: (len(t[0]), t[0], t[1])):
        if verify_witness(p, z, side):
            return Witness(z, side)
    shortest = min(families.inner + families.outer,
                   key=lambda f: (len(f.member(0)), f.member(0)))
    return WitnessUnknown(cutoff, (u, v), shortest)


# ---------------------------------------------------------------------------
# closeness deciders (expression level)
# ---------------------------------------------------------------------------

def _as_expr(target: PairAutomaton | PairExpr) -> PairExpr:
    if isinstance(target, PairAutomaton):
        return state_elimination(target)
    return target


def _close_conjugacy_detail(target, summand_limit):
    e = _as_expr(target)
    unknown = None
    bound = ExtendedNat(0)
    for summand in sumfree_decompose(e, summand_limit):
        res = common_witness(summand)
        if isinstance(res, NoWitness):
            return NotClose(PairCertificate(res.pair)), res.pair
        if isinstance(res, WitnessUnknown):
            unknown = unknown or Unknown(
                "no verified witness below the candidate cutoff",
                cutoff=res.cutoff, detail=res)
            continue
        bound = max(bound, ExtendedNat(len(res.z)))
    if unknown is not None:
        return unknown, None
    return Close(bound=bound), None


def close_conjugacy(target: PairAutomaton | PairExpr,
                    summand_limit: int = DEFAULT_SUMMAND_LIMIT):
    """Close w.r.t. the conjugacy distance iff every generated pair is conjugate.

    Per sumfree summand, a common witness z bounds the distance by |z|; the
    overall bound is the maximum over summands.  NotClose carries a concrete
    non-conjugate pair.
    """
    verdict, _ = _close_conjugacy_detail(target, summand_limit)
    return verdict


def _close_levenshtein_detail(target, metric, summand_limit):
    if metric not in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
        raise InputError(f"not a Levenshtein-family metric: {metric}")
    e = _as_expr(target)
    unknown = None
    bound = ExtendedNat(0)
    for summand in sumfree_decompose(e, summand_limit):
        shape = canonical_sumfree(summand)
        total = ExtendedNat(0)
        for const in shape.consts:
            total = total + word_distance(Metric.LEVENSHTEIN, const[0], const[1])
        for i, body in enumerate(shape.stars):
            res = common_witness(body)
            if isinstance(res, NoWitness):
                pumped = _pumped_pair(shape, i, res.pair, 1)
                return NotClose(PairCertificate(pumped)), (res.pair, shape, i)
            if isinstance(res, WitnessUnknown):
                unknown = unknown or Unknown(
                    "no verified witness below the candidate cutoff",
                    cutoff=res.cutoff, detail=res)
                total = None
                break
            total = total + 2 * len(res.z)
        if total is not None:
            bound = max(bound, total)
    if unknown is not None:
        return unknown, None
    if metric is Metric.LCS:
        bound = bound * 2
    return Close(bound=bound), None


def close_levenshtein(target: PairAutomaton | PairExpr,
                      metric: Metric = Metric.LEVENSHTEIN,
                      summand_limit: int = DEFAULT_SUMMAND_LIMIT):
    """Levenshtein-family closeness: every starred body must be conjugate.

    The bound Σ d_l(α_j, β_j) + 2·Σ|z_i| is scaled by 2 for the LCS
    distance; the Damerau-Levenshtein distance is bounded by the Levenshtein
    value itself.  The verdict is shared by all three metrics.
    """
    verdict, _ = _close_levenshtein_detail(target, metric, summand_limit)
    return verdict


# ---------------------------------------------------------------------------
# transducer-level deciders with input-word certificates
# ---------------------------------------------------------------------------

def _pumped_pair(shape: Sumfree, star_index: int, pair: tuple[str, str],
                 pumps: int) -> tuple[str, str]:
    """The summand's pair with one chosen star pumped and the others empty."""
    u = shape.consts[0][0]
    v = shape.consts[0][1]
    for i, const in enumerate(shape.consts[1:]):
        if i == star_index:
            u += pair[0] * pumps
            v += pair[1] * pumps
        u += const[0]
        v += const[1]
    return u, v


def _growth_certificate(p: PairAutomaton, metric: Metric, shape: Sumfree,
                        star_index: int, pair: tuple[str, str],
                        needed: int = 3, scan_limit: int = 200):
    """Inputs realizing strictly increasing distances along pumped pairs."""
    words_list: list[str] = []
    pumps: list[int] = []
    values: list[ExtendedNat] = []
    m = 1
    while len(words_list) < needed and m <= scan_limit:
        full = _pumped_pair(shape, star_index, pair, m)
        d = word_distance(metric, full[0], full[1])
        if d == INF or not values or d > values[-1]:
            path = find_pair_path(p, full)
            if path is None:
                raise IntegrityError(
                    "pumped certificate pair is not generated by the automaton")
            words_list.append(input_word_of_path(p, path))
            pumps.append(m)
            values.append(d)
            if d == INF:
                break
        m += 1
    if len(values) < needed and (not values or values[-1] != INF):
        raise IntegrityError("certificate growth not observed within scan limit")
    return GrowthCertificate(tuple(words_list), tuple(pumps))


def close_conjugacy_transducers(t1, t2,
                                summand_limit: int = DEFAULT_SUMMAND_LIMIT):
    """Conjugacy closeness of two transducers, with an input-level certificate."""
    if not same_domain(t1, t2):
        return NotClose(domain_mismatch_certificate(t1, t2))
    p = transducer_pair_automaton(t1, t2)
    verdict, bad_pair = _close_conjugacy_detail(p, summand_limit)
    if isinstance(verdict, NotClose):
        path = find_pair_path(p, bad_pair)
        if path is None:
            raise IntegrityError("non-conjugate pair not generated by automaton")
        word = input_word_of_path(p, path)
        return NotClose(InfiniteWordCertificate(word, bad_pair))
    return verdict


def close_levenshtein_transducers(t1, t2, metric: Metric = Metric.LEVENSHTEIN,
                                  summand_limit: int = DEFAULT_SUMMAND_LIMIT):
    """Levenshtein-family closeness of two transducers with certificates."""
    if not same_domain(t1, t2):
        return NotClose(domain_mismatch_certificate(t1, t2))
    p = transducer_pair_automaton(t1, t2)
    verdict, detail = _close_levenshtein_detail(p, metric, summand_limit)
    if isinstance(verdict, NotClose):
        pair, shape, star_index = detail
        cert = _growth_certificate(p, metric, shape, star_index, pair)
        return NotClose(cert)
    return verdict
