"""Brute-force and independent references for the library's answers.

No operation of the library calls this module: it is what the tests and
demos check the library against.  `oracle_distance` searches
the configuration graph of a metric's edit operations breadth-first, from
one word towards another.  `oracle_distance_table` gives the distances
from many binary words at once, by one shortest-path sweep per batch over
the edit graph of all binary words up to a length; it needs numpy and
scipy, which it imports on first use, so `import transdist` needs neither.
`metric_order_check` checks the inequalities between the metrics on sample
pairs.  `enumerate_words` lists the words an automaton accepts up to a
length, `accepts` runs one word through it, and `trim` keeps the states on
its accepting paths (`accessible_states`, `coaccessible_states`);
`min_weight_on` and `min_weight_table` read the least run weights of a
(min,+) distance automaton (`kapprox.build_kapprox`) off its runs on given
inputs.
`edge_gap` is the length gap of one pair label, and `relation_included`
decides R ⊆ S for bounded-delay relations by padded-encoding inclusion, the
test that `relations.index` makes on each level.  `distance_subst` computes
the exact Hamming and transposition distances through an acyclic gadget, a
route independent of `substitution.path_distance`.
"""

from __future__ import annotations

import functools
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .automata import EPSILON, Nfa, epsilon_closure, scc_decomposition
from .errors import IntegrityError, InputError, ResourceLimitError
from .kapprox import DistanceAutomaton
from .pairauto import PairAutomaton, components, delay_range
from .relations import (DEFAULT_CONTAINMENT_CEILING, _included_padded,
                        _padded_nfa)
from .substitution import close_hamming, close_transposition
from .transducers import DomainMismatchError, joint_product
from .verdicts import NotClose
from .words import INF, ZERO, Alphabet, ExtendedNat, Metric, word_distance

DEFAULT_GADGET_CEILING = 20_000
DEFAULT_PATHSET_CEILING = 200_000


class OverBudget:
    """Oracle answer "distance exceeds the search budget"."""

    __slots__ = ("budget",)

    def __init__(self, budget: int):
        self.budget = budget

    def __eq__(self, other):
        return isinstance(other, OverBudget) and other.budget == self.budget

    def __repr__(self):
        return f"OverBudget(>{self.budget})"


def _successors(metric: Metric, w: str, letters: tuple[str, ...]) -> list[str]:
    out = []
    n = len(w)
    if metric in (Metric.HAMMING, Metric.LEVENSHTEIN, Metric.DAMERAU_LEVENSHTEIN):
        for i in range(n):
            for c in letters:
                if c != w[i]:
                    out.append(w[:i] + c + w[i + 1:])
    if metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
        for i in range(n):
            out.append(w[:i] + w[i + 1:])
        for i in range(n + 1):
            for c in letters:
                out.append(w[:i] + c + w[i:])
    if metric in (Metric.TRANSPOSITION, Metric.DAMERAU_LEVENSHTEIN):
        for i in range(n - 1):
            if w[i] != w[i + 1]:
                out.append(w[:i] + w[i + 1] + w[i] + w[i + 2:])
    if metric is Metric.CONJUGACY and n > 0:
        out.append(w[1:] + w[0])   # left shift
        out.append(w[-1] + w[:-1])  # right shift
    return out


def oracle_distance(metric: Metric, u: str, v: str, budget: int,
                    alphabet: Alphabet | None = None) -> ExtendedNat | OverBudget:
    """Breadth-first search over the metric's edit graph from u towards v.

    Returns the exact distance when it is at most `budget`; returns
    `OverBudget` when the search exhausts the budget first; returns ∞ when
    the reachable component is fully explored without meeting v.
    """
    if budget < 0:
        raise InputError("oracle budget must be nonnegative")
    if alphabet is None:
        alphabet = Alphabet(sorted(set(u) | set(v)))
    else:
        alphabet.validate(u, "left word")
        alphabet.validate(v, "right word")
    if metric is Metric.DISCRETE:
        return ZERO if u == v else INF
    if metric is Metric.LENGTH:
        # configuration graph on word lengths, steps of ±1
        frontier, target, visited = {len(u)}, len(v), {len(u)}
        for depth in range(budget + 1):
            if target in frontier:
                return ExtendedNat(depth)
            nxt = set()
            for k in frontier:
                for k2 in (k - 1, k + 1):
                    if k2 >= 0 and k2 not in visited:
                        visited.add(k2)
                        nxt.add(k2)
            frontier = nxt
        return OverBudget(budget)

    letters = alphabet.letters
    length_varies = metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN)
    visited = {u}
    frontier = [u]
    for depth in range(budget + 1):
        for w in frontier:
            if w == v:
                return ExtendedNat(depth)
        if depth == budget:
            break
        nxt = []
        remaining = budget - depth - 1
        for w in frontier:
            for w2 in _successors(metric, w, letters):
                if w2 in visited:
                    continue
                # each edit changes length by at most 1, so prune states that
                # cannot reach v's length within the remaining budget
                if length_varies and abs(len(w2) - len(v)) > remaining:
                    continue
                visited.add(w2)
                nxt.append(w2)
        if not nxt:
            return INF  # component exhausted without reaching v
        frontier = nxt
    return OverBudget(budget)


# Bulk oracle used by the exhaustive validation suites: distances from each
# source word to every binary word of length <= max_target_len, by a
# scipy.sparse shortest-path sweep over a precomputed edit graph.

def _word_to_id(w: str, index: dict[str, int]) -> int:
    code = 1
    for c in w:
        code = (code << 1) | index[c]
    return code


@functools.lru_cache(maxsize=16)
def _binary_edit_graph(metric: Metric, max_len: int):
    """Sparse adjacency over all binary words of length <= max_len."""
    import numpy as np
    from scipy import sparse

    n_nodes = 1 << (max_len + 1)
    srcs, dsts = [], []

    def emit(a, b):
        srcs.append(a)
        dsts.append(b)

    for n in range(max_len + 1):
        base = 1 << n
        ids = np.arange(base, base << 1, dtype=np.int64)
        if metric in (Metric.HAMMING, Metric.LEVENSHTEIN, Metric.DAMERAU_LEVENSHTEIN):
            for i in range(n):
                emit(ids, ids ^ (1 << i))
        if metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
            for i in range(n):  # delete the letter i positions from the right
                high = (ids >> (i + 1)) << i
                low = ids & ((1 << i) - 1)
                emit(ids, high | low)
            if n < max_len:
                for i in range(n + 1):  # insert at i positions from the right
                    high = (ids >> i) << (i + 1)
                    low = ids & ((1 << i) - 1)
                    emit(ids, high | low)
                    emit(ids, high | (1 << i) | low)
        if metric in (Metric.TRANSPOSITION, Metric.DAMERAU_LEVENSHTEIN):
            for i in range(n - 1):
                bits = (ids >> i) ^ (ids >> (i + 1))
                swap = ids ^ (((bits & 1) << i) | ((bits & 1) << (i + 1)))
                emit(ids, swap)
        if metric is Metric.CONJUGACY and n > 0:
            top = (ids >> (n - 1)) & 1
            left = ((ids & ((1 << (n - 1)) - 1)) << 1) | top | (1 << n)
            emit(ids, left)
            bottom = ids & 1
            right = (1 << n) | ((ids & ((1 << n) - 1)) >> 1) | (bottom << (n - 1))
            emit(ids, right)

    if srcs:
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        keep = src != dst
        src, dst = src[keep], dst[keep]
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    data = np.ones(len(src), dtype=np.int8)
    return sparse.csr_matrix((data, (src, dst)), shape=(n_nodes, n_nodes))


def oracle_distances_from(metric: Metric, u: str, budget: int, alphabet: Alphabet,
                          max_target_len: int) -> dict[str, ExtendedNat | OverBudget]:
    """Oracle distances from u to every word of length <= max_target_len.

    Values are exact distances <= budget, OverBudget, or ∞ when the
    component was exhausted.
    """
    return oracle_distance_table(metric, [u], budget, alphabet,
                                 max_target_len)[u]


def _all_words(alphabet: Alphabet, max_len: int) -> list[str]:
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in alphabet.letters]
        words.extend(frontier)
    return words


def oracle_distance_table(metric: Metric, sources: list[str], budget: int,
                          alphabet: Alphabet, max_target_len: int,
                          ) -> dict[str, dict[str, ExtendedNat | OverBudget]]:
    """Batched oracle over a binary alphabet: {source: {target: value}}.

    The six edit metrics run one shortest-path sweep per batch of sources
    over a shared edit graph.  The length and discrete metrics change no
    letter, so that graph has no edges for them: their values come from
    `oracle_distance`, one pair at a time.
    """
    if len(alphabet) != 2:
        raise InputError(f"the bulk oracle needs a binary alphabet, got {alphabet!r}")
    targets = _all_words(alphabet, max_target_len)
    if metric in (Metric.LENGTH, Metric.DISCRETE):
        return {u: {w: oracle_distance(metric, u, w, budget, alphabet)
                    for w in targets}
                for u in sources}

    import numpy as np
    from scipy.sparse.csgraph import dijkstra

    length_varies = metric in (Metric.LEVENSHTEIN, Metric.LCS,
                               Metric.DAMERAU_LEVENSHTEIN)
    # a path of at most `budget` unit-length steps between two words of at
    # most m letters climbs to length L and comes back down, so it has at
    # least 2L - 2m steps: it never passes m + budget // 2 letters
    graph_len = max([max_target_len] + [len(u) for u in sources]) \
        + (budget // 2 if length_varies else 0)
    graph = _binary_edit_graph(metric, graph_len)
    target_ids = np.array([_word_to_id(w, alphabet.index) for w in targets])
    out: dict[str, dict[str, ExtendedNat | OverBudget]] = {}
    batch = 64
    for lo in range(0, len(sources), batch):
        chunk = sources[lo:lo + batch]
        ids = [_word_to_id(u, alphabet.index) for u in chunk]
        dist = dijkstra(graph, directed=True, indices=ids, unweighted=True,
                        limit=budget)
        for row, u in enumerate(chunk):
            d = dist[row]
            # the edit graph of the Levenshtein family is connected, so the
            # capped graph must not report its component as exhausted
            exhausted = not length_varies and bool(
                np.all(np.isinf(d) | (d < budget)))
            table: dict[str, ExtendedNat | OverBudget] = {}
            vals = d[target_ids]
            for w, val in zip(targets, vals):
                if np.isinf(val):
                    table[w] = INF if exhausted else OverBudget(budget)
                else:
                    table[w] = ExtendedNat(int(val))
            out[u] = table
    return out


# ---------------------------------------------------------------------------
# Metric-order report
# ---------------------------------------------------------------------------

_ORDER_CHECKS = (
    ("d_len <= d_h", Metric.LENGTH, 1, Metric.HAMMING, 1),
    ("d_len <= d_t", Metric.LENGTH, 1, Metric.TRANSPOSITION, 1),
    ("d_len <= d_c", Metric.LENGTH, 1, Metric.CONJUGACY, 1),
    ("d_len <= d_l", Metric.LENGTH, 1, Metric.LEVENSHTEIN, 1),
    ("d_len <= d_lcs", Metric.LENGTH, 1, Metric.LCS, 1),
    ("d_len <= d_dl", Metric.LENGTH, 1, Metric.DAMERAU_LEVENSHTEIN, 1),
    ("d_h <= d_inf", Metric.HAMMING, 1, Metric.DISCRETE, 1),
    ("d_t <= d_inf", Metric.TRANSPOSITION, 1, Metric.DISCRETE, 1),
    ("d_c <= d_inf", Metric.CONJUGACY, 1, Metric.DISCRETE, 1),
    ("d_l <= d_inf", Metric.LEVENSHTEIN, 1, Metric.DISCRETE, 1),
    ("d_lcs <= d_inf", Metric.LCS, 1, Metric.DISCRETE, 1),
    ("d_dl <= d_inf", Metric.DAMERAU_LEVENSHTEIN, 1, Metric.DISCRETE, 1),
    ("d_l <= d_lcs", Metric.LEVENSHTEIN, 1, Metric.LCS, 1),
    ("d_lcs <= 2*d_l", Metric.LCS, 1, Metric.LEVENSHTEIN, 2),
    ("d_dl <= d_l", Metric.DAMERAU_LEVENSHTEIN, 1, Metric.LEVENSHTEIN, 1),
    ("d_l <= 2*d_dl", Metric.LEVENSHTEIN, 1, Metric.DAMERAU_LEVENSHTEIN, 2),
    ("d_l <= d_h", Metric.LEVENSHTEIN, 1, Metric.HAMMING, 1),
    ("d_h <= 2*d_t", Metric.HAMMING, 1, Metric.TRANSPOSITION, 2),
    ("d_l <= 2*d_c", Metric.LEVENSHTEIN, 1, Metric.CONJUGACY, 2),
)


def metric_order_check(samples: Iterable[tuple[str, str]],
                       alphabet: Alphabet | None = None):
    """Check the metric-order inequalities on every sample pair.

    Returns None when all inequalities hold, otherwise a tuple
    (inequality name, (u, v), lhs, rhs) for the first violation.
    """
    for u, v in samples:
        values = {m: word_distance(m, u, v, alphabet) for m in Metric}
        for name, lhs_m, lhs_scale, rhs_m, rhs_scale in _ORDER_CHECKS:
            lhs = values[lhs_m] * lhs_scale
            rhs = values[rhs_m] * rhs_scale
            if not lhs <= rhs:
                return (name, (u, v), lhs, rhs)
    return None


# ---------------------------------------------------------------------------
# automata by enumeration
# ---------------------------------------------------------------------------

def enumerate_words(nfa: Nfa, max_len: int) -> set[tuple[Hashable, ...]]:
    """All accepted words of length at most max_len (epsilon-free labels only)."""
    frontier: dict[int, set[tuple]] = {}
    for s in epsilon_closure(nfa, nfa.initials):
        frontier.setdefault(s, set()).add(())
    accepted = set()
    seen_words: dict[int, set[tuple]] = {s: set(ws) for s, ws in frontier.items()}
    todo = deque((s, w) for s, ws in frontier.items() for w in ws)
    adj = nfa.adj()
    while todo:
        s, w = todo.popleft()
        if s in nfa.finals:
            accepted.add(w)
        for x, d, _ in adj[s]:
            w2 = w if x is EPSILON else w + (x,)
            if len(w2) > max_len:
                continue
            bucket = seen_words.setdefault(d, set())
            if w2 not in bucket:
                bucket.add(w2)
                todo.append((d, w2))
    return accepted


def accessible_states(nfa: Nfa) -> set[int]:
    seen = set(nfa.initials)
    todo = deque(seen)
    adj = nfa.adj()
    while todo:
        s = todo.popleft()
        for _, d, _ in adj[s]:
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return seen


def coaccessible_states(nfa: Nfa) -> set[int]:
    seen = set(nfa.finals)
    todo = deque(seen)
    radj = nfa.radj()
    while todo:
        s = todo.popleft()
        for _, p, _ in radj[s]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def trim(nfa: Nfa) -> tuple[Nfa, list[int], list[int]]:
    """Restrict to accessible and coaccessible states.

    Returns (trimmed automaton, old state id per new id, old transition index
    per new index); the language is unchanged.
    """
    keep = sorted(accessible_states(nfa) & coaccessible_states(nfa))
    new_of_old = {old: new for new, old in enumerate(keep)}
    kept_transitions = []
    new_transitions = []
    for t, (s, a, d) in enumerate(nfa.transitions):
        if s in new_of_old and d in new_of_old:
            kept_transitions.append(t)
            new_transitions.append((new_of_old[s], a, new_of_old[d]))
    trimmed = Nfa(len(keep),
                  (new_of_old[s] for s in nfa.initials if s in new_of_old),
                  (new_of_old[s] for s in nfa.finals if s in new_of_old),
                  new_transitions)
    return trimmed, keep, kept_transitions


def accepts(nfa: Nfa, word: Sequence[Hashable]) -> bool:
    """Does nfa accept word?  One subset step per letter."""
    adj = nfa.adj()
    cur = epsilon_closure(nfa, nfa.initials)
    for x in word:
        nxt = set()
        for s in cur:
            for y, d, _ in adj[s]:
                if y == x:
                    nxt.add(d)
        cur = epsilon_closure(nfa, nxt)
        if not cur:
            return False
    return bool(cur & nfa.finals)


def min_weight_table(da: DistanceAutomaton, letters, max_len: int
                     ) -> dict[str, ExtendedNat]:
    """Minimal accepting weights for every input word up to max_len.

    Walks the complete input tree once, carrying per-node cost frontiers;
    words without accepting runs map to ∞, unreachable words are omitted.
    """
    by_src: dict[int, list[tuple[str | None, int, int]]] = {}
    for s, letter, cost, d in da.edges:
        by_src.setdefault(s, []).append((letter, cost, d))

    def closed(frontier: dict[int, int]) -> dict[int, int]:
        heap = [(c, n) for n, c in frontier.items()]
        heapq.heapify(heap)
        best = dict(frontier)
        while heap:
            c, n = heapq.heappop(heap)
            if best.get(n, c + 1) < c:
                continue
            for letter, cost, d in by_src.get(n, ()):
                if letter is None and c + cost < best.get(d, c + cost + 1):
                    best[d] = c + cost
                    heapq.heappush(heap, (c + cost, d))
        return best

    def value(frontier: dict[int, int]) -> ExtendedNat:
        vals = [c + da.accept_cost[n] for n, c in frontier.items()
                if n in da.accept_cost]
        return ExtendedNat(min(vals)) if vals else INF

    results: dict[str, ExtendedNat] = {}
    stack = [("", closed({n: 0 for n in da.initials}))]
    while stack:
        word, frontier = stack.pop()
        results[word] = value(frontier)
        if len(word) == max_len:
            continue
        for a in letters:
            nxt: dict[int, int] = {}
            for n, c in frontier.items():
                for letter, cost, d in by_src.get(n, ()):
                    if letter == a and c + cost < nxt.get(d, c + cost + 1):
                        nxt[d] = c + cost
            if nxt:
                stack.append((word + a, closed(nxt)))
    return results


def min_weight_on(da: DistanceAutomaton, word: str) -> ExtendedNat:
    """Minimal accepting-run weight on the input word (∞ when rejected)."""
    by_src: dict[int, list[tuple[str | None, int, int]]] = {}
    for s, letter, cost, d in da.edges:
        by_src.setdefault(s, []).append((letter, cost, d))
    start = [(0, 0, s) for s in da.initials]
    heapq.heapify(start)
    dist: dict[tuple[int, int], int] = {}
    best = None
    while start:
        w, pos, node = heapq.heappop(start)
        if best is not None and w >= best:
            break
        key = (pos, node)
        if key in dist and dist[key] <= w:
            continue
        dist[key] = w
        if pos == len(word) and node in da.accept_cost:
            total = w + da.accept_cost[node]
            if best is None or total < best:
                best = total
        for letter, cost, d in by_src.get(node, ()):
            if letter is None:
                heapq.heappush(start, (w + cost, pos, d))
            elif pos < len(word) and word[pos] == letter:
                heapq.heappush(start, (w + cost, pos + 1, d))
    return INF if best is None else ExtendedNat(best)


# ---------------------------------------------------------------------------
# pair automata and relations
# ---------------------------------------------------------------------------

def edge_gap(label: tuple[str, str]) -> int:
    """|x| - |y| for the pair label (x, y)."""
    x, y = label
    return len(x) - len(y)


def relation_included(small: PairAutomaton, big: PairAutomaton,
                      ceiling: int = DEFAULT_CONTAINMENT_CEILING) -> bool:
    """small ⊆ big for bounded-delay relations, by padded-encoding inclusion.

    Both relations are synchronized into letter-to-letter encodings padded
    with ⊥; small ⊆ big iff every padded word of small is a padded word of
    big, which `automata.included` decides against padded big determinized
    as far as padded small reads it (`relations._included_padded`).  A
    letter pair that big never uses is a missing move there, so it rejects.
    """
    return _included_padded(_padded_nfa(small, ceiling), big, ceiling)


# ---------------------------------------------------------------------------
# Hamming and transposition distances through the acyclic gadget
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

    for s, lbl, d in p.nfa.transitions:
        if pipe.comp[s] != pipe.comp[d]:
            edges.append((exit_(s), lbl, entry(d)))
    initials = [entry(s) for s in sorted(p.nfa.initials)]
    finals = [exit_(f) for f in sorted(p.nfa.finals)]
    return Nfa(len(order), initials, finals, edges)


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
    for s in at.initials:
        for u, v in suffix[s]:
            d = word_distance(metric, u, v, alphabet)
            if d == INF:
                raise IntegrityError(
                    "infinite path distance on a machine declared close")
            best = max(best, d)
    return best


def distance_subst(metric: Metric, t1, t2) -> ExtendedNat:
    """Exact Hamming/transposition distance through the acyclic gadget: a
    reference route, independent of `substitution.path_distance`, that
    the tests compare `kapprox.distance` against.

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
    if isinstance(decide(p), NotClose):
        return INF
    gadget = _acyclic_gadget(_build_pipeline(p), DEFAULT_GADGET_CEILING)
    return _max_path_distance(gadget, metric, p.left_alphabet,
                              DEFAULT_PATHSET_CEILING)
