"""Generic k-closeness via (min,+) distance automata, and exact distances by
an upward search over k.

For the substitution/indel metrics the automaton tracks a budget and a
one-sided unmatched leftover word; per transition it nondeterministically
aligns a prefix of the two output streams, paying the chunk's exact edit
cost.  For the conjugacy distance a two-phase automaton first stores output
prefixes, then commits to a shift direction and matches the shifted streams;
the run cost is the number of shifts claimed.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .automata import (DEFAULT_STATE_CEILING, Nfa, determinize,
                       equiv_unambiguous)
from .conjugacy import (close_conjugacy_transducers,
                        close_levenshtein_transducers)
from .errors import (InputError, IntegrityError, PreconditionError,
                     ResourceLimitError)
from .pairauto import PairAutomaton, identity_witness, max_abs_delay
from .substitution import close_hamming, close_transposition
from .transducers import (JointMachine, joint_product, length_close,
                          pair_automaton, same_domain,
                          transducer_pair_automaton)
from .verdicts import Close, NotClose, Unknown
from .words import (INF, ExtendedNat, LEVENSHTEIN_FAMILY, Metric,
                    word_distance)


@dataclass
class DistanceAutomaton:
    """Explicit (min,+)-weighted automaton of the k-approximation."""
    metric: Metric
    k: int
    nodes: list
    edges: list[tuple[int, str | None, int, int]]  # (src, input letter, cost, dst)
    initials: list[int]
    accept_cost: dict[int, int]  # node -> extra cost paid at acceptance

    def skeleton(self) -> Nfa:
        """Input-letter NFA whose language is {w : distance on w <= k}."""
        transitions = [(s, letter, d) for s, letter, _, d in self.edges]
        return Nfa(len(self.nodes), self.initials,
                   sorted(self.accept_cost), transitions)


_CROSSING_METRICS = (Metric.TRANSPOSITION, Metric.DAMERAU_LEVENSHTEIN)


def _build_subst_family(metric: Metric, p: PairAutomaton, k: int,
                        leftover_cap: int, ceiling: int) -> DistanceAutomaton:
    crossing = metric in _CROSSING_METRICS
    # chunks repeat across nodes: one kernel run per distinct (prefix, prefix)
    # pair, stored as an int (None for an infinite cost)
    costs: dict[tuple[str, str], int | None] = {}

    def align_cost(a: str, b: str) -> int | None:
        try:
            return costs[a, b]
        except KeyError:
            d = word_distance(metric, a, b)
            c = costs[a, b] = d.value() if d.is_finite else None
            return c

    ids: dict[tuple, int] = {}
    nodes: list[tuple] = []
    todo: deque[tuple] = deque()

    def get(cfg):
        if cfg not in ids:
            if len(ids) >= ceiling:
                raise ResourceLimitError(
                    f"distance automaton exceeded {ceiling} states")
            ids[cfg] = len(nodes)
            nodes.append(cfg)
            todo.append(cfg)
        return ids[cfg]

    initials = [get((q, k, "", "")) for q in sorted(p.nfa.initials)]
    edges: list[tuple[int, str | None, int, int]] = []
    accept_cost: dict[int, int] = {}
    adj = p.nfa.adj()
    while todo:
        cfg = todo.popleft()
        sid = ids[cfg]
        q, b, lu, lv = cfg
        if q in p.nfa.finals:
            flush = align_cost(lu, lv)
            if flush is not None and flush <= b:
                prev = accept_cost.get(sid)
                if prev is None or flush < prev:
                    accept_cost[sid] = flush
        for (x, y), d, t in adj[q]:
            left = lu + x
            right = lv + y
            letter = p.input_letters[t]
            best: dict[tuple, int] = {}
            for i, j in _consumption_points(left, right, crossing):
                cost = align_cost(left[:i], right[:j])
                if cost is None or cost > b:
                    continue
                rest_l, rest_r = left[i:], right[j:]
                if len(rest_l) > leftover_cap or len(rest_r) > leftover_cap:
                    continue
                key = (d, b - cost, rest_l, rest_r)
                if key not in best or cost < best[key]:
                    best[key] = cost
            for key, cost in sorted(best.items()):
                edges.append((sid, letter, cost, get(key)))
    return DistanceAutomaton(metric, k, nodes, edges, initials, accept_cost)


def _consumption_points(left: str, right: str, crossing: bool):
    """Cut points of a chunk alignment.

    Alignments without crossing edits decompose at one-sided frontiers, so
    the residual stays one-sided; adjacent transpositions cross cut points,
    which forces residuals on both sides until a balanced point is reached.
    """
    if crossing:
        for i in range(len(left) + 1):
            for j in range(len(right) + 1):
                yield i, j
    else:
        for j in range(len(right) + 1):
            yield len(left), j
        for i in range(len(left)):
            yield i, len(right)


def _build_conjugacy(p: PairAutomaton, k: int, delay_cap: int,
                     ceiling: int) -> DistanceAutomaton:
    ids: dict[tuple, int] = {}
    nodes: list[tuple] = []
    todo: deque[tuple] = deque()

    def get(cfg):
        if cfg not in ids:
            if len(ids) >= ceiling:
                raise ResourceLimitError(
                    f"distance automaton exceeded {ceiling} states")
            ids[cfg] = len(nodes)
            nodes.append(cfg)
            todo.append(cfg)
        return ids[cfg]

    initials = [get((q, "store", "", "")) for q in sorted(p.nfa.initials)]
    edges: list[tuple[int, str | None, int, int]] = []
    accept_cost: dict[int, int] = {}
    adj = p.nfa.adj()
    match_cap = delay_cap + k

    def add_switches(cfg):
        """Commit to a shift direction; cost = length of the stored prefix."""
        q, _, u, v = cfg
        sid = ids[cfg]
        if len(u) <= k:
            # shift left by |u|: T2's stream must equal T1 shifted; the
            # already-arrived T2 prefix v waits for T1's upcoming letters
            tgt = get((q, "match", "L", u, 2, v))
            edges.append((sid, None, len(u), tgt))
        if len(v) <= k and (u or v):
            # shift right by |v|: T1's arrivals wait for T2's upcoming letters
            tgt = get((q, "match", "R", v, 1, u))
            edges.append((sid, None, len(v), tgt))

    done_switch = set()
    while todo:
        cfg = todo.popleft()
        sid = ids[cfg]
        if cfg[1] == "store":
            q, _, u, v = cfg
            if sid not in done_switch:
                done_switch.add(sid)
                add_switches(cfg)
            if q in p.nfa.finals:
                d = word_distance(Metric.CONJUGACY, u, v)
                if d.is_finite and d.value() <= k:
                    prev = accept_cost.get(sid)
                    if prev is None or d.value() < prev:
                        accept_cost[sid] = d.value()
            for (x, y), dst, t in adj[q]:
                u2, v2 = u + x, v + y
                if abs(len(u2) - len(v2)) > delay_cap:
                    continue
                if min(len(u2), len(v2)) > k:
                    continue
                edges.append((sid, p.input_letters[t], 0,
                              get((dst, "store", u2, v2))))
        else:
            q, _, mode, stored, side, leftover = cfg
            if q in p.nfa.finals:
                # the lagging stream's surplus must be exactly the stored prefix
                if side == 2 and mode == "L" and leftover == stored:
                    accept_cost.setdefault(sid, 0)
                elif side == 1 and mode == "R" and leftover == stored:
                    accept_cost.setdefault(sid, 0)
                elif leftover == "" and stored == "":
                    accept_cost.setdefault(sid, 0)
            for (x, y), dst, t in adj[q]:
                lq = (leftover if side == 1 else "") + x
                rq = (leftover if side == 2 else "") + y
                m = min(len(lq), len(rq))
                if lq[:m] != rq[:m]:
                    continue  # shifted streams must coincide letterwise
                lq, rq = lq[m:], rq[m:]
                nside, nleft = (1, lq) if lq else (2, rq)
                if not nleft:
                    nside = 1
                if len(nleft) > match_cap:
                    continue
                edges.append((sid, p.input_letters[t], 0,
                              get((dst, "match", mode, stored, nside, nleft))))
    return DistanceAutomaton(Metric.CONJUGACY, k, nodes, edges, initials,
                             accept_cost)


def build_kapprox(metric: Metric, j: JointMachine | PairAutomaton, k: int,
                  ceiling: int = DEFAULT_STATE_CEILING) -> DistanceAutomaton:
    """Distance automaton computing the k-approximation of the distance map.

    For every input w in the domain, the minimal accepting-run weight equals
    d(T1(w), T2(w)) when that value is at most k, and no accepting run exists
    otherwise.  Requires a finite length distance.
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    if metric not in (Metric.HAMMING, Metric.TRANSPOSITION, Metric.CONJUGACY,
                      Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
        raise InputError(f"no distance automaton for metric {metric}")
    p = pair_automaton(j) if isinstance(j, JointMachine) else j
    if p.nfa.n_states == 0:
        return DistanceAutomaton(metric, k, [], [], [], {})
    delay = max_abs_delay(p)
    if delay is None:
        raise PreconditionError(
            "unbounded length distance: the machines are not close under any "
            "edit metric")
    if metric is Metric.CONJUGACY:
        return _build_conjugacy(p, k, delay, ceiling)
    # residual width beyond delay + k + 1 forces more than k edits: a letter
    # pending across a frontier of width w has its partner at displacement at
    # least w - 1 - delay, which costs at least that many edits
    return _build_subst_family(metric, p, k, delay + k + 2, ceiling)


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
# k-closeness and the distance search
# ---------------------------------------------------------------------------

def _length_loop_certificate(t1, t2):
    """A pumpable input loop witnessing the unbounded output-length gap."""
    from .conjugacy import domain_mismatch_certificate
    from .pairauto import (shortest_prefix_path, shortest_suffix_path,
                           unbalanced_cycle)
    from .substitution import _verified_loop_certificate
    if not same_domain(t1, t2):
        return domain_mismatch_certificate(t1, t2)
    p = transducer_pair_automaton(t1, t2)
    hit = unbalanced_cycle(p)
    if hit is None:
        raise IntegrityError("no unbalanced cycle despite an infinite "
                             "length distance")
    root, cycle = hit
    from .pairauto import input_word_of_path
    prefix = input_word_of_path(p, shortest_prefix_path(p, root))
    loop = input_word_of_path(p, cycle)
    suffix = input_word_of_path(p, shortest_suffix_path(p, root))
    return _verified_loop_certificate(t1, t2, Metric.LENGTH,
                                      prefix, loop, suffix)


def close_verdict(metric: Metric, t1, t2):
    """Closeness verdict with a certificate, for any of the eight metrics."""
    from .verdicts import InfiniteWordCertificate
    if metric is Metric.HAMMING:
        return close_hamming(t1, t2)
    if metric is Metric.TRANSPOSITION:
        return close_transposition(t1, t2)
    if metric is Metric.CONJUGACY:
        return close_conjugacy_transducers(t1, t2)
    if metric in LEVENSHTEIN_FAMILY:
        return close_levenshtein_transducers(t1, t2, metric)
    if metric is Metric.LENGTH:
        d = length_close(t1, t2)
        if d.is_finite:
            return Close(bound=d)
        return NotClose(_length_loop_certificate(t1, t2))
    if metric is Metric.DISCRETE:
        from .conjugacy import domain_mismatch_certificate
        from .pairauto import find_pair_path, input_word_of_path
        if not same_domain(t1, t2):
            return NotClose(domain_mismatch_certificate(t1, t2))
        p = transducer_pair_automaton(t1, t2)
        witness = identity_witness(p)
        if witness is None:
            return Close(bound=ExtendedNat(0))
        path = find_pair_path(p, witness)
        word = input_word_of_path(p, path)
        return NotClose(InfiniteWordCertificate(word, witness))
    raise InputError(f"unknown metric {metric}")


def kclose(metric: Metric, t1, t2, k: int,
           ceiling: int = DEFAULT_STATE_CEILING) -> bool:
    """Is d(T1, T2) <= k?  Decided per metric without computing the distance.

    For the edit metrics: same domain, finite length distance, and the
    k-approximation's accepting skeleton (projected to input letters and
    determinized) must cover the whole domain.
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    if not same_domain(t1, t2):
        return False
    if metric is Metric.DISCRETE:
        return identity_witness(transducer_pair_automaton(t1, t2)) is None
    if metric is Metric.LENGTH:
        return length_close(t1, t2) <= k
    if not length_close(t1, t2).is_finite:
        return False
    da = build_kapprox(metric, joint_product(t1, t2), k, ceiling)
    det = determinize(da.skeleton(), ceiling=ceiling)
    return equiv_unambiguous(t1.nfa, det, check=False)


def distance(metric: Metric, t1, t2,
             ceiling: int = DEFAULT_STATE_CEILING) -> ExtendedNat | Unknown:
    """Exact distance between two transducers under the given metric.

    The metric-specific closeness decider runs first (k-closeness alone
    cannot certify unboundedness); when close, k-closeness is probed for
    k = 0, 1, 2, ... and the first k that holds is the distance.  A probe
    costs several times the one below it, so the search costs about as much
    as the probe at the answer and never builds a larger k-approximation.
    Passing the verdict's bound (or 2**20 when it has none) means the
    k-approximation contradicts the closeness verdict.
    """
    if not same_domain(t1, t2):
        return INF
    if metric is Metric.DISCRETE:
        p = transducer_pair_automaton(t1, t2)
        return ExtendedNat(0) if identity_witness(p) is None else INF
    if metric is Metric.LENGTH:
        return length_close(t1, t2)
    verdict = close_verdict(metric, t1, t2)
    if isinstance(verdict, Unknown):
        return verdict
    if isinstance(verdict, NotClose):
        return INF
    bound = verdict.bound
    limit = bound.value() if bound is not None and bound.is_finite else 2 ** 20
    k = 0
    while not kclose(metric, t1, t2, k, ceiling):
        k += 1
        if k > limit:
            raise IntegrityError(
                "k-search escaped the closeness decider's bound; the "
                "k-approximation is inconsistent with the closeness verdict")
    return ExtendedNat(k)
