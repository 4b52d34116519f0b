"""Generic k-closeness via (min,+) distance automata, and exact distances by
an upward search over k, or from one longest path under Hamming and
transposition.

For the Levenshtein family (Levenshtein, LCS and Damerau) the automaton
tracks a budget and a one-sided unmatched leftover word; per transition it
nondeterministically aligns a prefix of the two output streams, paying the
chunk's exact edit cost.  Those costs come from one prefix-distance table
per distinct (left, right) chunk, kept for the length of one build; nothing
is cached across calls.  A node's residuals (lu, lv) have a table
(`words.prefix_table`), and each edge grows it by the edge's letters into
the table of its chunk (`words.extend_table`).  Only live nodes are built:
a node whose length gap no suffix of its state can bring within its budget
has no accepting run and gets no id (see `_build_subst_family`).  Under
Damerau, whose swaps cross cut points, a cut point is dropped when a
neighbouring cut explains its cost exactly, read off the chunk's table,
which keeps the skeleton and every minimal weight (see `_crossing_cuts`).
Its residuals are canonical: a target's residuals lose their longest
common prefix (d(c·A, c·B) = d(A, B)), and a target with no budget left
whose residuals are both non-empty is dead, since they then differ at their
first letters (see `_build_subst_family`).  Under all three metrics no edge
cuts its chunk inside the common prefix of the chunk's two sides, since an
optimal alignment matches that prefix first (the same lemma), and an edge
into a diagonal tail, a state from which every reachable edge has a label
(x, x), takes only the full cut of its chunk (d(A·S, B·S) = d(A, B)), so
the nodes there have empty residuals, at most k + 1 per state.
For the conjugacy distance a two-phase automaton first stores output
prefixes, then commits to a shift direction and matches the shifted
streams; the run cost is the number of shifts claimed.  At k = 0 no
automaton is needed: every edit metric is 0 exactly on equal words.

Every construction here works on the pair automaton of two transducers,
which `transducers.joint_product` builds in one walk (which decides the
domains of two sequential machines, and compares those of other machines
first); `build_kapprox` takes it as it is, and so does everything past the
build: only `close_verdict`, `kclose` and `distance` take machines.
`close_verdict` is the one public closeness entry for two transducers.  It
builds the pair automaton once and hands it to the one dispatch on the
metric (`_verdict_on`).  `distance` builds the pair automaton once and
reads the length and discrete distances off it directly.  For the six edit
metrics it asks the same dispatch first (NotClose is ∞).  Under Hamming
and transposition one longest path over a walk of the pair automaton then
gives the distance (`substitution.path_distance`), and `kclose` compares
it with k: neither builds a k-approximation, which serves only the
Levenshtein family and conjugacy.  For those `distance` searches k with
`kclose`, every probe on that one pair automaton: a distance costs one
build however many k it probes.  The search starts at a letter-count
lower bound LB (`_lower_bound`), not at 0: an edit changes the length and,
under Hamming, Levenshtein, Damerau and LCS, a letter's count by at most 1,
so every probe below LB would fail; `kclose` answers False there without
building.  The pair automaton keeps its one component analysis and the gap
ranges and weighted gap sups propagated over it (`pairauto.components`,
`delay_range`, `suffix_gap_range`, `weighted_gap_sup`), so the verdict,
the lower bound and every probe read one result.  A lone `kclose` call
builds its own pair automaton.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .automata import DEFAULT_STATE_CEILING, Nfa, determinize, included
from .conjugacy import (close_conjugacy_transducers,
                        close_levenshtein_transducers)
from .errors import (InputError, IntegrityError, PreconditionError,
                     ResourceLimitError)
from .pairauto import (PairAutomaton, find_pair_path, identity_witness,
                       input_word_of_path, is_length_preserving,
                       max_abs_delay, output_letters, pair_length_diameter,
                       suffix_gap_range, unbalanced_letter, weighted_gap_sup)
from .substitution import close_hamming, close_transposition, path_distance
from .transducers import (DomainMismatchError, joint_product,
                          unbalanced_loop_certificate,
                          unbalanced_word_certificate)
from .verdicts import Close, InfiniteWordCertificate, NotClose, Unknown
from .words import (INF, ExtendedNat, LEVENSHTEIN_FAMILY, Metric,
                    extend_table, prefix_table, word_distance)


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


def _build_subst_family(metric: Metric, p: PairAutomaton, k: int,
                        leftover_cap: int, ceiling: int) -> DistanceAutomaton:
    """The k-approximation of a Levenshtein-family metric, live nodes only.

    A node (q, b, lu, lv) is a pair-automaton state q, the budget b left and
    the residuals lu, lv not aligned yet.  With Δ = |lu| - |lv| and
    [slo(q), shi(q)] the suffix-gap range of q (`suffix_gap_range`), the node
    is dead when Δ + shi(q) < -b or Δ + slo(q) > b.  A dead node gets no id
    and no edge, so the ceiling counts live nodes only.

    Why no accepting run is lost: a run from the node reads some suffix
    output (x, y) of q, aligns lu·x with lv·y in chunks and then flushes.
    Under all three metrics a chunk costs at least its length difference,
    so the rest of the run costs at least |Δ + |x| - |y||, which is at least
    min{|Δ + δ| : slo(q) <= δ <= shi(q)} and so above b at a dead node.
    Pruning therefore keeps the skeleton's language and every minimal weight.
    It agrees with `_crossing_cuts`: moving a run of a dropped cut's live
    target to the explaining predecessor's target is no dearer, so that
    target is live as well and never pruned.

    Target residuals are canonical.  First, under Damerau the longest
    common prefix c of the two residuals is stripped (the others keep one
    residual empty).  What a node must price for a suffix output
    (x, y) is d(lu·x, lv·y) within b, and d(c·A, c·B) = d(A, B), so
    (q, b, c·A, c·B) and (q, b, A, B) have the same completion costs, and
    the shorter residuals fit the cap no worse.  "≤" is matching c to
    itself; for "≥" induct on |c| with c = a·c'.  Let f drop a word's first
    letter: an edit at a later position is the same edit under f; a
    substitution of the first letter leaves f unchanged; deleting or
    inserting it is one deletion or insertion under f; swapping the first
    two letters, which only Damerau allows, is one substitution under f,
    which Damerau allows too.  So under all three metrics an edit sequence
    from a·A to a·B maps to one from A to B no longer.
    Second, a target with b = 0 whose stripped residuals are both non-empty
    is dead: they differ at their first letters, so lu·x ≠ lv·y for every
    suffix output, every completion costs at least 1 > b, and the node has
    no accepting run, like one that fails the gap test.  Both rules shrink
    the target's key only; the dominated-cut argument of `_crossing_cuts`
    reads costs off the chunk's table, which the lemma leaves unchanged.

    No edge cuts its chunk inside the chunk's common prefix.  With c the
    longest common prefix of the chunk (left, right), an edge keeps only
    cut points (i, j) with i, j >= |c|: the one-sided frontier points are
    filtered, and `_crossing_cuts` starts its window there.  Filtering its
    output instead would lose a point whose explaining predecessor lies
    below |c|: on ('ab', 'ab') the predecessor test keeps (0, 0) alone.
    Why nothing that matters is lost: the node must still align lu·x with
    lv·y for a suffix output (x, y) of q, and both words begin with c.  By
    the common-prefix lemma an optimal alignment matches c letter by letter
    first and then aligns the rest optimally, so its monotone path passes
    through (|c|, |c|), which lies in the chunk's rectangle
    [0, |left|] × [0, |right|].  A run that follows this alignment cuts the
    chunk at the path's last point in that rectangle, some (i, j) >=
    (|c|, |c|).  The cut costs at most the alignment's part up to (i, j),
    and the rest of the alignment prices the target's residuals, so the
    run keeps the minimal weight, and the skeleton keeps its language.

    Under all three metrics an edge whose target d is a diagonal tail
    (`_diagonal_tails`: every edge reachable from d has a label (x, x))
    takes only the full cut of its chunk (left, right), to (d, b - c, '', '')
    with c = d(left, right); every other edge keeps its cut points.  Each
    edge still costs an exact chunk alignment, so no run gets cheaper.  None
    that matters is lost: a run entering d at cut (i, j) with residuals A, B
    reads some output (S, S) from d, and the rest of it aligns A·S with B·S
    in chunks.  By subadditivity it costs at least d(A·S, B·S), which is
    d(A, B) by the common-suffix lemma, and cost(i, j) + d(A, B) >= c by
    subadditivity again.  So the full cut is within budget whenever the run
    is, and its target accepts (S, S) at cost 0 from there.  The lemma
    d(A·S, B·S) = d(A, B) mirrors the common-prefix one: reversing both
    words keeps the three distances (reversal maps each edit to one edit)
    and turns S into a common prefix.
    """
    crossing = metric is Metric.DAMERAU_LEVENSHTEIN
    # a finite max_abs_delay (checked by build_kapprox) bounds every cycle's
    # gap, so the suffix gaps are bounded too
    slo, shi = suffix_gap_range(p)
    # chunks repeat across nodes: one prefix-distance table per distinct
    # (left, right) chunk holds the cost of every cut point of that chunk,
    # and an edge's table grows from its node's by the edge's letters
    tables: dict[tuple[str, str], list[list[int]]] = {}

    def table(a: str, b: str) -> list[list[int]]:
        try:
            return tables[a, b]
        except KeyError:
            t = tables[a, b] = prefix_table(metric, a, b)
            return t

    ids: dict[tuple, int] = {}
    nodes: list[tuple] = []
    todo: deque[tuple] = deque()

    def get(cfg):
        """The id of a live configuration, or None for a dead one."""
        sid = ids.get(cfg)
        if sid is None:
            q, b, lu, lv = cfg
            gap = len(lu) - len(lv)
            if gap + shi[q] < -b or gap + slo[q] > b:
                return None
            if b == 0 and lu and lv:
                return None
            if len(ids) >= ceiling:
                raise ResourceLimitError(
                    f"k-approximation ({metric}, k={k}) exceeded "
                    f"{ceiling} states")
            sid = ids[cfg] = len(nodes)
            nodes.append(cfg)
            todo.append(cfg)
        return sid

    initials = [sid for sid in (get((q, k, "", ""))
                                for q in sorted(p.nfa.initials))
                if sid is not None]
    edges: list[tuple[int, str | None, int, int]] = []
    accept_cost: dict[int, int] = {}
    adj = p.nfa.adj()
    tails = _diagonal_tails(p)
    while todo:
        cfg = todo.popleft()
        sid = ids[cfg]
        q, b, lu, lv = cfg
        if q in p.nfa.finals:
            flush = table(lu, lv)[-1][-1]
            if flush <= b:
                prev = accept_cost.get(sid)
                if prev is None or flush < prev:
                    accept_cost[sid] = flush
        for (x, y), d, t in adj[q]:
            left = lu + x
            right = lv + y
            costs = tables.get((left, right))
            if costs is None:
                costs = tables[left, right] = extend_table(
                    metric, table(lu, lv), lu, lv, x, y)
            letter = p.input_letters[t]
            best: dict[tuple, int] = {}
            if d in tails:
                cuts = [(len(left), len(right))]
            else:
                # no cut inside the chunk's common prefix
                low = _common_prefix_length(left, right)
                if crossing:
                    cuts = _crossing_cuts(costs, left, right, b, leftover_cap,
                                          low)
                else:
                    cuts = _consumption_points(len(left), len(right), b,
                                               leftover_cap, low)
            for i, j in cuts:
                cost = costs[i][j]
                if cost > b:
                    continue
                ru, rv = left[i:], right[j:]
                if crossing:
                    n = _common_prefix_length(ru, rv)
                    ru, rv = ru[n:], rv[n:]
                key = (d, b - cost, ru, rv)
                if key not in best or cost < best[key]:
                    best[key] = cost
            for key, cost in sorted(best.items()):
                tgt = get(key)
                if tgt is not None:
                    edges.append((sid, letter, cost, tgt))
    return DistanceAutomaton(metric, k, nodes, edges, initials, accept_cost)


def _diagonal_tails(p: PairAutomaton) -> set[int]:
    """The states of p from which every reachable edge has a label (x, x).

    They are the states that reach no source of an edge with x ≠ y: a
    backward walk from those sources marks the rest.  A final state has no
    output of its own (`joint_product` puts final outputs on edges).
    """
    radj = p.nfa.radj()
    todo = [s for s, (x, y), _ in p.nfa.transitions if x != y]
    seen = set(todo)
    while todo:
        for _, s, _ in radj[todo.pop()]:
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return set(range(p.nfa.n_states)) - seen


def _common_prefix_length(u: str, v: str) -> int:
    """The length of the longest common prefix of u and v."""
    n = 0
    top = min(len(u), len(v))
    while n < top and u[n] == v[n]:
        n += 1
    return n


def _consumption_points(n: int, m: int, budget: int, cap: int,
                        low: int) -> list[tuple[int, int]]:
    """Cut points (i, j) of a chunk alignment of lengths n and m, under
    Levenshtein and LCS, which have no crossing edits.

    Such alignments decompose at one-sided frontiers, so the residual stays
    one-sided.  Only points with i, j >= `low` (the length of the chunk's
    common prefix) that leave at most `cap` letters on either side are
    listed, and only those with |i - j| <= budget: both metrics charge at
    least the length difference of the aligned prefixes.
    """
    low_i, low_j = max(low, n - cap), max(low, m - cap)
    return ([(n, j) for j in range(max(low_j, n - budget),
                                   min(m, n + budget) + 1)]
            + [(i, m) for i in range(max(low_i, m - budget),
                                     min(n, m + budget + 1))])


def _crossing_cuts(costs: list[list[int]], left: str, right: str,
                   budget: int, cap: int, low: int) -> list[tuple[int, int]]:
    """Cut points (i, j) of a chunk alignment under Damerau, read off the
    chunk's prefix table `costs`.

    Adjacent transpositions cross cut points, which forces residuals on both
    sides until a balanced point is reached, so every point of the window
    (i, j >= `low`, the length of the chunk's common prefix, and at most
    `cap` letters left on either side) and of the band |i - j| <= budget
    may cut.  A point within budget is left out when a predecessor
    (i-1, j), (i, j-1) or (i-1, j-1) in the window explains its cost
    exactly: cost(i, j) = cost(i', j') + the step between them (1, or 0
    for a diagonal step between equal letters).  Steps cost at least 0 and
    a cost is at least its length gap, so such a predecessor is within
    budget and in the band as well, and the window is the only test it
    needs.

    Dropping keeps the skeleton and every minimal weight: the predecessor's
    target keeps the one-letter step in its residual and the step's cost in
    its budget, so shifting the first cut of any run of the dropped target
    over the step costs at most the step (subadditivity) and keeps the band,
    the cap and the residual.  Chains of dropped points end at a kept one.
    On one-sided frontiers (the other metrics) dropping removes edges but no
    nodes and splits determinized subsets, so they list every point.
    """
    n, m = len(left), len(right)
    low_i, low_j = max(low, n - cap), max(low, m - cap)
    cuts = []
    above = None
    for i in range(low_i, n + 1):
        row = costs[i]
        a = left[i - 1] if i else ""
        for j in range(max(low_j, i - budget), min(m, i + budget) + 1):
            cost = row[j]
            if cost > budget:
                continue
            if above is not None and above[j] == cost - 1:
                continue
            if j > low_j and (row[j - 1] == cost - 1 or (
                    above is not None
                    and above[j - 1] == cost - (a != right[j - 1]))):
                continue
            cuts.append((i, j))
        above = row
    return cuts


def _build_conjugacy(p: PairAutomaton, k: int, delay_cap: int,
                     ceiling: int) -> DistanceAutomaton:
    ids: dict[tuple, int] = {}
    nodes: list[tuple] = []
    todo: deque[tuple] = deque()

    def get(cfg):
        if cfg not in ids:
            if len(ids) >= ceiling:
                raise ResourceLimitError(
                    f"k-approximation ({Metric.CONJUGACY}, k={k}) exceeded "
                    f"{ceiling} states")
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


def build_kapprox(metric: Metric, p: PairAutomaton, k: int,
                  ceiling: int = DEFAULT_STATE_CEILING) -> DistanceAutomaton:
    """Distance automaton computing the k-approximation of the distance map.

    For every input w in the domain, the minimal accepting-run weight equals
    d(T1(w), T2(w)) when that value is at most k, and no accepting run exists
    otherwise.  Requires a finite length distance.  Built for conjugacy and
    the Levenshtein family only, and for the latter only live nodes, which
    `ceiling` counts.
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    if metric not in (Metric.CONJUGACY, *LEVENSHTEIN_FAMILY):
        raise InputError(f"no distance automaton for metric {metric}")
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


# ---------------------------------------------------------------------------
# k-closeness and the distance search
# ---------------------------------------------------------------------------

def close_verdict(metric: Metric, t1, t2):
    """Closeness verdict with a certificate, for any of the eight metrics.

    Builds the pair automaton once with `joint_product` (different domains
    are NotClose, certified by an input in exactly one of them) and hands
    it to the metric's decider.
    """
    try:
        p = joint_product(t1, t2)
    except DomainMismatchError as e:
        return NotClose(e.certificate)
    return _verdict_on(metric, p)


def _verdict_on(metric: Metric, p: PairAutomaton):
    """The closeness verdict on p, the pair automaton of two machines: the
    one place that dispatches on the metric."""
    if metric is Metric.HAMMING:
        return close_hamming(p)
    if metric is Metric.TRANSPOSITION:
        return close_transposition(p)
    if metric is Metric.CONJUGACY:
        return close_conjugacy_transducers(p)
    if metric in LEVENSHTEIN_FAMILY:
        return close_levenshtein_transducers(p, metric)
    if metric is Metric.LENGTH:
        d = pair_length_diameter(p)
        if d.is_finite:
            return Close(bound=d)
        return NotClose(unbalanced_loop_certificate(p))
    if metric is not Metric.DISCRETE:
        raise InputError(f"unknown metric {metric}")
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    witness = identity_witness(p)
    if witness is None:
        return Close(bound=ExtendedNat(0))
    word = input_word_of_path(p, find_pair_path(p, witness))
    return NotClose(InfiniteWordCertificate(word, witness))


#: the metrics each of whose edits changes the count of one letter by at
#: most 1 (a substitution, an insertion or a deletion by 1, an adjacent
#: transposition by 0)
_COUNTING_METRICS = (Metric.HAMMING, Metric.LEVENSHTEIN, Metric.LCS,
                     Metric.DAMERAU_LEVENSHTEIN)
#: the metrics whose edits change no letter's count
_PERMUTING_METRICS = (Metric.TRANSPOSITION, Metric.CONJUGACY)


def _lower_bound(metric: Metric, p: PairAutomaton) -> int | None:
    """A lower bound on sup d(u, v) over the pairs (u, v) of p for an edit
    metric, or None when no k bounds it.

    For an additive letter weight f, d(u, v) >= |f(u) - f(v)| whenever each
    edit of the metric changes f by at most 1, so the distance is at least
    the weighted gap sup of p (`weighted_gap_sup`), and an unbounded one
    leaves no k.  The weights used are the length, under every edit metric
    (an edit changes it by at most 1, and Hamming, transposition and
    conjugacy are ∞ on unequal lengths); the count of each letter c, under
    the counting metrics; and under LCS, whose edits are insertions and
    deletions, each signed pair count_c - count_c'.  This is the q = 1 case
    of the q-gram counting lemma over Parikh vectors.
    """
    length = pair_length_diameter(p)
    if not length.is_finite:
        return None
    bound = length.value()
    if metric in _COUNTING_METRICS:
        letters = output_letters(p)
        weights = [{c: 1} for c in letters]
        if metric is Metric.LCS:
            weights += [{c: 1, e: -1} for i, c in enumerate(letters)
                        for e in letters[i + 1:]]
        for weight in weights:
            gap = weighted_gap_sup(p, weight)
            if gap is None:
                return None
            bound = max(bound, gap)
    return bound


def kclose(metric: Metric, t1, t2, k: int,
           ceiling: int = DEFAULT_STATE_CEILING, *,
           pair: PairAutomaton | None = None) -> bool:
    """Is d(T1, T2) <= k?  Decided per metric without computing the distance.

    The pair automaton is built first with `joint_product` (different
    domains are never close), unless a caller passes it as `pair`: the
    k-search of `distance` builds it once for all its probes.  With `pair`
    given, t1 and t2 are not read.

    With the domains equal, the length metric compares the length diameter
    with k, and the discrete metric asks whether the outputs agree on every
    input.  An edit metric answers False before any build when k is below
    the letter-count lower bound LB (`_lower_bound`) or no LB exists: an
    edit changes the length and, under the counting metrics, a letter's
    count by at most 1, so d(u, v) is at least their gaps between u and v.
    Transposition and conjugacy only permute letters, so they answer False
    as well when some letter's count gap is not 0 (`unbalanced_letter`): the
    distance is then ∞ on some input.  At k = 0 it asks, as the discrete
    metric does, whether the outputs agree on every input (every edit metric
    is 0 exactly on equal words).

    Otherwise Hamming and transposition answer from the closeness verdict
    and the longest path (`_distance_on`), whose walk counts its states
    against the ceiling: NotClose gives False, and Close compares the path,
    the distance, with k.  Under the other edit metrics the
    k-approximation's accepting skeleton (projected to input letters and
    determinized) must cover the whole domain.  That coverage is the one
    inclusion dom(T1) ⊆ L(skeleton), decided by `automata.included`: the
    skeleton accepts exactly the inputs w with d(T1(w), T2(w)) ≤ k, so
    L(skeleton) ⊆ dom(T1) holds by construction and k-closeness *is* the
    other direction.  The domain is p's input projection, its transitions
    labelled with the input letters they read, and the skeleton is
    determinized guided by it (`determinize(..., within=domain)`), so only
    the subsets that a run of the domain reaches are built, and the ceiling
    counts those, as it counts the k-approximation's live nodes (the module
    docstring lists the build's rules, each of which keeps the skeleton's
    language).  A `ResourceLimitError` past the ceiling, in the build or in
    the determinization, names the layer, the metric and k.
    """
    if k < 0:
        raise InputError("k must be nonnegative")
    try:
        p = pair or joint_product(t1, t2)
    except DomainMismatchError:
        return False
    if metric is Metric.LENGTH:
        return pair_length_diameter(p) <= k
    if metric is Metric.DISCRETE:
        return identity_witness(p) is None
    lower = _lower_bound(metric, p)
    if lower is None or k < lower:
        return False
    if metric in _PERMUTING_METRICS and unbalanced_letter(p) is not None:
        return False
    if k == 0:
        return identity_witness(p) is None
    if metric in (Metric.HAMMING, Metric.TRANSPOSITION):
        return _distance_on(metric, p, ceiling) <= k
    da = build_kapprox(metric, p, k, ceiling)
    domain = Nfa(p.nfa.n_states, p.nfa.initials, p.nfa.finals,
                 [(s, x, d) for (s, _, d), x in zip(p.nfa.transitions,
                                                    p.input_letters)])
    try:
        det = determinize(da.skeleton(), ceiling, within=domain)
    except ResourceLimitError as e:
        raise ResourceLimitError(
            f"determinized k-approximation ({metric}, k={k}) exceeded "
            f"{ceiling} states") from e
    return included(domain, det) is None


def distance(metric: Metric, t1, t2,
             ceiling: int = DEFAULT_STATE_CEILING) -> ExtendedNat | Unknown:
    """Exact distance between two transducers under the given metric: ∞ for
    different domains, else `_distance_on` their pair automaton."""
    try:
        p = joint_product(t1, t2)
    except DomainMismatchError:
        return INF
    return _distance_on(metric, p, ceiling)


def _distance_on(metric: Metric, p: PairAutomaton,
                 ceiling: int) -> ExtendedNat | Unknown:
    """sup of d(u, v) over the pairs of p, the pair automaton of two
    machines: their distance.

    The length distance is p's length diameter, and the discrete one is 0
    when p generates no pair of different words and ∞ otherwise; neither
    needs a verdict or a certificate.  For the six edit metrics the
    closeness verdict comes first (k-closeness alone cannot certify
    unboundedness): NotClose gives ∞ and Unknown is returned as is.  LB is
    the letter-count lower bound (`_lower_bound`): an edit changes the
    length and, under Hamming, Levenshtein, Damerau and LCS, a letter's
    count by at most 1, so the distance is at least LB.  The limit is the
    verdict's bound.  Under Hamming and transposition, whose verdicts have
    none, the answer is the longest path over a walk of p built under
    `ceiling` (`substitution.path_distance`), with no probe.  Otherwise
    k-closeness is probed for k = LB, LB + 1, ... on p (`kclose`'s `pair`,
    which reads no machine), and the first k that holds is the distance.  A
    probe costs several times the one below it, so the search costs about
    as much as the probe at the answer and never builds a larger
    k-approximation.  An LB above the verdict's bound, a path value outside
    [LB, verdict's bound], or a search that passes the limit contradicts the
    certified bounds.
    """
    if metric is Metric.LENGTH:
        return pair_length_diameter(p)
    if metric is Metric.DISCRETE:
        return ExtendedNat(0) if identity_witness(p) is None else INF
    verdict = _verdict_on(metric, p)
    if isinstance(verdict, Unknown):
        return verdict
    if isinstance(verdict, NotClose):
        return INF
    bound = verdict.bound
    finite = bound is not None and bound.is_finite
    limit = bound.value() if finite else math.inf
    k = _lower_bound(metric, p)
    if k is None or k > limit:
        raise IntegrityError(
            "the letter-count lower bound exceeds the closeness decider's "
            "bound; the two are inconsistent")
    if metric in (Metric.HAMMING, Metric.TRANSPOSITION):
        value = path_distance(metric, p, ceiling)
        if not k <= value <= limit:
            raise IntegrityError(
                "the longest path lies outside the letter-count lower bound "
                "and the closeness decider's bound")
        return ExtendedNat(value)
    while not kclose(metric, None, None, k, ceiling, pair=p):
        k += 1
        if k > limit:
            raise IntegrityError(
                "k-search escaped the closeness decider's bound; the "
                "k-approximation is inconsistent with it")
    return ExtendedNat(k)
