"""Acceptance suite: one pass/fail line per criterion (run with -s to see all).

Criteria:
  1  worked examples on the two machine pairs from the figures
  2  metric-order inequality suite on all binary pairs up to length 6
  3  word_distance vs the BFS oracle on all binary pairs up to length 8
  4  k-approximation min weights vs the kernels on 20 random machine pairs
  5  closeness deciders vs enumeration, with certificate pumping
  6  composition-closure index examples
  7  diameter = index over generated unit spheres
  8  acyclic-gadget distance vs the generic search
"""

import itertools
import time


from conftest import (certificate_replays, delete_first_a,
                      joint_outputs_table, machine_corpus, make_transducer)
from transdist.kapprox import build_kapprox, close_verdict, distance
from transdist.oracles import (OverBudget, distance_subst,
                               metric_order_check, min_weight_table,
                               oracle_distance, oracle_distance_table)
from transdist.pairauto import PairAutomaton
from transdist.relations import (diameter, identity_relation, index,
                                 make_distance_relation)
from transdist.transducers import joint_product
from transdist.verdicts import LoopCertificate, NotClose, Unknown
from transdist.words import INF, Alphabet, ExtendedNat, Metric, word_distance

AB01 = Alphabet("01")
AB = Alphabet("ab")

EDIT_METRICS = [Metric.HAMMING, Metric.TRANSPOSITION, Metric.CONJUGACY,
                Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN]
ALL_DECIDED = EDIT_METRICS + [Metric.LENGTH, Metric.DISCRETE]
#: the metrics that build a k-approximation: Hamming and transposition read
#: their distance off one longest path
KAPPROX_METRICS = [Metric.CONJUGACY, Metric.LEVENSHTEIN, Metric.LCS,
                   Metric.DAMERAU_LEVENSHTEIN]


def _report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def binary_words(max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product("01", repeat=n))
    return out


# ---------------------------------------------------------------------------
# criterion 1: paper worked examples
# ---------------------------------------------------------------------------

def test_criterion_1_worked_examples(t1, t2, t4, t5):
    start = time.monotonic()
    checks = [
        ("d_len(T1,T2)", distance(Metric.LENGTH, t1, t2), ExtendedNat(1)),
        ("d_h(T1,T2)", distance(Metric.HAMMING, t1, t2), INF),
        ("d_l(T1,T2)", distance(Metric.LEVENSHTEIN, t1, t2), INF),
        ("d_h(T4,T5)", distance(Metric.HAMMING, t4, t5), INF),
        ("d_l(T4,T5)", distance(Metric.LEVENSHTEIN, t4, t5), ExtendedNat(2)),
    ]
    elapsed = time.monotonic() - start
    bad = [f"{name} = {got}, want {want}" for name, got, want in checks
           if got != want]
    ok = not bad and elapsed < 5.0
    _report(1, ok, f"worked examples in {elapsed:.2f}s"
            + (f"; mismatches: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 2: metric-order suite
# ---------------------------------------------------------------------------

def test_criterion_2_metric_order_suite():
    words = binary_words(6)
    pairs = [(u, v) for u in words for v in words]
    violation = metric_order_check(pairs, AB01)
    witnesses_ok = True
    details = []
    for k in range(1, 5):
        u, v = "01" * k, "10" * k
        if word_distance(Metric.CONJUGACY, u, v) != 1 \
                or word_distance(Metric.HAMMING, u, v) != 2 * k:
            witnesses_ok = False
            details.append(f"(01)^{k}")
    for k in range(1, 5):
        u = "1" + "0" * k + "1"
        v = "01" + "0" * (k - 1) + "1"
        want_c = INF if k >= 2 else ExtendedNat(1)
        # at k = 1 the pair (101, 011) is a genuine rotation, so d_c = 1;
        # the stated ∞ holds from k = 2 on (see the decisions ledger)
        if word_distance(Metric.TRANSPOSITION, u, v) != 1 \
                or word_distance(Metric.HAMMING, u, v) != 2 \
                or word_distance(Metric.CONJUGACY, u, v) != want_c:
            witnesses_ok = False
            details.append(f"10^{k}1")
    ok = violation is None and witnesses_ok
    _report(2, ok, f"{len(pairs)} pairs checked"
            + (f"; first violation: {violation}" if violation else "")
            + (f"; witness mismatches: {details}" if details else ""))


# ---------------------------------------------------------------------------
# criterion 3: kernels vs BFS oracle, all pairs up to length 8
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_agreement():
    words = binary_words(8)
    budget = 8
    mismatches = []
    compared = 0
    for metric in EDIT_METRICS:
        tables = oracle_distance_table(metric, words, budget, AB01, 8)
        for u in words:
            row = tables[u]
            for v in words:
                got = row[v]
                want = word_distance(metric, u, v, AB01)
                compared += 1
                if isinstance(got, OverBudget):
                    if not want > budget:
                        mismatches.append((metric, u, v, got, want))
                elif got != want:
                    mismatches.append((metric, u, v, got, want))
                if len(mismatches) > 5:
                    break
            if mismatches:
                break
        if mismatches:
            break
    # length metric: the oracle value depends only on the two lengths
    length_cache = {}
    for u in words[:140]:
        for v in words:
            key = (len(u), len(v))
            if key not in length_cache:
                length_cache[key] = oracle_distance(Metric.LENGTH, u, v, budget,
                                                    AB01)
            got = length_cache[key]
            want = word_distance(Metric.LENGTH, u, v, AB01)
            compared += 1
            if isinstance(got, OverBudget):
                if not want > budget:
                    mismatches.append((Metric.LENGTH, u, v, got, want))
            elif got != want:
                mismatches.append((Metric.LENGTH, u, v, got, want))
    ok = not mismatches
    _report(3, ok, f"{compared} oracle comparisons across 7 metrics"
            + (f"; first mismatches: {mismatches[:3]}" if mismatches else ""))


# ---------------------------------------------------------------------------
# criterion 4: k-approximation soundness
# ---------------------------------------------------------------------------

def test_criterion_4_kapprox_soundness():
    corpus = machine_corpus(808, 20, bounded_length_gap=True, max_states=5)
    mismatches = []
    checked = 0
    for pair in corpus:
        outputs = joint_outputs_table(pair, 8)
        p = joint_product(*pair)
        for metric in KAPPROX_METRICS:
            truth = {w: word_distance(metric, o1, o2)
                     for w, (o1, o2) in outputs.items()}
            for k in (0, 1, 2, 3):
                da = build_kapprox(metric, p, k)
                table = min_weight_table(da, pair[0].input_alphabet.letters, 8)
                for w, want in truth.items():
                    got = table.get(w, INF)
                    expect = want if want <= k else INF
                    checked += 1
                    if got != expect:
                        mismatches.append((metric, k, w, got, expect))
        if mismatches:
            break
    ok = not mismatches
    _report(4, ok, f"{checked} min-weight comparisons on 20 machines"
            + (f"; first: {mismatches[:3]}" if mismatches else ""))


# ---------------------------------------------------------------------------
# criterion 5: closeness deciders vs enumeration + certificates
# ---------------------------------------------------------------------------

def test_one_finite_pump_is_no_certificate():
    # identity against append-b sits at distance 1 on every input: a single
    # pumped value shows no growth, and neither do two equal ones
    ident = make_transducer(1, [0], [0], [(0, "a", "a", 0), (0, "b", "b", 0)])
    append_b = make_transducer(1, [0], [0], [(0, "a", "a", 0),
                                             (0, "b", "b", 0)], {0: "b"})
    for pumps in ((1,), (1, 2), ()):
        cert = LoopCertificate("", "a", "", pumps)
        assert not certificate_replays(Metric.LEVENSHTEIN, cert, ident,
                                       append_b)
    # two rising values, or one infinite value, do replay
    erase_a = make_transducer(1, [0], [0], [(0, "a", "", 0), (0, "b", "b", 0)])
    assert certificate_replays(Metric.LEVENSHTEIN,
                               LoopCertificate("", "a", "", (1, 2)),
                               ident, erase_a)
    assert certificate_replays(Metric.HAMMING,
                               LoopCertificate("", "a", "", (1,)),
                               ident, append_b)


def test_criterion_5_deciders_vs_enumeration(t1, t2, t3, t4, t5):
    pairs = machine_corpus(909, 50, max_states=4, max_out_len=2)
    paper_pairs = [(t1, t2), (t1, t3), (t2, t3), (t4, t5), (t1, t1), (t4, t4)]
    unknowns = 0
    total = 0
    problems = []
    for idx, (u1, u2) in enumerate(pairs + paper_pairs):
        is_paper = idx >= len(pairs)
        cached = None
        for metric in ALL_DECIDED:
            verdict = close_verdict(metric, u1, u2)
            total += 1
            if isinstance(verdict, Unknown):
                unknowns += 1
                if is_paper:
                    problems.append((idx, metric, "paper example UNKNOWN"))
                continue
            if isinstance(verdict, NotClose):
                if not certificate_replays(metric, verdict.certificate, u1, u2):
                    problems.append((idx, metric, "certificate failed"))
                continue
            # Close: enumeration up to input length 12 must stay within bounds
            if cached is None:
                cached = joint_outputs_table((u1, u2), 12)
            bound = verdict.bound
            if bound is None:
                bound = distance_subst(metric, u1, u2)
            worst = ExtendedNat(0)
            for o1, o2 in cached.values():
                worst = max(worst, word_distance(metric, o1, o2))
            if not worst <= bound:
                problems.append((idx, metric, f"enumerated {worst} > {bound}"))
    rate = unknowns / total if total else 0.0
    ok = not problems
    _report(5, ok, f"{total} decider runs, UNKNOWN rate {rate:.1%}"
            + (f"; problems: {problems[:3]}" if problems else ""))


# ---------------------------------------------------------------------------
# criterion 6: index examples
# ---------------------------------------------------------------------------

def test_criterion_6_index_examples():
    start = time.monotonic()
    s = delete_first_a()
    got = [index(delete_first_a(k), s, Metric.LEVENSHTEIN,
                 metrizable_asserted=True) for k in (1, 2, 3)]
    edges = [(0, ("a", ""), 0), (0, ("b", "b"), 0)]
    delete_all = PairAutomaton.from_edges(1, [0], [0], edges, AB, AB)
    got_inf = index(delete_all, s, Metric.LEVENSHTEIN, metrizable_asserted=True)
    elapsed = time.monotonic() - start
    ok = got == [1, 2, 3] and got_inf == INF and elapsed < 10.0
    _report(6, ok, f"indices {[str(g) for g in got]} and {got_inf} "
            f"in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 7: diameter equals index over generated unit spheres
# ---------------------------------------------------------------------------

def _bounded_relations():
    mk = PairAutomaton.from_edges
    return [
        identity_relation(AB),
        mk(2, [0], [1], [(0, ("ab", "ba"), 1)], AB, AB),
        mk(2, [0], [1], [(0, ("a", "b"), 1), (1, ("b", "b"), 1)], AB, AB),
        mk(1, [0], [0], [(0, ("ab", "ab"), 0)], AB, AB),
        mk(2, [0], [1], [(0, ("aa", "ab"), 1), (0, ("b", "b"), 1)], AB, AB),
        mk(2, [0], [1], [(0, ("ab", ""), 1)], AB, AB),
        mk(2, [0], [1], [(0, ("a", "b"), 1), (0, ("b", "a"), 1),
                         (1, ("a", "a"), 1)], AB, AB),
        mk(1, [0], [0], [(0, ("01", "10"), 0)], AB01, AB01),
        mk(3, [0], [2], [(0, ("a", "a"), 1), (1, ("b", "a"), 2),
                         (2, ("a", "a"), 2)], AB, AB),
        mk(2, [0], [0, 1], [(0, ("ba", "ab"), 1), (1, ("b", "b"), 1)], AB, AB),
    ]


def test_criterion_7_diameter_equals_index():
    problems = []
    count = 0
    for metric in (Metric.HAMMING, Metric.LEVENSHTEIN):
        for i, r in enumerate(_bounded_relations()):
            dia = diameter(r, metric)
            sphere = make_distance_relation(metric, r.left_alphabet)
            idx = index(r, sphere)
            count += 1
            if isinstance(dia, Unknown) or isinstance(idx, Unknown):
                problems.append((metric, i, "unknown"))
            elif dia != idx:
                problems.append((metric, i, f"diameter {dia} != index {idx}"))
    ok = not problems
    _report(7, ok, f"{count} diameter/index agreements"
            + (f"; problems: {problems}" if problems else ""))


# ---------------------------------------------------------------------------
# criterion 8: acyclic-gadget distance vs the generic route
# ---------------------------------------------------------------------------

def test_criterion_8_subst_vs_generic(t1, t2, t4, t5):
    pairs = machine_corpus(909, 50, max_states=4, max_out_len=2)
    pairs += [(t1, t2), (t4, t5), (t1, t1), (t4, t4)]
    t_a = make_transducer(2, [0], [1], [(0, "a", "ba", 1), (1, "a", "a", 1)])
    t_b = make_transducer(2, [0], [1], [(0, "a", "a", 1), (1, "a", "a", 1)],
                          fout={1: "b"})
    pairs.append((t_a, t_b))
    problems = []
    for idx, (u1, u2) in enumerate(pairs):
        for metric in (Metric.HAMMING, Metric.TRANSPOSITION):
            direct = distance_subst(metric, u1, u2)
            generic = distance(metric, u1, u2)
            if direct != generic:
                problems.append((idx, metric, str(direct), str(generic)))
    ok = not problems
    _report(8, ok, f"{2 * len(pairs)} distance agreements"
            + (f"; problems: {problems[:3]}" if problems else ""))
