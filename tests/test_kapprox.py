import random
import sys

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import (certificate_replays, dense_dfa_spec, flip_ab,
                      identity_ab, machine_corpus, make_transducer,
                      random_joint_machine, rotate_first_letter,
                      spec_transducer)
from transdist import automata, conjugacy, kapprox, pairauto, transducers
from transdist.automata import Nfa, determinize, included
from transdist.errors import (InputError, IntegrityError, PreconditionError,
                              ResourceLimitError)
from transdist.kapprox import (_lower_bound, build_kapprox, close_verdict,
                               distance, kclose)
from transdist.oracles import (distance_subst, min_weight_on,
                               min_weight_table, oracle_distance)
from transdist.pairauto import delay_range, identity_witness
from transdist.transducers import (DomainMismatchError, Transducer,
                                   domain_words, evaluate, joint_product,
                                   same_domain)
from transdist.verdicts import (Close, DomainCertificate, LoopCertificate,
                                NotClose)
from transdist.words import INF, Alphabet, ExtendedNat, Metric, word_distance

EDIT_METRICS = [Metric.HAMMING, Metric.TRANSPOSITION, Metric.CONJUGACY,
                Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN]
#: the metrics that build a k-approximation
KAPPROX_METRICS = [Metric.CONJUGACY, Metric.LEVENSHTEIN, Metric.LCS,
                   Metric.DAMERAU_LEVENSHTEIN]


# ---------------------------------------------------------------------------
# k-approximation soundness on the paper machines
# ---------------------------------------------------------------------------

def test_kapprox_t4_t5_levenshtein(t4, t5):
    da = build_kapprox(Metric.LEVENSHTEIN, joint_product(t4, t5), 2)
    assert min_weight_on(da, "00110") == 2
    for w in domain_words(t4, 6):
        got = min_weight_on(da, w)
        want = word_distance(Metric.LEVENSHTEIN, evaluate(t4, w),
                             evaluate(t5, w))
        assert got == (want if want <= 2 else INF), w


def test_kapprox_zero_budget_accepts_equal_outputs(t1):
    da = build_kapprox(Metric.LEVENSHTEIN, joint_product(t1, t1), 0)
    for w in ("", "a", "ab", "abab"):
        assert min_weight_on(da, w) == 0


def test_kapprox_hamming_needs_two(t1, no_kapprox):
    # Hamming and transposition answer from one longest path, and no
    # k-approximation serves them
    tx = make_transducer(2, [0], [1], [(0, "a", "1001", 1)],
                         alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    ty = make_transducer(2, [0], [1], [(0, "a", "0101", 1)],
                         alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    assert not kclose(Metric.HAMMING, tx, ty, 1)
    assert kclose(Metric.HAMMING, tx, ty, 2)
    assert kclose(Metric.TRANSPOSITION, tx, ty, 1)
    # build_kapprox as imported here, which no_kapprox does not replace
    p = joint_product(tx, ty)
    for metric in (Metric.HAMMING, Metric.TRANSPOSITION):
        with pytest.raises(InputError, match="no distance automaton"):
            build_kapprox(metric, p, 2)
    dac = build_kapprox(Metric.CONJUGACY, p, 3)
    assert min_weight_on(dac, "a") == INF  # 1001 and 0101 are not conjugate


def test_kapprox_conjugacy_rotation():
    # constant pair (0101, 1010): one rotation
    tx = make_transducer(2, [0], [1], [(0, "a", "0101", 1)],
                         alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    ty = make_transducer(2, [0], [1], [(0, "a", "1010", 1)],
                         alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    da = build_kapprox(Metric.CONJUGACY, joint_product(tx, ty), 1)
    assert min_weight_on(da, "a") == 1


# (nodes, edges, determinized skeleton states) for k = 0..3 on the identity
# against the flip {0, 1, 3} of the first four letters; only live nodes are
# built, Damerau keeps no cut point whose cost a predecessor in the window
# explains, strips the common prefix of a node's residuals and drops a
# zero-budget node whose residuals are both non-empty, and an edge into a
# diagonal tail (the last state, where both outputs copy the input) takes
# only the full cut.  No chunk is cut inside its common prefix.  Testing a
# node's liveness against its source's budget only keeps more nodes (budgets
# fall along an edge), which these sizes and the flip-7 pin show and no
# min-weight test can
KAPPROX_SIZES = {
    Metric.LEVENSHTEIN: [(1, 0, 1), (2, 2, 2), (17, 36, 12), (28, 78, 17)],
    Metric.LCS: [(1, 0, 1), (1, 0, 1), (17, 34, 10), (17, 34, 10)],
    Metric.DAMERAU_LEVENSHTEIN: [(1, 0, 1), (17, 22, 15), (18, 34, 16),
                                 (19, 44, 17)],
}


@pytest.mark.parametrize("metric", list(KAPPROX_SIZES))
def test_kapprox_sizes_on_the_flip_pair(metric):
    p = joint_product(identity_ab(), flip_ab(4, (0, 1, 3)))
    for k, want in enumerate(KAPPROX_SIZES[metric]):
        da = build_kapprox(metric, p, k)
        det = determinize(da.skeleton())
        assert (len(da.nodes), len(da.edges), det.n_states) == want, k


def _rotate_pair():
    """A rotate-first-letter pair on a two-state machine: close under
    every edit metric but Hamming and transposition."""
    spec = dense_dfa_spec(random.Random(1), 2)
    return spec_transducer(spec), spec_transducer(rotate_first_letter(spec))


@pytest.mark.parametrize("metric", [Metric.DAMERAU_LEVENSHTEIN,
                                    Metric.CONJUGACY])
def test_kapprox_ceiling_names_layer_metric_and_k(metric, t4, t5):
    # under conjugacy t4/t5 differ in letter counts and answer before any
    # build, so the rotate pair (equal counts) reaches it
    t1, t2 = (t4, t5) if metric is Metric.DAMERAU_LEVENSHTEIN else \
        _rotate_pair()
    with pytest.raises(ResourceLimitError,
                       match=rf"^k-approximation \({metric}, k=2\) "
                             r"exceeded 3 states$"):
        kclose(metric, t1, t2, 2, ceiling=3)


def test_kclose_determinization_ceiling_names_metric_and_k():
    # at k = 3 the rotate pair's Damerau k-approximation has 656 live nodes
    # and its skeleton determinizes to 888 states.  Its only diagonal tails
    # are the two states behind final outputs, so the determinization stays
    # larger than the build
    t1, t2 = _rotate_pair()
    for ceiling in (656, 800, 887):
        with pytest.raises(ResourceLimitError,
                           match=rf"^determinized k-approximation "
                                 rf"\(damerau, k=3\) exceeded {ceiling} "
                                 rf"states$") as caught:
            kclose(Metric.DAMERAU_LEVENSHTEIN, t1, t2, 3, ceiling=ceiling)
        cause = caught.value.__cause__
        assert isinstance(cause, ResourceLimitError)
        assert str(cause) == (f"determinization exceeded ceiling of "
                              f"{ceiling} states")
    with pytest.raises(ResourceLimitError,
                       match=r"^k-approximation \(damerau, k=3\) exceeded "
                             r"655 states$"):
        kclose(Metric.DAMERAU_LEVENSHTEIN, t1, t2, 3, ceiling=655)
    assert kclose(Metric.DAMERAU_LEVENSHTEIN, t1, t2, 3, ceiling=888)


def test_kapprox_without_a_live_initial_node_is_empty():
    # every output pair differs in length by 3: below k = 3 no node is live
    ta = make_transducer(2, [0], [1], [(0, "a", "aaa", 1), (1, "a", "a", 1)])
    tb = make_transducer(2, [0], [1], [(0, "a", "", 1), (1, "a", "a", 1)])
    da = build_kapprox(Metric.LEVENSHTEIN, joint_product(ta, tb), 2)
    assert (da.nodes, da.edges, da.initials) == ([], [], [])
    assert not kclose(Metric.LEVENSHTEIN, ta, tb, 2)
    assert distance(Metric.LEVENSHTEIN, ta, tb) == 3


def test_kapprox_requires_bounded_length_distance(t1, t3):
    p = joint_product(t1, t3)
    with pytest.raises(PreconditionError):
        build_kapprox(Metric.LEVENSHTEIN, p, 2)


# ---------------------------------------------------------------------------
# k-approximation vs the kernels on a random corpus (acceptance #4 at small scale)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", KAPPROX_METRICS)
def test_kapprox_matches_kernels_small_corpus(metric):
    for t1, t2 in machine_corpus(404, 5, bounded_length_gap=True,
                                 max_states=3):
        p = joint_product(t1, t2)
        for k in (0, 1, 2):
            da = build_kapprox(metric, p, k)
            for w in domain_words(t1, 5):
                want = word_distance(metric, evaluate(t1, w), evaluate(t2, w))
                got = min_weight_on(da, w)
                assert got == (want if want <= k else INF), (metric, k, w)


# the seeded machines catch cut-point pruning that drops too much: a cut
# explained by a predecessor outside the window or by a costlier one.  Read
# from the row above the window, a predecessor fails 60; from the column left
# of it, 37 and 60.
# They and corpus seed 404 above also catch live-node pruning that drops too
# much.  Under the Levenshtein family, a dead-node test off by one fails
# every corpus machine, and prefix gaps in place of suffix gaps fail corpus
# machines 1, 2 and 4; here the first fails 37, the second 60.
# Cuts filtered to i, j >= |c| after the predecessor test, in place of a
# window that starts at the common prefix c, fail 37 and 60.
# about six in seven random pairs have unbounded gaps and are filtered out
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(rng=st.randoms(use_true_random=False))
@example(rng=random.Random(37))
@example(rng=random.Random(60))
def test_crossing_kapprox_matches_kernels_on_random_machines(rng):
    _kapprox_matches_kernels(rng, Metric.DAMERAU_LEVENSHTEIN)


# no chunk is cut inside its common prefix: a window that starts one point
# past it fails 37 under both metrics
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(rng=st.randoms(use_true_random=False),
       metric=st.sampled_from([Metric.LEVENSHTEIN, Metric.LCS]))
@example(rng=random.Random(37), metric=Metric.LEVENSHTEIN)
@example(rng=random.Random(37), metric=Metric.LCS)
def test_one_sided_kapprox_matches_kernels_on_random_machines(rng, metric):
    _kapprox_matches_kernels(rng, metric)


def _kapprox_matches_kernels(rng, metric):
    pair = random_joint_machine(rng, max_states=4, max_out_len=3)
    assume(pair is not None)
    t1, t2 = pair
    p = joint_product(t1, t2)
    assume(delay_range(p) is not None)
    for k in (0, 1, 2):
        da = build_kapprox(metric, p, k)
        for w in domain_words(t1, 5):
            want = word_distance(metric, evaluate(t1, w), evaluate(t2, w))
            assert min_weight_on(da, w) == (want if want <= k else INF), (k, w)


# t1 and t2 (odd- against even-position copies) are not close, so the
# Damerau build has no bound but the residual cap, and its size rests on
# canonical residuals: the strip of common prefixes and the zero-budget test
@pytest.mark.parametrize("metric, nodes", [(Metric.DAMERAU_LEVENSHTEIN, 3595)])
def test_crossing_kapprox_on_the_odd_even_pair(metric, nodes, t1, t2):
    da = build_kapprox(metric, joint_product(t1, t2), 2)
    assert len(da.nodes) == nodes
    weights = min_weight_table(da, "ab", 6)
    for w in domain_words(t1, 6):
        want = word_distance(metric, evaluate(t1, w), evaluate(t2, w))
        assert weights.get(w, INF) == (want if want <= 2 else INF), w


# ---------------------------------------------------------------------------
# diagonal tails: the full cut only where both outputs agree from there on
# ---------------------------------------------------------------------------

SUBST_METRICS = [Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN]


def _diagonal_tails_by_walk(p):
    """The states from which a forward walk meets only labels (x, x)."""
    adj = p.nfa.adj()
    tails = set()
    for q in range(p.nfa.n_states):
        seen, todo = {q}, [q]
        while todo:
            edges = adj[todo.pop()]
            if any(x != y for (x, y), _, _ in edges):
                break
            for _, d, _ in edges:
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        else:
            tails.add(q)
    return tails


def _with_identity_tail(t1, t2):
    """t1 and t2 on one skeleton, continued after a fresh input letter c by
    one copying state: T(w·c·x) = T(w)·h(x) for an accepted w, with
    h(a) = 0 and h(b) = 1 on both sides."""
    nfa = t1.nfa
    tail = nfa.n_states
    finals = sorted(nfa.finals)
    skeleton = Nfa(tail + 1, nfa.initials, [*finals, tail],
                   [*nfa.transitions, *((f, "c", tail) for f in finals),
                    (tail, "a", tail), (tail, "b", tail)])
    alph_in = Alphabet("abc")
    return tuple(Transducer(skeleton,
                            [*t.out, *(t.final_out[f] for f in finals),
                             "0", "1"],
                            {}, alph_in, t.output_alphabet)
                 for t in (t1, t2))


def _identity_tail_pairs():
    return [_with_identity_tail(a, b)
            for a, b in machine_corpus(808, 8, bounded_length_gap=True,
                                       max_states=3)]


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_diagonal_tails_are_the_states_that_meet_only_equal_labels(rng):
    pair = random_joint_machine(rng, max_states=4, max_out_len=2)
    assume(pair is not None)
    p = joint_product(*pair)
    assert kapprox._diagonal_tails(p) == _diagonal_tails_by_walk(p)
    tailed = joint_product(*_with_identity_tail(*pair))
    tails = kapprox._diagonal_tails(tailed)
    assert tails and tails == _diagonal_tails_by_walk(tailed)


@pytest.mark.parametrize("metric", SUBST_METRICS)
def test_kapprox_keeps_no_residual_at_a_diagonal_tail(metric):
    # on the flip pairs and on corpus pairs continued by a copying state,
    # every node at a diagonal tail has empty residuals, one per budget at
    # most, and every minimal weight is the oracle's distance (within k)
    cases = [(identity_ab(), flip_ab(4, (0, 1, 3)), "ab", 7),
             (identity_ab(), flip_ab(3, (0, 2)), "ab", 7)]
    cases += [(a, b, "abc", 5) for a, b in _identity_tail_pairs()]
    for a, b, letters, max_len in cases:
        p = joint_product(a, b)
        tails = kapprox._diagonal_tails(p)
        assert tails
        words = domain_words(a, max_len)
        for k in (1, 2, 3):
            da = build_kapprox(metric, p, k)
            at_tails = [node for node in da.nodes if node[0] in tails]
            assert all(lu == lv == "" for _, _, lu, lv in at_tails)
            assert len(at_tails) <= (k + 1) * len(tails)
            weights = min_weight_table(da, letters, max_len)
            for w in words:
                want = oracle_distance(metric, evaluate(a, w),
                                       evaluate(b, w), k)
                if not isinstance(want, ExtendedNat):
                    want = INF
                assert weights.get(w, INF) == want, (metric, k, w)


def test_damerau_flip_6_builds_through_its_diagonal_tail():
    # cutting edges into the tail everywhere built 15,902 nodes, which
    # determinized to 112,464 subsets
    p = joint_product(identity_ab(), flip_ab(6, tuple(range(6))))
    da = build_kapprox(Metric.DAMERAU_LEVENSHTEIN, p, 6)
    det = determinize(da.skeleton())
    assert (len(da.nodes), det.n_states) == (98, 69)


# ---------------------------------------------------------------------------
# kclose / distance
# ---------------------------------------------------------------------------

def test_kclose_t4_t5(t4, t5):
    assert kclose(Metric.LEVENSHTEIN, t4, t5, 2)
    assert not kclose(Metric.LEVENSHTEIN, t4, t5, 1)


def test_kclose_self_zero(t1, t4):
    for m in EDIT_METRICS + [Metric.LENGTH, Metric.DISCRETE]:
        assert kclose(m, t1, t1, 0)
        assert kclose(m, t4, t4, 0)


@pytest.mark.parametrize("metric", EDIT_METRICS)
def test_kclose_zero_is_output_equality(metric, t1, t2, t3, t4, t5,
                                        no_kapprox):
    # every edit metric is 0 exactly on equal words: k = 0 asks whether the
    # outputs agree on every input, and builds no k-approximation
    pairs = [(a, b) for group in ((t1, t2, t3), (t4, t5))
             for a in group for b in group]
    pairs += [(identity_ab(), flip_ab(4, ())),
              (identity_ab(), flip_ab(4, (3,)))]
    for a, b in pairs:
        words = domain_words(a, 6)
        want = words == domain_words(b, 6) and all(
            evaluate(a, w) == evaluate(b, w) for w in words)
        assert kclose(metric, a, b, 0) == want


COUNTING_METRICS = [Metric.HAMMING, Metric.LEVENSHTEIN, Metric.LCS,
                    Metric.DAMERAU_LEVENSHTEIN]


@pytest.mark.parametrize("metric", COUNTING_METRICS)
def test_kclose_below_the_lower_bound_builds_nothing(metric, t1, t2, t3,
                                                    no_kapprox):
    # t1/t2 (odd- against even-position copies) differ in length by at most
    # 1, but on (ab)^n one outputs a^n and the other b^n: the count gap of a
    # is unbounded, so no k holds and nothing is built (a Damerau build at
    # k = 3 had 26,641 nodes)
    for k in range(5):
        assert not kclose(metric, t1, t2, k)
    # t1/t3 (odd positions against erase-b): unbounded length gap
    assert not kclose(metric, t1, t3, 3)
    # the flip of the first four letters at 0, 1 and 3: on aaaa the outputs
    # are aaaa and bbab, 3 a's apart (under LCS a - b is 6 apart)
    t, flip = identity_ab(), flip_ab(4, (0, 1, 3))
    below = 6 if metric is Metric.LCS else 3
    for k in range(below):
        assert not kclose(metric, t, flip, k)


@pytest.mark.parametrize("metric", [Metric.TRANSPOSITION,
                                    Metric.CONJUGACY])
def test_kclose_on_unequal_letter_counts_builds_nothing(metric, t1, t2,
                                                        no_kapprox):
    # both metrics only permute letters, so they are ∞ on t1/t2, whose count
    # of a drifts without bound, and on the flip pair, whose outputs on aaaa
    # hold 4 and 1 a's (a transposition build at k = 3 on t1/t2 had 12,294
    # nodes)
    for a, b in ((t1, t2), (identity_ab(), flip_ab(4, (0, 1, 3)))):
        for k in range(5):
            assert not kclose(metric, a, b, k)


@pytest.mark.parametrize("metric", [Metric.LEVENSHTEIN,
                                    Metric.DAMERAU_LEVENSHTEIN])
def test_kclose_runs_delay_range_once_per_direction(metric, t1, t3, t4, t5,
                                                    monkeypatch):
    # one prefix propagation over the pair automaton (the build's delay
    # bound) and one suffix propagation (the live-node test); unbounded
    # delay is read off the build
    runs = []
    real = pairauto._gap_range

    def counting(p, reverse):
        runs.append(reverse)
        return real(p, reverse)

    monkeypatch.setattr(pairauto, "_gap_range", counting)
    for k in (1, 2):
        runs.clear()
        assert kclose(metric, t4, t5, k) == (k == 2)
        assert runs == [False, True]
    runs.clear()
    assert not kclose(metric, t1, t3, 2)
    assert runs == [False]


def test_kclose_hamming_t1_t2_false_for_small_k(t1, t2):
    for k in range(3):
        assert not kclose(Metric.HAMMING, t1, t2, k)


def test_kclose_monotone(t4, t5):
    values = [kclose(Metric.LEVENSHTEIN, t4, t5, k) for k in range(4)]
    for a, b in zip(values, values[1:]):
        assert (not a) or b


def test_distance_paper_values(t1, t2, t4, t5):
    assert distance(Metric.LEVENSHTEIN, t4, t5) == 2
    assert distance(Metric.LENGTH, t1, t2) == 1
    assert distance(Metric.HAMMING, t4, t5) == INF
    assert distance(Metric.HAMMING, t1, t2) == INF
    assert distance(Metric.LEVENSHTEIN, t1, t2) == INF


def test_distance_to_self_zero(t1, t4):
    for m in EDIT_METRICS + [Metric.LENGTH, Metric.DISCRETE]:
        assert distance(m, t1, t1) == 0


def test_distance_different_domains():
    ta = make_transducer(1, [0], [0], [(0, "a", "a", 0)])
    tb = make_transducer(2, [0], [1], [(0, "a", "a", 0), (0, "b", "", 1)])
    for m in Metric:
        assert distance(m, ta, tb) == INF


def test_distance_discrete(t4):
    other = make_transducer(3, [0], [1, 2], [
        (0, "0", "0", 1), (0, "1", "1", 2),
        (1, "0", "", 1), (1, "1", "1", 2),
        (2, "1", "", 2), (2, "0", "1", 1),
    ], alph_in=Alphabet("01"), alph_out=Alphabet("01"))
    assert distance(Metric.DISCRETE, t4, other) == INF


def test_distance_shifted_pair_matches_subst_route():
    t_a = make_transducer(2, [0], [1], [(0, "a", "ba", 1), (1, "a", "a", 1)])
    t_b = make_transducer(2, [0], [1], [(0, "a", "a", 1), (1, "a", "a", 1)],
                          fout={1: "b"})
    generic = distance(Metric.HAMMING, t_a, t_b)
    assert generic == distance_subst(Metric.HAMMING, t_a, t_b) == 2
    assert distance(Metric.TRANSPOSITION, t_a, t_b) == INF


# ---------------------------------------------------------------------------
# the k-search of distance
# ---------------------------------------------------------------------------

def _swap_pairs():
    """Swaps the letters at positions 0 and 1 and at 2 and 3, copies the
    rest: both outputs have the same letter counts on every input."""
    return make_transducer(7, [0], list(range(7)), [
        (0, "a", "", 1), (0, "b", "", 2),
        (1, "a", "aa", 3), (1, "b", "ba", 3),
        (2, "a", "ab", 3), (2, "b", "bb", 3),
        (3, "a", "", 4), (3, "b", "", 5),
        (4, "a", "aa", 6), (4, "b", "ba", 6),
        (5, "a", "ab", 6), (5, "b", "bb", 6),
        (6, "a", "a", 6), (6, "b", "b", 6),
    ], {1: "a", 2: "b", 4: "a", 5: "b"})


@pytest.mark.parametrize("metric, want", [(Metric.LEVENSHTEIN, 3),
                                          (Metric.LCS, 4)])
def test_distance_probes_each_k_up_to_the_answer(metric, want, probes):
    # the swap pair's letter-count lower bound is 0, so the search starts at
    # k = 0 and probes every k up to the answer
    assert distance(metric, identity_ab(), _swap_pairs()) == want
    assert probes == list(range(want + 1))


@pytest.mark.parametrize("metric, want", [(Metric.HAMMING, 3),
                                          (Metric.LEVENSHTEIN, 3),
                                          (Metric.LCS, 6),
                                          (Metric.DAMERAU_LEVENSHTEIN, 3)])
def test_distance_on_the_flip_pair_probes_only_the_answer(metric, want,
                                                          probes):
    # the lower bound of the flip pair is its distance: one probe, and none
    # under Hamming, whose distance is the longest path over S
    assert distance(metric, identity_ab(), flip_ab(4, (0, 1, 3))) == want
    assert probes == ([] if metric is Metric.HAMMING else [want])


@pytest.mark.parametrize("n", range(1, 7))
def test_flip_n_lower_bound_is_its_distance(n):
    # on a^n one output is a^n and the other b^n: n letters apart in each
    # count, 2n apart in a - b
    p = joint_product(identity_ab(), flip_ab(n, tuple(range(n))))
    for metric in COUNTING_METRICS:
        want = 2 * n if metric is Metric.LCS else n
        assert _lower_bound(metric, p) == want, metric
    for metric in (Metric.TRANSPOSITION, Metric.CONJUGACY):
        assert _lower_bound(metric, p) == 0, metric


def _search_from_zero(metric, t1, t2):
    """The least k whose k-approximation covers the domain, probing from 0
    without kclose (and so without the lower bound)."""
    p = joint_product(t1, t2)
    if identity_witness(p) is None:
        return 0
    k = 1
    while included(t1.nfa, determinize(
            build_kapprox(metric, p, k).skeleton())) is not None:
        k += 1
    return k


def test_lower_bound_is_at_most_the_distance_on_corpora():
    # and the search from it finds what a search from 0 finds
    corpora = (machine_corpus(808, 20, bounded_length_gap=True, max_states=5)
               + machine_corpus(909, 50, max_states=4, max_out_len=2)
               + machine_corpus(111, 10, bounded_length_gap=True,
                                max_states=4)
               + machine_corpus(404, 5, bounded_length_gap=True,
                                max_states=3))
    closes = 0
    for a, b in corpora:
        p = joint_product(a, b)
        for metric in COUNTING_METRICS:
            if not isinstance(close_verdict(metric, a, b), Close):
                continue
            closes += 1
            # Hamming builds no k-approximation: the reference route
            # gives its distance
            d = (distance_subst(metric, a, b) if metric is Metric.HAMMING
                 else _search_from_zero(metric, a, b))
            assert _lower_bound(metric, p) <= d == distance(metric, a, b)
    assert closes > 100


@pytest.mark.parametrize("metric, d", [(Metric.LEVENSHTEIN, 3),
                                       (Metric.LCS, 6),
                                       (Metric.DAMERAU_LEVENSHTEIN, 3)])
def test_failing_probe_word_realises_the_distance(metric, d):
    t1, t2 = identity_ab(), flip_ab(4, (0, 1, 3))
    p = joint_product(t1, t2)
    below = determinize(build_kapprox(metric, p, d - 1).skeleton())
    w = included(t1.nfa, below)
    assert w is not None
    word = "".join(w)
    assert word_distance(metric, evaluate(t1, word), evaluate(t2, word)) == d
    at_d = determinize(build_kapprox(metric, p, d).skeleton())
    assert included(t1.nfa, at_d) is None


def test_distance_past_the_verdict_bound_is_an_integrity_error(monkeypatch):
    t1, t2 = identity_ab(), _swap_pairs()
    bound = close_verdict(Metric.LEVENSHTEIN, t1, t2).bound
    assert bound.is_finite
    seen = []

    def never(metric, t1, t2, k, ceiling=kapprox.DEFAULT_STATE_CEILING,
              **kwargs):
        seen.append(k)
        return False

    monkeypatch.setattr(kapprox, "kclose", never)
    with pytest.raises(IntegrityError):
        distance(Metric.LEVENSHTEIN, t1, t2)
    assert seen == list(range(bound.value() + 1))


@pytest.mark.parametrize("metric", COUNTING_METRICS)
def test_lower_bound_past_the_verdict_bound_is_an_integrity_error(
        metric, monkeypatch, probes):
    # the flip pair's lower bound is 3 (6 under LCS); a verdict claiming
    # less contradicts it, and distance returns no value above its bound
    t1, t2 = identity_ab(), flip_ab(4, (0, 1, 3))
    monkeypatch.setattr(kapprox, "_verdict_on",
                        lambda *args: Close(bound=ExtendedNat(2)))
    with pytest.raises(IntegrityError):
        distance(metric, t1, t2)
    assert probes == []


@pytest.mark.parametrize("verdict_bound, path", [(None, 2), (3, 4)])
def test_path_bounds_outside_the_certified_ones_are_an_integrity_error(
        verdict_bound, path, monkeypatch, probes):
    # the flip pair's Hamming lower bound is 3: a longest path below it, or
    # above the verdict's bound, contradicts them
    t1, t2 = identity_ab(), flip_ab(4, (0, 1, 3))
    if verdict_bound is not None:
        monkeypatch.setattr(
            kapprox, "_verdict_on",
            lambda *args: Close(bound=ExtendedNat(verdict_bound)))
    monkeypatch.setattr(kapprox, "path_distance", lambda *args: path)
    with pytest.raises(IntegrityError):
        distance(Metric.HAMMING, t1, t2)
    assert probes == []


def test_distance_levenshtein_flip7_builds_live_nodes_only():
    # dead nodes made this take seconds: 109,488 determinized subsets at k = 7.
    # Edges into the diagonal tail (the last state, copying on both sides)
    # take the full cut only; cutting them everywhere left 1,571 subsets.
    # No chunk is cut inside its common prefix: cutting there too built
    # (380, 2206, 119).  The smaller skeleton determinizes to 6 more subsets,
    # because 6 of those 119 each split in two: inputs that met in them
    # through the dropped nodes now reach different sets of nodes
    t1, t2 = identity_ab(), flip_ab(7, tuple(range(7)))
    assert distance(Metric.LEVENSHTEIN, t1, t2) == 7
    p = joint_product(t1, t2)
    da = build_kapprox(Metric.LEVENSHTEIN, p, 7)
    det = determinize(da.skeleton())
    assert (len(da.nodes), len(da.edges), det.n_states) == (336, 1650, 125)


def test_lcs_kapprox_cuts_no_chunk_inside_its_common_prefix():
    # the LCS flip set of the edit-distance benchmark at its distance 6:
    # cutting chunks inside their common prefix too built 73 nodes and 286
    # edges
    p = joint_product(identity_ab(), flip_ab(4, (0, 1, 3)))
    da = build_kapprox(Metric.LCS, p, 6)
    assert (len(da.nodes), len(da.edges)) == (53, 182)


def test_distance_without_verdict_bound_searches_upward():
    t1, t2 = identity_ab(), flip_ab(16, tuple(range(16)))
    assert close_verdict(Metric.HAMMING, t1, t2).bound is None
    assert distance(Metric.HAMMING, t1, t2) == 16


# ---------------------------------------------------------------------------
# one joint product per decision
# ---------------------------------------------------------------------------

@pytest.fixture
def joint_products(monkeypatch):
    """One entry per joint-product build, from whichever module calls it."""
    built = []
    real = transducers.joint_product

    def counting(t1, t2):
        built.append((t1, t2))
        return real(t1, t2)

    _patch_everywhere(monkeypatch, real, counting)
    return built


def _patch_everywhere(monkeypatch, real, replacement):
    """Replace a function under every name a transdist module holds it by."""
    for name, module in list(sys.modules.items()):
        if name == "transdist" or name.startswith("transdist."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def built_pairs(monkeypatch):
    """Every pair automaton that `kapprox` builds."""
    built = []
    build = kapprox.joint_product

    def building(t1, t2):
        built.append(build(t1, t2))
        return built[-1]

    monkeypatch.setattr(kapprox, "joint_product", building)
    return built


@pytest.fixture
def scc_runs(monkeypatch):
    """The automaton of every `scc_decomposition` run."""
    runs = []
    real = automata.scc_decomposition

    def recording(nfa):
        runs.append(nfa)
        return real(nfa)

    _patch_everywhere(monkeypatch, real, recording)
    return runs


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("pair", ["t1 t2", "t1 t3", "t4 t5"])
def test_close_verdict_builds_one_joint_product(metric, pair, request,
                                                joint_products):
    t1, t2 = (request.getfixturevalue(name) for name in pair.split())
    close_verdict(metric, t1, t2)
    assert len(joint_products) == 1


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("pair", ["t1 t2", "t1 t3", "t4 t5"])
def test_close_verdict_decomposes_its_pair_automaton_once(
        metric, pair, request, built_pairs, scc_runs):
    t1, t2 = (request.getfixturevalue(name) for name in pair.split())
    close_verdict(metric, t1, t2)
    [p] = built_pairs
    assert sum(nfa is p.nfa for nfa in scc_runs) == 1


@pytest.mark.parametrize("metric", list(Metric))
def test_kclose_builds_one_joint_product(metric, t4, t5, joint_products):
    for k in (0, 1, 2):
        before = len(joint_products)
        kclose(metric, t4, t5, k)
        assert len(joint_products) == before + 1


@pytest.mark.parametrize("metric", [Metric.LEVENSHTEIN, Metric.LCS,
                                    Metric.DAMERAU_LEVENSHTEIN])
def test_distance_builds_one_joint_product_per_probe_and_verdict(
        metric, probes, joint_products):
    # one, shared by the verdict and every probe of the k-search
    distance(metric, identity_ab(), _swap_pairs())
    assert len(probes) > 2
    assert len(joint_products) == 1


def test_distance_analyses_the_gaps_of_its_pair_automaton_once(
        monkeypatch, probes, built_pairs):
    analysed = []
    gap_range = pairauto._gap_range

    def analysing(p, reverse):
        analysed.append((p, reverse))
        return gap_range(p, reverse)

    monkeypatch.setattr(pairauto, "_gap_range", analysing)
    assert distance(Metric.LEVENSHTEIN, identity_ab(), _swap_pairs()) == 3
    assert probes == [0, 1, 2, 3]
    [p] = built_pairs
    # one prefix propagation (the verdict, identity_witness and every
    # probe's max_abs_delay) and one suffix propagation (every probe's
    # live-node test)
    assert sorted(reverse for q, reverse in analysed
                  if q is p) == [False, True]


def test_distance_decomposes_its_pair_automaton_once(probes, built_pairs,
                                                     scc_runs):
    # the verdict's loop languages, the gap ranges of both directions, the
    # letter-count gaps and every probe read one component analysis
    assert distance(Metric.LEVENSHTEIN, identity_ab(), _swap_pairs()) == 3
    assert probes == [0, 1, 2, 3]
    [p] = built_pairs
    assert sum(nfa is p.nfa for nfa in scc_runs) == 1


def test_unbounded_verdict_certifies_a_loop(t1, t3, built_pairs):
    # the certificate pumps a cycle of the gaps that the verdict found
    # unbounded; that one component analysis serves both is counted by
    # test_close_verdict_decomposes_its_pair_automaton_once[t1 t3-levenshtein]
    verdict = close_verdict(Metric.LEVENSHTEIN, t1, t3)
    assert isinstance(verdict, NotClose)
    assert isinstance(verdict.certificate, LoopCertificate)
    [p] = built_pairs
    assert delay_range(p) is None


@pytest.mark.parametrize("metric, want", [
    (Metric.LENGTH, (0, 1, INF)), (Metric.DISCRETE, (0, INF, INF))])
def test_distance_reads_length_and_discrete_off_the_verdict(
        metric, want, t1, t2, t3, probes, joint_products):
    for other, d in zip((t1, t2, t3), want):
        before = len(joint_products)
        assert distance(metric, t1, other) == d
        assert len(joint_products) == before + 1
    assert probes == []


@pytest.mark.parametrize("metric", [Metric.LENGTH, Metric.DISCRETE])
def test_distance_builds_no_certificate_for_length_and_discrete(
        metric, t1, t2, t3, t4, t5, monkeypatch):
    # the answer is the verdict's (NotClose is ∞, Close its bound), read
    # off the pair automaton with no certificate built and thrown away
    pairs = [(a, b) for a in (t1, t2, t3) for b in (t1, t2, t3)]
    pairs += [(t4, t5), (t5, t4), (t4, t4)] + machine_corpus(31, 40)
    want = []
    for a, b in pairs:
        verdict = close_verdict(metric, a, b)
        want.append(INF if isinstance(verdict, NotClose) else verdict.bound)
    assert INF in want and any(d != INF for d in want)

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate was built")

    for module, name in ((kapprox, "unbalanced_loop_certificate"),
                         (kapprox, "find_pair_path"),
                         (kapprox, "input_word_of_path"),
                         (transducers, "loop_certificate"),
                         (transducers, "unbalanced_loop_certificate")):
        monkeypatch.setattr(module, name, refuse)
    assert [distance(metric, a, b) for a, b in pairs] == want


@pytest.mark.parametrize("metric", [Metric.DISCRETE, Metric.CONJUGACY])
def test_unbalanced_certificates_come_off_one_path(metric, t1, t2, t3,
                                                   monkeypatch):
    # outputs of different lengths: the input and both outputs are read off
    # the path of one shortest-path search, with no second search for an
    # input that generates the outputs
    def refuse(*args, **kwargs):
        raise AssertionError("find_pair_path ran")

    monkeypatch.setattr(kapprox, "find_pair_path", refuse)
    monkeypatch.setattr(conjugacy, "find_pair_path", refuse)
    for a, b in ((t1, t2), (t1, t3), (t2, t3)):
        verdict = close_verdict(metric, a, b)
        assert isinstance(verdict, NotClose)
        u, v = verdict.certificate.outputs
        assert len(u) != len(v)
        assert (evaluate(a, verdict.certificate.word),
                evaluate(b, verdict.certificate.word)) == (u, v)
        assert certificate_replays(metric, verdict.certificate, a, b)


@pytest.mark.parametrize("metric", list(Metric))
def test_kclose_with_a_shared_pair_automaton_agrees(metric, t1, t2, t3, t4,
                                                    t5, joint_products):
    # a given pair automaton skips the domain check and the build, and
    # changes no answer.  On t1/t2 (not close) every edit metric answers
    # False before any build, since the count of a drifts without bound.
    # A build past the ceiling below would have to stop both routes with the
    # same error
    def outcome(a, b, k, **pair):
        try:
            return kclose(metric, a, b, k, 5_000, **pair)
        except ResourceLimitError as e:
            return str(e)

    pairs = [(a, b) for group in ((t1, t2, t3), (t4, t5))
             for a in group for b in group if same_domain(a, b)]
    assert len(pairs) == 13
    for a, b in pairs:
        p = joint_product(a, b)
        for k in range(4):
            before = len(joint_products)
            assert outcome(a, b, k, pair=p) == outcome(a, b, k)
            assert len(joint_products) == before + 1


# ---------------------------------------------------------------------------
# one domain comparison per joint product
# ---------------------------------------------------------------------------

@pytest.fixture
def domain_runs(monkeypatch):
    """The words returned by each language comparison, from any module."""
    found = []
    real = automata.language_difference_witness

    def counting(*args, **kwargs):
        found.append(real(*args, **kwargs))
        return found[-1]

    for name, module in list(sys.modules.items()):
        if name == "transdist" or name.startswith("transdist."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return found


def _other_domains():
    # a* against a*b: the shortest word in exactly one domain is the empty one
    return (make_transducer(1, [0], [0], [(0, "a", "a", 0)]),
            make_transducer(2, [0], [1], [(0, "a", "a", 0), (0, "b", "", 1)]))


def _unambiguous_pair():
    # both domains are (a|b)*: a copy against a machine that guesses the
    # last letter from two initial states (unambiguous, not sequential) and
    # doubles a last a
    guess_last = make_transducer(4, [0, 3], [1, 2, 3], [
        (0, "a", "a", 0), (0, "b", "b", 0), (0, "a", "aa", 1),
        (0, "b", "b", 2)])
    copy = make_transducer(1, [0], [0], [(0, "a", "a", 0), (0, "b", "b", 0)])
    assert not guess_last.is_sequential
    return guess_last, copy


@pytest.mark.parametrize("metric", list(Metric))
def test_close_verdict_compares_the_domains_once(metric, t4, t5,
                                                 domain_runs):
    # two sequential machines: the product walk decides the domains alone
    close_verdict(metric, t4, t5)
    assert domain_runs == []
    close_verdict(metric, *_unambiguous_pair())
    assert domain_runs == [None]
    domain_runs.clear()
    verdict = close_verdict(metric, *_other_domains())
    # the certificate is the word of the one comparison that ran
    assert len(domain_runs) == 1 and domain_runs[0] is not None
    assert verdict == NotClose(DomainCertificate("".join(domain_runs[0])))


def test_every_route_compares_the_domains_once_per_joint_product(
        t4, t5, domain_runs):
    ta, tb = _other_domains()
    tu, tv = _unambiguous_pair()
    for metric in (Metric.HAMMING, Metric.LEVENSHTEIN):
        for a, b, want in ((t4, t5, 0), (tu, tv, 1), (ta, tb, 1)):
            domain_runs.clear()
            kclose(metric, a, b, 2)
            assert len(domain_runs) == want
        assert kclose(metric, ta, tb, 2) is False
        domain_runs.clear()
        assert distance(metric, ta, tb) == INF
        assert len(domain_runs) == 1
    for f in (lambda a, b: distance(Metric.LENGTH, a, b),
              lambda a, b: distance_subst(Metric.HAMMING, a, b)):
        domain_runs.clear()
        assert f(ta, tb) == INF
        assert len(domain_runs) == 1
    # a distance compares at most once, for its verdict and its k-search
    # alike
    domain_runs.clear()
    assert distance(Metric.LEVENSHTEIN, t4, t5) == 2
    assert domain_runs == []
    assert distance(Metric.LEVENSHTEIN, tu, tv) == 1
    assert domain_runs == [None]


def test_joint_product_raises_the_mismatch_with_its_certificate():
    ta, tb = _other_domains()
    with pytest.raises(DomainMismatchError,
                       match="domains differ on ''") as caught:
        joint_product(ta, tb)
    assert caught.value.certificate == DomainCertificate("")


@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION])
def test_distance_subst_builds_one_joint_product(metric, t1, t2,
                                                 joint_products):
    swapped_a = make_transducer(2, [0], [1], [(0, "a", "ab", 1),
                                              (1, "a", "ab", 1)])
    swapped_b = make_transducer(2, [0], [1], [(0, "a", "ba", 1),
                                              (1, "a", "ab", 1)])
    hamming = metric is Metric.HAMMING
    pairs = [(t1, t1, 0), (t1, t2, INF),
             (swapped_a, swapped_b, 2 if hamming else 1),
             (identity_ab(), flip_ab(4, (0, 1, 3)), 3 if hamming else INF)]
    for u, v, want in pairs:
        before = len(joint_products)
        assert distance_subst(metric, u, v) == want
        assert len(joint_products) == before + 1
