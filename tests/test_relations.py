import sys
import warnings
from functools import reduce
from itertools import islice

import pytest

from conftest import delete_first_a
from transdist import automata, kapprox, relations, transducers
from transdist.errors import (InputError, ResourceLimitError,
                              UnsupportedCaseError)
from transdist.oracles import relation_included
from transdist.pairauto import (PairAutomaton, enumerate_pairs, max_abs_delay,
                                synchronize)
from transdist.relations import (
    PAD, compose, diameter, identity_relation, index,
    make_distance_relation, power, power_levels, union)
from transdist.verdicts import Unknown
from transdist.words import INF, Alphabet, Metric, word_distance

AB = Alphabet("ab")
B01 = Alphabet("01")


def count_calls(monkeypatch, real):
    """Route every package reference to `real` through a counter; returns
    the list of recorded argument tuples."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "transdist" or name.startswith("transdist."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def rel(edges, n, initials=(0,), finals=(0,), alphabet=AB):
    return PairAutomaton.from_edges(n, initials, finals, edges,
                                    alphabet, alphabet)


def words_upto(alphabet, n):
    out = [""]
    frontier = [""]
    for _ in range(n):
        frontier = [w + c for w in frontier for c in alphabet.letters]
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_identity_zero():
    ident = identity_relation(AB)
    for m in (Metric.HAMMING, Metric.LEVENSHTEIN, Metric.CONJUGACY,
              Metric.LENGTH, Metric.DISCRETE):
        assert diameter(ident, m) == 0


def test_empty_relation_has_diameter_and_index_zero():
    empty = PairAutomaton.from_edges(0, [], [], [], AB, AB)
    for m in Metric:
        assert diameter(empty, m) == 0, m
    assert index(empty, make_distance_relation(Metric.LEVENSHTEIN, AB)) == 0


def test_diameter_rotating_pairs():
    r = rel([(0, ("01", "10"), 0)], 1, alphabet=B01)
    assert diameter(r, Metric.CONJUGACY) == 1
    assert diameter(r, Metric.HAMMING) == INF


def test_diameter_anbn_levenshtein_infinite():
    r = rel([(0, ("a", "b"), 0)], 1)
    assert diameter(r, Metric.LEVENSHTEIN) == INF
    assert diameter(r, Metric.LENGTH) == 0


def test_diameter_over_two_output_alphabets():
    r = PairAutomaton.from_edges(1, [0], [0], [(0, ("a", "0"), 0)], AB, B01)
    assert diameter(r, Metric.LEVENSHTEIN) == INF
    assert diameter(r, Metric.LENGTH) == 0


def test_diameter_single_pair():
    r = PairAutomaton.from_edges(2, [0], [1], [(0, ("ab", "ba"), 1)], AB, AB)
    assert diameter(r, Metric.HAMMING) == 2
    assert diameter(r, Metric.TRANSPOSITION) == 1
    assert diameter(r, Metric.LEVENSHTEIN) == 2


def test_diameter_checks_no_domain(monkeypatch):
    # diameter and index read the relation as a pair automaton as it is:
    # they build no machines to rebuild it with a joint product, and run no
    # language comparison (nor its boolean form)
    products = count_calls(monkeypatch, transducers.joint_product)
    calls = count_calls(monkeypatch, automata.language_difference_witness)
    calls += count_calls(monkeypatch, automata.equiv_unambiguous)
    single = PairAutomaton.from_edges(2, [0], [1], [(0, ("ab", "ba"), 1)],
                                      AB, AB)
    loop = rel([(0, ("01", "10"), 0)], 1, alphabet=B01)
    cases = [(single, Metric.HAMMING, 2), (single, Metric.TRANSPOSITION, 1),
             (single, Metric.LEVENSHTEIN, 2), (single, Metric.LCS, 2),
             (single, Metric.DAMERAU_LEVENSHTEIN, 1),
             (single, Metric.CONJUGACY, 1), (single, Metric.LENGTH, 0),
             (single, Metric.DISCRETE, INF), (loop, Metric.CONJUGACY, 1),
             (loop, Metric.HAMMING, INF),
             (delete_first_a(2), Metric.LEVENSHTEIN, 2)]
    for r, metric, want in cases:
        assert diameter(r, metric) == want, metric
    for r, metric, alphabet, want in [
            (single, Metric.HAMMING, AB, 2),
            (single, Metric.TRANSPOSITION, AB, 1),
            (loop, Metric.CONJUGACY, B01, 1), (loop, Metric.HAMMING, B01, INF),
            (delete_first_a(2), Metric.LEVENSHTEIN, AB, 2)]:
        assert index(r, make_distance_relation(metric, alphabet)) == want
    assert products == []
    assert calls == []


# ---------------------------------------------------------------------------
# unit spheres
# ---------------------------------------------------------------------------

def test_hamming_sphere_of_aba():
    sphere = make_distance_relation(Metric.HAMMING, AB).automaton
    got = {v for u, v in enumerate_pairs(sphere, 3) if u == "aba"}
    assert got == {"bba", "aaa", "abb"}


def test_conjugacy_sphere_of_ab():
    sphere = make_distance_relation(Metric.CONJUGACY, AB).automaton
    got = {v for u, v in enumerate_pairs(sphere, 2) if u == "ab"}
    assert got == {"ba"}


def test_levenshtein_sphere_of_empty():
    sphere = make_distance_relation(Metric.LEVENSHTEIN, AB).automaton
    got = {v for u, v in enumerate_pairs(sphere, 1) if u == ""}
    assert got == {"a", "b"}


@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION,
                                    Metric.CONJUGACY, Metric.LEVENSHTEIN,
                                    Metric.LCS, Metric.DAMERAU_LEVENSHTEIN,
                                    Metric.LENGTH])
def test_sphere_is_exactly_unit_distance(metric):
    sphere = make_distance_relation(metric, AB).automaton
    pairs = enumerate_pairs(sphere, 4)
    for u, v in pairs:
        assert word_distance(metric, u, v, AB) == 1, (metric, u, v)
    words = words_upto(AB, 4)
    expected = {(u, v) for u in words for v in words
                if word_distance(metric, u, v, AB) == 1
                and len(u) <= 4 and len(v) <= 4}
    assert pairs == expected, metric


def test_discrete_sphere_unsupported():
    with pytest.raises(UnsupportedCaseError):
        make_distance_relation(Metric.DISCRETE, AB)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_with_identity_is_same():
    r = rel([(0, ("a", "b"), 0)], 1)
    left = compose(identity_relation(AB), r)
    right = compose(r, identity_relation(AB))
    want = enumerate_pairs(r, 6)
    assert enumerate_pairs(left, 6) == want
    assert enumerate_pairs(right, 6) == want


def test_compose_alphabet_mismatch():
    r  = rel([(0, ("a", "b"), 0)], 1)
    r2 = rel([(0, ("0", "1"), 0)], 1, alphabet=B01)
    with pytest.raises(InputError):
        compose(r, r2)


def test_power_of_hamming_sphere_relates_aa_bb():
    sphere = make_distance_relation(Metric.HAMMING, AB).automaton
    sq = power(sphere, 2)
    pairs = enumerate_pairs(sq, 2)
    assert ("aa", "bb") in pairs
    # an edit and its undo put distance-0 pairs into the square as well
    assert all(word_distance(Metric.HAMMING, u, v, AB) <= 2 for u, v in pairs)
    upto = next(islice(power_levels(sphere), 2, None))
    assert {("aa", "aa"), ("aa", "bb"), ("aa", "ab"), ("", "")} <= \
        enumerate_pairs(upto, 2)


def test_power_of_delete_first_a():
    s = delete_first_a()
    p3 = power(s, 3)
    assert ("aaa", "") in enumerate_pairs(p3, 3)
    assert ("aa", "") not in enumerate_pairs(p3, 3)


SPHERE_METRICS = [m for m in Metric if m is not Metric.DISCRETE]


@pytest.mark.parametrize("metric", SPHERE_METRICS)
def test_power_upto_reads_the_generated_levels(metric):
    # S^{≤n}, the power up to n, read from the generator equals the union of
    # the plain powers S^0 ∪ ... ∪ S^n, as relations
    s = make_distance_relation(metric, AB).automaton
    for n, level in enumerate(islice(power_levels(s), 4)):
        powers = reduce(union, (power(s, i) for i in range(n + 1)))
        assert relation_included(powers, level)
        assert relation_included(level, powers)


def test_power_negative():
    with pytest.raises(InputError):
        power(identity_relation(AB), -1)


def test_sphere_powers_within_distance_ball():
    for metric in (Metric.HAMMING, Metric.LEVENSHTEIN):
        sphere = make_distance_relation(metric, AB).automaton
        for i in (1, 2):
            pi = power(sphere, i)
            for u, v in enumerate_pairs(pi, 3):
                assert word_distance(metric, u, v, AB) <= i
        # and at enumeration scale the ball is covered
        p2 = next(islice(power_levels(sphere), 2, None))
        pairs = enumerate_pairs(p2, 3)
        words = words_upto(AB, 3)
        for u in words:
            for v in words:
                if word_distance(metric, u, v, AB) <= 2:
                    assert (u, v) in pairs, (metric, u, v)


# ---------------------------------------------------------------------------
# containment and index
# ---------------------------------------------------------------------------

def test_relation_included_basic():
    small = rel([(0, ("a", "a"), 0)], 1)
    big = identity_relation(AB)
    assert relation_included(small, big)
    assert not relation_included(big, small)


def test_relation_included_letter_pair_big_never_uses():
    # small's padded encoding reads (a, ⊥); big's automaton has no move for it
    small = rel([(0, ("b", "b"), 1), (0, ("a", ""), 1)], 2, finals=(1,))
    big = rel([(0, ("b", "b"), 1)], 2, finals=(1,))
    def padded_labels(r):
        return synchronize(r, max_abs_delay(r), pad=PAD)[0].labels()

    assert ("a", PAD) in padded_labels(small)
    assert ("a", PAD) not in padded_labels(big)
    assert not relation_included(small, big)
    assert relation_included(big, small)


def test_index_delete_first_k(subtests=None):
    s = delete_first_a()
    for k in (1, 2, 3):
        r = delete_first_a(k)
        got = index(r, s, Metric.LEVENSHTEIN, metrizable_asserted=True)
        assert got == k, k


def test_index_composes_once_per_level(monkeypatch):
    # S^{≤k} grows by one composition per step, so index k composes k times;
    # boundedness comes from the closeness verdict, so no k-closeness probe
    # and no k-approximation runs
    sphere = make_distance_relation(Metric.LEVENSHTEIN, AB)
    composed = count_calls(monkeypatch, relations.compose)
    probes = count_calls(monkeypatch, kapprox.kclose)
    builds = count_calls(monkeypatch, kapprox.build_kapprox)
    for k in (1, 2, 3, 4):
        composed.clear()
        assert index(delete_first_a(k), sphere) == k
        assert len(composed) == k
    assert probes == [] and builds == []


@pytest.mark.parametrize("metric, subsets", [
    (Metric.LEVENSHTEIN, 4969), (Metric.DAMERAU_LEVENSHTEIN, 5954)])
def test_index_determinizes_only_what_padded_r_reads(monkeypatch, metric,
                                                     subsets):
    # the one containment test, at level 4, builds only the subsets of padded
    # S^{≤∘4} that a run of padded R reaches; the full subset construction
    # has 28,524 (Levenshtein) and 37,452 (Damerau)
    sizes = []
    real = automata.determinize

    def spy(*args, **kwargs):
        dfa = real(*args, **kwargs)
        sizes.append(dfa.n_states)
        return dfa

    monkeypatch.setattr(relations, "determinize", spy)
    assert index(delete_first_a(4), make_distance_relation(metric, AB)) == 4
    assert sizes == [subsets]


@pytest.mark.parametrize("states, layer", [
    (200, "determinization"), (20, "synchronization")])
def test_index_containment_overflow_names_index_and_level(monkeypatch, states,
                                                          layer):
    # the search starts at level ⌈L(R) / g(S)⌉ = ⌈3 / 1⌉ = 3, where padded R
    # has 30 states, padded S^{≤∘3} 144 and its guided determinization 660
    # subsets
    monkeypatch.setattr(relations, "DEFAULT_CONTAINMENT_CEILING", states)
    sphere = make_distance_relation(Metric.LEVENSHTEIN, AB)
    inner = f"{layer} exceeded ceiling of {states} states"
    with pytest.raises(ResourceLimitError) as caught:
        index(delete_first_a(3), sphere)
    assert str(caught.value) == (f"index containment R ⊆ S^≤∘3 (k=3) "
                                 f"exceeded {states} states: {inner}")
    assert isinstance(caught.value.__cause__, ResourceLimitError)
    assert str(caught.value.__cause__) == inner


def test_index_returns_the_verdicts_unknown(monkeypatch):
    unknown = Unknown("no verified witness below the candidate cutoff")
    monkeypatch.setattr(relations, "_verdict_on", lambda *args: unknown)
    s = delete_first_a()
    got = index(delete_first_a(2), s, Metric.LEVENSHTEIN,
                metrizable_asserted=True)
    assert got is unknown


def test_index_ceiling_error_names_the_verdicts_bound():
    with pytest.raises(UnsupportedCaseError,
                       match=r"ceiling 1 despite diameter at most 3;"):
        index(delete_first_a(3), delete_first_a(1), Metric.LEVENSHTEIN,
              metrizable_asserted=True, ceiling=1)


def test_index_delete_all_as_infinite(monkeypatch):
    edges = [(0, ("a", ""), 0), (0, ("b", "b"), 0)]
    r_all = PairAutomaton.from_edges(1, [0], [0], edges, AB, AB)
    s = delete_first_a()
    containments = count_calls(monkeypatch, relations._included_padded)
    assert index(r_all, s, Metric.LEVENSHTEIN, metrizable_asserted=True) == INF
    assert containments == []


def test_index_of_sphere_in_itself_is_one():
    sd = make_distance_relation(Metric.HAMMING, AB)
    got = index(sd.automaton, sd)
    assert got == 1


def test_index_requires_assertion_for_user_relations():
    s = delete_first_a()
    with pytest.raises(InputError):
        index(s, s, Metric.LEVENSHTEIN)


def test_index_length_metric_warns():
    ident = identity_relation(AB)
    sd = make_distance_relation(Metric.LENGTH, AB)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = index(ident, sd)
        assert got == 0
    assert any("experimental" in str(w.message) for w in caught)


def test_diameter_equals_index_prop_3_20_small():
    relations = [
        identity_relation(AB),
        PairAutomaton.from_edges(2, [0], [1], [(0, ("ab", "ba"), 1)], AB, AB),
        PairAutomaton.from_edges(2, [0], [1], [(0, ("a", "b"), 1),
                                               (1, ("b", "b"), 1)], AB, AB),
    ]
    for m in (Metric.HAMMING, Metric.LEVENSHTEIN):
        for r in relations:
            dia = diameter(r, m)
            idx = index(r, make_distance_relation(m, AB))
            assert dia == idx, (m, dia, idx)


def test_index_starts_at_the_length_diameter_ratio(monkeypatch):
    # L(R) = k and g(S) = 1: the levels below k are composed but never
    # padded, determinized or tested
    s = delete_first_a()
    containments = count_calls(monkeypatch, relations._included_padded)
    composed = count_calls(monkeypatch, relations.compose)
    for k in (1, 2, 3):
        containments.clear()
        composed.clear()
        assert index(delete_first_a(k), s, Metric.LEVENSHTEIN,
                     metrizable_asserted=True) == k
        assert len(containments) == 1
        assert len(composed) == k


def test_index_start_past_the_ceiling_tests_no_containment(monkeypatch):
    containments = count_calls(monkeypatch, relations._included_padded)
    with pytest.raises(UnsupportedCaseError,
                       match=r"ceiling 1 despite diameter at most 3;"):
        index(delete_first_a(3), delete_first_a(1), Metric.LEVENSHTEIN,
              metrizable_asserted=True, ceiling=1)
    assert containments == []


def test_index_start_with_no_length_gap_in_s():
    # S length-preserving (g(S) = 0): the search starts at 0
    sd = make_distance_relation(Metric.HAMMING, AB)
    assert relations._start_level(sd.automaton, sd.automaton) == 0
    assert index(identity_relation(AB), sd) == 0
    assert index(sd.automaton, sd) == 1
