import pytest

from conftest import joint_to_transducers, machine_corpus, make_transducer
from transdist import kapprox
from transdist.errors import IntegrityError, PreconditionError
from transdist.kapprox import (build_kapprox, close_verdict, distance, kclose,
                               min_weight_on)
from transdist.transducers import domain_words, joint_product
from transdist.words import INF, Alphabet, Metric, word_distance

EDIT_METRICS = [Metric.HAMMING, Metric.TRANSPOSITION, Metric.CONJUGACY,
                Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN]


# ---------------------------------------------------------------------------
# k-approximation soundness on the paper machines
# ---------------------------------------------------------------------------

def test_kapprox_t4_t5_levenshtein(t4, t5):
    j = joint_product(t4, t5)
    da = build_kapprox(Metric.LEVENSHTEIN, j, 2)
    assert min_weight_on(da, "00110") == 2
    for w in domain_words(t4, 6):
        got = min_weight_on(da, w)
        want = word_distance(Metric.LEVENSHTEIN, *j.outputs_on_input(w))
        assert got == (want if want <= 2 else INF), w


def test_kapprox_zero_budget_accepts_equal_outputs(t1):
    j = joint_product(t1, t1)
    da = build_kapprox(Metric.LEVENSHTEIN, j, 0)
    for w in ("", "a", "ab", "abab"):
        assert min_weight_on(da, w) == 0


def test_kapprox_hamming_needs_two(t1):
    tx = make_transducer(2, [0], [1], [(0, "a", "1001", 1)],
                         alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    ty = make_transducer(2, [0], [1], [(0, "a", "0101", 1)],
                         alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    j = joint_product(tx, ty)
    da1 = build_kapprox(Metric.HAMMING, j, 1)
    assert min_weight_on(da1, "a") == INF
    da2 = build_kapprox(Metric.HAMMING, j, 2)
    assert min_weight_on(da2, "a") == 2
    dat = build_kapprox(Metric.TRANSPOSITION, j, 1)
    assert min_weight_on(dat, "a") == 1
    dac = build_kapprox(Metric.CONJUGACY, j, 3)
    assert min_weight_on(dac, "a") == INF  # 1001 and 0101 are not conjugate


def test_kapprox_conjugacy_rotation():
    # constant pair (0101, 1010): one rotation
    tx = make_transducer(2, [0], [1], [(0, "a", "0101", 1)],
                         alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    ty = make_transducer(2, [0], [1], [(0, "a", "1010", 1)],
                         alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    j = joint_product(tx, ty)
    da = build_kapprox(Metric.CONJUGACY, j, 1)
    assert min_weight_on(da, "a") == 1


def test_kapprox_requires_bounded_length_distance(t1, t3):
    j = joint_product(t1, t3)
    with pytest.raises(PreconditionError):
        build_kapprox(Metric.LEVENSHTEIN, j, 2)


# ---------------------------------------------------------------------------
# k-approximation vs the kernels on a random corpus (acceptance #4 at small scale)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", EDIT_METRICS)
def test_kapprox_matches_kernels_small_corpus(metric):
    for j in machine_corpus(404, 5, bounded_length_gap=True, max_states=3):
        t1, _ = joint_to_transducers(j)
        for k in (0, 1, 2):
            da = build_kapprox(metric, j, k)
            for w in domain_words(t1, 5):
                want = word_distance(metric, *j.outputs_on_input(w))
                got = min_weight_on(da, w)
                assert got == (want if want <= k else INF), (metric, k, w)


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
    for m in (Metric.LEVENSHTEIN, Metric.DISCRETE, Metric.LENGTH):
        assert distance(m, ta, tb) == INF


def test_distance_discrete(t4):
    other = make_transducer(3, [0], [1, 2], [
        (0, "0", "0", 1), (0, "1", "1", 2),
        (1, "0", "", 1), (1, "1", "1", 2),
        (2, "1", "", 2), (2, "0", "1", 1),
    ], alph_in=Alphabet("01"), alph_out=Alphabet("01"))
    assert distance(Metric.DISCRETE, t4, other) == INF


def test_distance_shifted_pair_matches_subst_route():
    from transdist.substitution import distance_subst
    t_a = make_transducer(2, [0], [1], [(0, "a", "ba", 1), (1, "a", "a", 1)])
    t_b = make_transducer(2, [0], [1], [(0, "a", "a", 1), (1, "a", "a", 1)],
                          fout={1: "b"})
    generic = distance(Metric.HAMMING, t_a, t_b)
    assert generic == distance_subst(Metric.HAMMING, t_a, t_b) == 2
    assert distance(Metric.TRANSPOSITION, t_a, t_b) == INF


# ---------------------------------------------------------------------------
# the k-search of distance
# ---------------------------------------------------------------------------

def _identity():
    return make_transducer(1, [0], [0], [(0, "a", "a", 0), (0, "b", "b", 0)])


def _flip(m, flips):
    """Copies its input but swaps a<->b at the positions in flips (< m)."""
    swap = {"a": "b", "b": "a"}
    triples = [(i, a, swap[a] if i in flips else a, min(i + 1, m))
               for i in range(m + 1) for a in "ab"]
    return make_transducer(m + 1, [0], list(range(m + 1)), triples)


@pytest.fixture
def probes(monkeypatch):
    """The k of every kclose probe that distance makes."""
    seen = []
    real = kapprox.kclose

    def recording(metric, t1, t2, k, ceiling=kapprox.DEFAULT_STATE_CEILING):
        seen.append(k)
        return real(metric, t1, t2, k, ceiling)

    monkeypatch.setattr(kapprox, "kclose", recording)
    return seen


@pytest.mark.parametrize("metric, want", [(Metric.LEVENSHTEIN, 3),
                                          (Metric.LCS, 6)])
def test_distance_probes_each_k_up_to_the_answer(metric, want, probes):
    assert distance(metric, _identity(), _flip(4, (0, 1, 3))) == want
    assert probes == list(range(want + 1))


def test_distance_past_the_verdict_bound_is_an_integrity_error(monkeypatch):
    t1, t2 = _identity(), _flip(4, (0, 1, 3))
    bound = close_verdict(Metric.LEVENSHTEIN, t1, t2).bound
    assert bound.is_finite
    seen = []

    def never(metric, t1, t2, k, ceiling=kapprox.DEFAULT_STATE_CEILING):
        seen.append(k)
        return False

    monkeypatch.setattr(kapprox, "kclose", never)
    with pytest.raises(IntegrityError):
        distance(Metric.LEVENSHTEIN, t1, t2)
    assert seen == list(range(bound.value() + 1))


def test_distance_without_verdict_bound_searches_upward():
    t1, t2 = _identity(), _flip(16, tuple(range(16)))
    assert close_verdict(Metric.HAMMING, t1, t2).bound is None
    assert distance(Metric.HAMMING, t1, t2) == 16
