
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (certificate_replays, machine_corpus, make_transducer,
                      multi_letter_pairs)
from transdist.automata import DEFAULT_STATE_CEILING, EPSILON, scc_decomposition
from transdist.errors import InputError, ResourceLimitError
from transdist.kapprox import close_verdict, distance, kclose
from transdist.oracles import distance_subst
from transdist import pairauto, substitution
from transdist.pairauto import (PairAutomaton, max_abs_delay, synchronize,
                                unbalanced_letter)
from transdist.substitution import (_longest_path, _pairwise_walk,
                                    close_hamming, close_transposition)
from transdist.transducers import domain_words, evaluate, joint_product
from transdist.verdicts import (Close, InfiniteWordCertificate, LoopCertificate,
                                NotClose)
from transdist.words import INF, Alphabet, ExtendedNat, Metric, word_distance

AB = Alphabet("ab")
ABC = Alphabet("abc")


def enum_max_distance(metric, t1, t2, max_len):
    best = None
    for w in domain_words(t1, max_len):
        d = word_distance(metric, evaluate(t1, w), evaluate(t2, w))
        best = d if best is None else max(best, d)
    return best


# ---------------------------------------------------------------------------
# closeness: paper machines
# ---------------------------------------------------------------------------

def test_t4_t5_hamming_not_close(t4, t5):
    verdict = close_verdict(Metric.HAMMING, t4, t5)
    assert isinstance(verdict, NotClose)
    assert isinstance(verdict.certificate, LoopCertificate)
    assert certificate_replays(Metric.HAMMING, verdict.certificate, t4, t5)


def test_t1_t2_hamming_not_close(t1, t2):
    verdict = close_verdict(Metric.HAMMING, t1, t2)
    assert isinstance(verdict, NotClose)
    # outputs differ in length on odd-length inputs: a one-word certificate
    assert isinstance(verdict.certificate, InfiniteWordCertificate)
    w = verdict.certificate.word
    assert word_distance(Metric.HAMMING, evaluate(t1, w), evaluate(t2, w)) == INF


def test_self_closeness(t1, t4):
    for t in (t1, t4):
        assert isinstance(close_verdict(Metric.HAMMING, t, t), Close)
        assert isinstance(close_verdict(Metric.TRANSPOSITION, t, t), Close)


def test_t1_t2_transposition_not_close(t1, t2):
    verdict = close_verdict(Metric.TRANSPOSITION, t1, t2)
    assert isinstance(verdict, NotClose)


def test_different_domains_not_close():
    t_astar = make_transducer(1, [0], [0], [(0, "a", "a", 0)])
    t_astarb = make_transducer(2, [0], [1], [(0, "a", "a", 0), (0, "b", "", 1)])
    for metric in (Metric.HAMMING, Metric.TRANSPOSITION):
        assert isinstance(close_verdict(metric, t_astar, t_astarb), NotClose)


# ---------------------------------------------------------------------------
# handcrafted close/not-close pairs
# ---------------------------------------------------------------------------

def shifted_pair():
    """T_a: a^n -> b a^n; T_b: a^n -> a^n b (a border-shifted pair)."""
    t_a = make_transducer(2, [0], [1], [(0, "a", "ba", 1), (1, "a", "a", 1)])
    t_b = make_transducer(2, [0], [1], [(0, "a", "a", 1), (1, "a", "a", 1)],
                          fout={1: "b"})
    return t_a, t_b


def test_shifted_pair_hamming_close_transposition_not():
    t_a, t_b = shifted_pair()
    assert isinstance(close_verdict(Metric.HAMMING, t_a, t_b), Close)
    verdict = close_verdict(Metric.TRANSPOSITION, t_a, t_b)
    assert isinstance(verdict, NotClose)
    assert isinstance(verdict.certificate, LoopCertificate)
    assert certificate_replays(Metric.TRANSPOSITION, verdict.certificate,
                               t_a, t_b)


def test_shifted_pair_hamming_distance():
    t_a, t_b = shifted_pair()
    assert distance_subst(Metric.HAMMING, t_a, t_b) == 2
    assert enum_max_distance(Metric.HAMMING, t_a, t_b, 8) == 2


def test_swapped_first_block_transposition_close():
    # identical loops, first block swapped: one adjacent swap fixes any output
    t_a = make_transducer(2, [0], [1], [(0, "a", "ab", 1), (1, "a", "ab", 1)])
    t_b = make_transducer(2, [0], [1], [(0, "a", "ba", 1), (1, "a", "ab", 1)])
    verdict = close_verdict(Metric.TRANSPOSITION, t_a, t_b)
    assert isinstance(verdict, Close)
    for n in range(1, 6):
        d = word_distance(Metric.TRANSPOSITION,
                          evaluate(t_a, "a" * n), evaluate(t_b, "a" * n))
        assert d == 1
    assert distance_subst(Metric.TRANSPOSITION, t_a, t_b) == 1


def test_growing_swaps_not_close_for_both():
    # T_a: (ab)^n versus T_b: ab(ba)^{n-1}: the loop pair (ab, ba) has a
    # non-identical zero-delay interior, so d_t grows like n-1 and d_h like 2n
    t_a = make_transducer(2, [0], [1], [(0, "a", "ab", 1), (1, "a", "ab", 1)])
    t_b = make_transducer(2, [0], [1], [(0, "a", "ab", 1), (1, "a", "ba", 1)])
    assert isinstance(close_verdict(Metric.TRANSPOSITION, t_a, t_b), NotClose)
    assert isinstance(close_verdict(Metric.HAMMING, t_a, t_b), NotClose)
    assert distance_subst(Metric.HAMMING, t_a, t_b) == INF


# ---------------------------------------------------------------------------
# one delay walk per component
# ---------------------------------------------------------------------------

def _loop_delay_pair(d, letters="ab", erased=""):
    """T_a(w) = a^d·h(w) and T_b(w) = h(w)·a^d, for h the morphism that
    copies `letters` and erases `erased`: a delay of d on the loops."""
    alph_in, alph_out = Alphabet(erased + letters), Alphabet(letters)
    head = "a" * d
    t_a = make_transducer(2, [0], [0, 1], [
        *((0, c, head, 1) for c in erased), *((1, c, "", 1) for c in erased),
        *((0, c, head + c, 1) for c in letters),
        *((1, c, c, 1) for c in letters)],
        fout={0: head}, alph_in=alph_in, alph_out=alph_out)
    t_b = make_transducer(1, [0], [0], [
        *((0, c, "", 0) for c in erased), *((0, c, c, 0) for c in letters)],
        fout={0: head}, alph_in=alph_in, alph_out=alph_out)
    return t_a, t_b


@pytest.fixture
def no_synchronize(monkeypatch):
    """Fail any call of `synchronize`: the verdicts walk p's own states."""
    def refuse(*args, **kwargs):
        raise AssertionError("a verdict synchronized")
    monkeypatch.setattr(pairauto, "synchronize", refuse)
    monkeypatch.setattr(substitution, "synchronize", refuse)


@pytest.mark.parametrize("d", [20, 40])
@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION])
def test_loop_delays_are_walked_not_synchronized(metric, d, no_synchronize):
    # S_L, the synchronization of the loops, held up to 2^d buffers here
    t_a, t_b = _loop_delay_pair(d)
    verdict = close_verdict(metric, t_a, t_b)
    assert isinstance(verdict, NotClose)
    assert isinstance(verdict.certificate, LoopCertificate)
    assert certificate_replays(metric, verdict.certificate, t_a, t_b)
    # over one letter the two outputs are equal
    assert close_verdict(metric, *_loop_delay_pair(d, "a")) == Close(
        bound=None)


@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION])
def test_a_silent_loop_beside_a_letter_loop(metric, no_synchronize):
    # c writes nothing on both sides: its (ε, ε) loop fixes no buffer, and
    # the letter loops beside it decide
    t_a, t_b = _loop_delay_pair(3, "ab", erased="c")
    p = joint_product(t_a, t_b)
    assert any(lbl == ("", "") for _, lbl, _ in p.nfa.transitions)
    verdict = close_verdict(metric, t_a, t_b)
    assert isinstance(verdict, NotClose)
    assert certificate_replays(metric, verdict.certificate, t_a, t_b)
    assert close_verdict(metric, *_loop_delay_pair(3, "a", erased="c")) \
        == Close(bound=None)


def test_a_buffer_misaligned_once_is_hamming_close(no_synchronize):
    # b·a^n against a^n·c: 'b' does not commute with 'a', but the loop of
    # a-pairs settles into the buffer 'a', and the two ends mismatch once
    abc = Alphabet("abc")
    t_a = make_transducer(2, [0], [1], [(0, "a", "ba", 1), (1, "a", "a", 1)],
                          alph_in=Alphabet("a"), alph_out=abc)
    t_b = make_transducer(2, [0], [1], [(0, "a", "a", 1), (1, "a", "a", 1)],
                          fout={1: "c"}, alph_in=Alphabet("a"), alph_out=abc)
    assert close_verdict(Metric.HAMMING, t_a, t_b) == Close(bound=None)
    assert enum_max_distance(Metric.HAMMING, t_a, t_b, 8) == 2
    assert distance_subst(Metric.HAMMING, t_a, t_b) == 2


def test_hamming_walks_a_loop_of_mismatches_and_a_shifted_loop():
    # (ab, ba)*: both letters of every turn mismatch, on the loop
    p = PairAutomaton.from_edges(1, [0], [0], [(0, ("ab", "ba"), 0)], AB, AB)
    verdict = close_hamming(p)
    assert isinstance(verdict, NotClose)
    assert isinstance(verdict.certificate, LoopCertificate)
    # b·a^n against a^n·b: the two mismatches, read one letter late, are
    # crossed once each, off the loop of a-pairs
    shifted = PairAutomaton.from_edges(
        3, [0], [2], [(0, ("b", ""), 1), (1, ("a", "a"), 1),
                      (1, ("", "b"), 2)], AB, AB)
    assert close_hamming(shifted) == Close(bound=None)


#: balanced labels for the loops of `test_one_walk_per_component_reads_the_cycles_of_s`
_BALANCED = [("", ""), ("a", "a"), ("b", "b"), ("a", "b"), ("b", "a"),
             ("ab", "ba"), ("ba", "ab"), ("c", "c"), ("ca", "ac")]


def _cycles_of_s_are_clean(p, metric):
    """The verdict read off S, the synchronization of a length-preserving
    p: no transition inside a strongly connected component of S that
    mismatches (Hamming), or after which the letter counts differ
    (transposition, every pair a permutation pair)."""
    s = synchronize(p, max_abs_delay(p))[0]
    comp = scc_decomposition(s)[0]
    weights = (_count_gaps(s) if metric is Metric.TRANSPOSITION
               else [lbl is not EPSILON and lbl[0] != lbl[1]
                     for _, lbl, _ in s.transitions])
    return not any(w and comp[src] == comp[dst]
                   for (src, _, dst), w in zip(s.transitions, weights))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), left=st.booleans(),
       metric=st.sampled_from([Metric.HAMMING, Metric.TRANSPOSITION]))
def test_one_walk_per_component_reads_the_cycles_of_s(data, left, metric):
    # an edge puts one side k letters ahead, balanced edges among states
    # 1-3 keep the gap, and an edge to the final state 4 closes it
    k = data.draw(st.integers(0, 3))
    head, tail = (data.draw(st.text("abc", min_size=k, max_size=k))
                  for _ in range(2))
    edges = [(0, (head, "") if left else ("", head), 1),
             *data.draw(st.lists(st.tuples(st.integers(1, 3),
                                           st.sampled_from(_BALANCED),
                                           st.integers(1, 3)),
                                 min_size=1, max_size=6)),
             (data.draw(st.integers(1, 3)), ("", tail) if left else (tail, ""),
              4)]
    p = PairAutomaton.from_edges(5, [0], [4], edges, ABC, ABC)
    close = close_hamming if metric is Metric.HAMMING else close_transposition
    verdict = close(p)
    if metric is Metric.TRANSPOSITION and unbalanced_letter(p) is not None:
        assert isinstance(verdict, NotClose)
    else:
        assert isinstance(verdict, Close) == _cycles_of_s_are_clean(p, metric)


def _sorted_prefix_pair(d, letters="ab"):
    """T_a copies its input; T_b writes nothing for the first d letters,
    keeping them sorted in its state, then writes them and copies the
    rest."""
    alphabet = Alphabet(letters)
    t_a = make_transducer(d + 2, [0], [d + 1], [
        (i, c, c, min(i + 1, d + 1)) for i in range(d + 2) for c in letters],
        alph_in=alphabet, alph_out=alphabet)
    held = [""]
    for word in held:  # breadth-first: held grows behind word
        if len(word) < d:
            held += sorted({"".join(sorted(word + c)) for c in letters}
                           - set(held))
    ids = {word: n for n, word in enumerate(held)}
    end = len(ids)
    triples = [(end, c, c, end) for c in letters]
    for word, s in ids.items():
        for c in letters:
            if len(word) < d:
                triples.append((s, c, "", ids["".join(sorted(word + c))]))
            else:
                triples.append((s, c, word + c, end))
    return t_a, make_transducer(end + 1, [0], [end], triples,
                                alph_in=alphabet, alph_out=alphabet)


@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION])
def test_delay_between_loops_stays_cheap(metric):
    # delays up to 20 on the acyclic part, 0 on the copy loop: the deciders
    # walk p's states, not the 2^20 buffers of the prefix
    t_a, t_b = _sorted_prefix_pair(20)
    assert isinstance(close_verdict(metric, t_a, t_b), Close)
    t_a, t_b = _sorted_prefix_pair(4)
    assert isinstance(close_verdict(metric, t_a, t_b), Close)
    # bbaa against aabb: 4 substitutions, or 4 adjacent swaps
    assert enum_max_distance(metric, t_a, t_b, 8) == 4
    assert distance_subst(metric, t_a, t_b) == 4


def test_identity_checks_walk_past_large_delays():
    # delays up to 20 on the acyclic part: the identity checks walk p's
    # states once, where a synchronization would hold up to 2^20 buffers
    t_a, t_b = _sorted_prefix_pair(20)
    verdict = close_verdict(Metric.DISCRETE, t_a, t_b)
    assert isinstance(verdict, NotClose)
    assert certificate_replays(Metric.DISCRETE, verdict.certificate, t_a, t_b)
    assert kclose(Metric.LEVENSHTEIN, t_a, t_b, 0) is False
    assert close_verdict(Metric.DISCRETE, t_b, t_b) == Close(
        bound=ExtendedNat(0))


@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_sorted_prefix_distances(d):
    # the first d letters sorted: bbb..aaa against aaa..bbb at worst
    t_a, t_b = _sorted_prefix_pair(d)
    for metric, want in ((Metric.HAMMING, d),
                         (Metric.TRANSPOSITION, (d // 2) ** 2)):
        assert distance(metric, t_a, t_b) == want
        assert distance_subst(metric, t_a, t_b) == want


def test_sorted_prefix_distances_need_no_probe(probes):
    # one longest path over S, 32,738 states here, and no k-search
    t_a, t_b = _sorted_prefix_pair(12)
    assert distance(Metric.HAMMING, t_a, t_b) == 12
    assert distance(Metric.TRANSPOSITION, t_a, t_b) == 36
    assert probes == []


@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION])
def test_distance_past_the_state_ceiling_raises(metric):
    # the verdict walks p's states; the distance needs all of S
    t_a, t_b = _sorted_prefix_pair(8)
    assert isinstance(close_verdict(metric, t_a, t_b), Close)
    with pytest.raises(ResourceLimitError,
                       match="synchronization exceeded ceiling of 100"):
        distance(metric, t_a, t_b, ceiling=100)


def _close_pairs(metric):
    """The close pairs of the bounded-gap corpora and the multi-letter
    pools."""
    pairs = [pair for seed in (808, 909, 111, 404)
             for pair in machine_corpus(seed, 150, bounded_length_gap=True)]
    pairs += [(u1, u2) for seed in range(4)
              for _, u1, u2 in multi_letter_pairs(seed, 300)]
    return [(u1, u2) for u1, u2 in pairs
            if isinstance(close_verdict(metric, u1, u2), Close)]


@pytest.mark.parametrize("metric, count", [(Metric.HAMMING, 928),
                                           (Metric.TRANSPOSITION, 659)])
def test_distance_is_the_reference_distance_on_close_pairs(metric, count,
                                                          no_kapprox):
    # kclose reads the same path: neither builds a k-approximation
    pairs = _close_pairs(metric)
    assert len(pairs) == count
    for u1, u2 in pairs:
        want = distance_subst(metric, u1, u2)
        assert distance(metric, u1, u2) == want
        assert kclose(metric, u1, u2, want.value())
        assert want == 0 or not kclose(metric, u1, u2, want.value() - 1)


def _count_gaps(s):
    """Per transition of a synchronized automaton, ‖D‖₁ after it for a
    letter-pair transition and 0 for a silent one.  D, the difference of the
    letter counts spelled on the two sides, is propagated breadth-first from
    the initial states; it is a function of the state when the states are
    reached by runs of p and every accepted pair is a permutation pair."""
    diff = {q: {} for q in s.initials}
    order = list(diff)
    adj = s.adj()
    for q in order:  # breadth-first: order grows behind q
        for lbl, d, _ in adj[q]:
            if d not in diff:
                diff[d] = counts = dict(diff[q])
                if lbl is not EPSILON:
                    counts[lbl[0]] = counts.get(lbl[0], 0) + 1
                    counts[lbl[1]] = counts.get(lbl[1], 0) - 1
                order.append(d)
    norm = {q: sum(map(abs, counts.values())) for q, counts in diff.items()}
    return [0 if lbl is EPSILON else norm[d] for _, lbl, d in s.transitions]


def _footrule(p):
    """F, the largest footrule Σ_i ‖D_i‖₁ over the accepting paths of S,
    the synchronization of p: by Diaconis and Graham the swap distance lies
    in [F/2, F], and is F/2 over two letters."""
    s = synchronize(p, max_abs_delay(p))[0]
    return _longest_path(s, _count_gaps(s))


def test_footrule_brackets_the_transposition_distance(probes):
    # over three letters or more the footrule leaves the bracket [F/2, F]
    # open; one longest path gives the exact distance inside it, with no
    # k-search
    bracketed = 0
    for u1, u2 in _close_pairs(Metric.TRANSPOSITION):
        p = joint_product(u1, u2)
        footrule = _footrule(p)
        letters = {c for _, (x, y), _ in p.nfa.transitions for c in x + y}
        if len(letters) <= 2 or footrule == 0:
            continue
        bracketed += 1
        want = distance_subst(Metric.TRANSPOSITION, u1, u2)
        assert distance(Metric.TRANSPOSITION, u1, u2) == want
        assert footrule / 2 <= want.value() <= footrule
    assert bracketed == 217
    assert probes == []


@pytest.mark.parametrize("d, want", [(2, 1), (3, 3), (4, 5), (5, 8),
                                     (6, 12)])
def test_three_letter_sorted_prefix_distance(d, want, probes):
    t_a, t_b = _sorted_prefix_pair(d, "abc")
    assert distance(Metric.TRANSPOSITION, t_a, t_b) == want
    assert distance_subst(Metric.TRANSPOSITION, t_a, t_b) == want
    assert probes == []


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION])
def test_three_letter_sorted_prefix_kclose(metric, d, no_kapprox):
    # kclose answers from the verdict and the longest path
    t_a, t_b = _sorted_prefix_pair(d, "abc")
    answer = distance(metric, t_a, t_b).value()
    for k in range(answer - 1, answer + 2):
        assert kclose(metric, t_a, t_b, k) == (answer <= k)


@pytest.mark.parametrize("d", range(2, 7))
def test_pairwise_walk_is_about_as_large_as_s(d):
    p = joint_product(*_sorted_prefix_pair(d, "abc"))
    walk = _pairwise_walk(p, DEFAULT_STATE_CEILING)[0]
    s = synchronize(p, max_abs_delay(p))[0]
    assert walk.n_states <= 1.1 * s.n_states


def test_constant_transducers_distances():
    t_x = make_transducer(2, [0], [1], [(0, "a", "1001", 1)],
                          alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    t_y = make_transducer(2, [0], [1], [(0, "a", "0101", 1)],
                          alph_in=Alphabet("a"), alph_out=Alphabet("01"))
    assert distance_subst(Metric.TRANSPOSITION, t_x, t_y) == 1
    assert distance_subst(Metric.HAMMING, t_x, t_y) == 2


def test_distance_subst_self_is_zero(t4):
    assert distance_subst(Metric.HAMMING, t4, t4) == 0
    assert distance_subst(Metric.TRANSPOSITION, t4, t4) == 0


def test_distance_subst_infinite(t4, t5):
    assert distance_subst(Metric.HAMMING, t4, t5) == INF


def test_distance_subst_rejects_other_metrics(t4):
    with pytest.raises(InputError):
        distance_subst(Metric.LEVENSHTEIN, t4, t4)


# ---------------------------------------------------------------------------
# random corpus: closeness verdicts against enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION])
def test_closeness_vs_enumeration_on_corpus(metric):
    # the binary corpus, and delayed pairs whose outputs use 3 or 4 letters
    pairs = [("binary", u1, u2) for u1, u2 in machine_corpus(202, 20)]
    pairs += multi_letter_pairs(204, 30)
    for kind, u1, u2 in pairs:
        verdict = close_verdict(metric, u1, u2)
        # swapping the first two letters costs 2 substitutions or 1 swap
        assert kind != "swap" or isinstance(verdict, Close)
        if isinstance(verdict, Close):
            d = distance_subst(metric, u1, u2)
            assert d.is_finite
            seen = enum_max_distance(metric, u1, u2, 8)
            if seen is not None:
                assert seen <= d
        else:
            assert certificate_replays(metric, verdict.certificate, u1, u2)


def test_distance_subst_matches_bruteforce_when_stable():
    for u1, u2 in machine_corpus(203, 12):
        if not isinstance(close_verdict(Metric.HAMMING, u1, u2), Close):
            continue
        d = distance_subst(Metric.HAMMING, u1, u2)
        v8 = enum_max_distance(Metric.HAMMING, u1, u2, 8)
        v9 = enum_max_distance(Metric.HAMMING, u1, u2, 9)
        v10 = enum_max_distance(Metric.HAMMING, u1, u2, 10)
        if v8 is not None and v8 == v9 == v10:
            assert d == v8, (d, v8)
