import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transdist.errors import InputError
from transdist.oracles import (OverBudget, metric_order_check,
                               oracle_distance, oracle_distance_table,
                               oracle_distances_from)
from transdist.words import (
    INF, Alphabet, ExtendedNat, Metric, extend_table, one_letter_distance,
    parse_metric, prefix_table, word_distance,
)

AB01 = Alphabet("01")
ABC = Alphabet("ab")

NON_DISCRETE = [m for m in Metric if m is not Metric.DISCRETE]


def words_upto(alphabet, n):
    out = [""]
    for k in range(1, n + 1):
        out.extend("".join(t) for t in itertools.product(alphabet.letters, repeat=k))
    return out


# ---------------------------------------------------------------------------
# ExtendedNat
# ---------------------------------------------------------------------------

def test_extended_nat_saturating_arithmetic():
    assert ExtendedNat(2) + ExtendedNat(3) == 5
    assert INF + 7 == INF
    assert 7 + INF == INF
    assert INF + INF == INF
    assert INF * 2 == INF
    assert ExtendedNat(3) * 2 == 6


def test_extended_nat_order_and_render():
    assert ExtendedNat(4) < INF
    assert not INF < INF
    assert max(ExtendedNat(1), INF) == INF
    assert min(ExtendedNat(1), INF) == 1
    assert str(INF) == "inf"
    assert str(ExtendedNat(13)) == "13"


def test_extended_nat_order_against_foreign_operand_raises():
    for value in (ExtendedNat(3), INF):
        for compare in (lambda a: a > "x", lambda a: a >= "x",
                        lambda a: a < "x", lambda a: a <= "x"):
            with pytest.raises(TypeError):
                compare(value)
    assert ExtendedNat(3) > 2 and ExtendedNat(3) >= 3 and INF > 10 ** 9
    assert 2 < ExtendedNat(3) and not ExtendedNat(3) > INF


def test_extended_nat_rejects_negative():
    with pytest.raises(InputError):
        ExtendedNat(-1)


def test_parse_metric_aliases():
    assert parse_metric("damerau") is Metric.DAMERAU_LEVENSHTEIN
    assert parse_metric("damerau_levenshtein") is Metric.DAMERAU_LEVENSHTEIN
    assert parse_metric("LCS") is Metric.LCS
    with pytest.raises(InputError):
        parse_metric("euclid")


# ---------------------------------------------------------------------------
# word_distance examples
# ---------------------------------------------------------------------------

def test_hamming_transposition_conjugacy_on_paper_pairs():
    assert word_distance(Metric.HAMMING, "1001", "0101") == 2
    assert word_distance(Metric.TRANSPOSITION, "1001", "0101") == 1
    assert word_distance(Metric.CONJUGACY, "0101", "1010") == 1
    assert word_distance(Metric.CONJUGACY, "1001", "0101") == INF


def test_levenshtein_examples():
    assert word_distance(Metric.LEVENSHTEIN, "aaa", "bbb") == 3
    assert word_distance(Metric.LEVENSHTEIN, "010", "101") == 2


@pytest.mark.parametrize("metric", list(Metric))
def test_distance_to_self_is_zero(metric):
    for w in ("", "0", "0110", "10101"):
        assert word_distance(metric, w, w) == 0


def test_transposition_needs_two_swaps():
    assert word_distance(Metric.TRANSPOSITION, "0101", "1010") == 2
    got = oracle_distance(Metric.TRANSPOSITION, "0101", "1010", 4, AB01)
    assert got == ExtendedNat(2)


def test_infinite_cases():
    assert word_distance(Metric.HAMMING, "0", "01") == INF
    assert word_distance(Metric.TRANSPOSITION, "00", "01") == INF
    assert word_distance(Metric.CONJUGACY, "", "0") == INF
    assert word_distance(Metric.CONJUGACY, "", "") == 0
    assert word_distance(Metric.TRANSPOSITION, "", "") == 0
    assert word_distance(Metric.DISCRETE, "0", "1") == INF


def test_alphabet_mismatch_is_input_error():
    with pytest.raises(InputError):
        word_distance(Metric.HAMMING, "ab", "01", AB01)


def test_alphabetic_vector():
    # a word's alphabetic vector is its letter Counter; adjacent swaps keep
    # it, so the transposition distance is finite exactly where it agrees
    for u, v in [("1001", "0110"), ("", ""), ("0101", "1010")]:
        assert Counter(u) == Counter(v)
        assert word_distance(Metric.TRANSPOSITION, u, v).is_finite
    assert Counter("0101") != Counter("0111")
    assert word_distance(Metric.TRANSPOSITION, "0101", "0111") == INF


def test_length_and_lcs():
    assert word_distance(Metric.LENGTH, "0001", "01") == 2
    assert word_distance(Metric.LCS, "01", "10") == 2
    assert word_distance(Metric.LCS, "ab", "b") == 1


def test_damerau_is_unrestricted():
    # CA -> AC -> ABC: one swap plus one insertion; the restricted
    # optimal-string-alignment variant would answer 3.
    assert word_distance(Metric.DAMERAU_LEVENSHTEIN, "ca", "abc") == 2


# d(c·A, c·B) = d(A, B): the crossing k-approximation strips the common
# prefix of a node's residuals on this lemma
PREFIX_METRICS = [Metric.DAMERAU_LEVENSHTEIN, Metric.TRANSPOSITION,
                  Metric.LEVENSHTEIN, Metric.LCS]


@pytest.mark.parametrize("metric", PREFIX_METRICS)
def test_common_prefix_leaves_the_distance_unchanged(metric):
    # every A, B of length <= 4 and c of length 1 or 2 over abc:
    # 121 * 121 * 12 = 175,692 triples
    words = words_upto(Alphabet("abc"), 4)
    prefixes = [c for c in words if 1 <= len(c) <= 2]
    for a in words:
        for b in words:
            d = word_distance(metric, a, b)
            for c in prefixes:
                assert word_distance(metric, c + a, c + b) == d, (c, a, b)


@settings(max_examples=200, deadline=None)
@given(metric=st.sampled_from(PREFIX_METRICS),
       c=st.text(alphabet="abc", min_size=1, max_size=4),
       a=st.text(alphabet="abc", max_size=7),
       b=st.text(alphabet="abc", max_size=7))
def test_common_prefix_leaves_the_distance_unchanged_property(metric, c, a,
                                                              b):
    assert word_distance(metric, c + a, c + b) == word_distance(metric, a, b)


# the mirror of the lemma above, which the k-approximation relies on where
# both outputs agree from some state on: it holds for Hamming too
@settings(max_examples=200, deadline=None)
@given(metric=st.sampled_from([Metric.HAMMING, *PREFIX_METRICS]),
       s=st.text(alphabet="abc", min_size=1, max_size=4),
       a=st.text(alphabet="abc", max_size=7),
       b=st.text(alphabet="abc", max_size=7))
@example(metric=Metric.TRANSPOSITION, s="a", a="ab", b="ba")
@example(metric=Metric.DAMERAU_LEVENSHTEIN, s="ab", a="abc", b="ca")
def test_common_suffix_leaves_the_distance_unchanged_property(metric, s, a,
                                                              b):
    assert word_distance(metric, a + s, b + s) == word_distance(metric, a, b)


# ---------------------------------------------------------------------------
# prefix-distance tables
# ---------------------------------------------------------------------------

TABLE_METRICS = [Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN]
SHORT_WORDS = st.text(alphabet="abc", max_size=8)


@settings(max_examples=150, deadline=None)
@given(u=SHORT_WORDS, v=SHORT_WORDS)
def test_prefix_table_holds_every_prefix_distance(u, v):
    for metric in TABLE_METRICS:
        table = prefix_table(metric, u, v)
        assert len(table) == len(u) + 1
        for i, row in enumerate(table):
            assert len(row) == len(v) + 1
            for j, cell in enumerate(row):
                d = word_distance(metric, u[:i], v[:j])
                assert cell == d.value(), (metric, u[:i], v[:j])


@settings(max_examples=150, deadline=None)
@given(u=SHORT_WORDS, v=SHORT_WORDS,
       x=st.sampled_from(["", "a", "c"]), y=st.sampled_from(["", "b", "c"]))
def test_extend_table_grows_the_prefix_table(u, v, x, y):
    # only Damerau's chunks keep tables; Levenshtein and LCS price theirs
    # by closed form (`one_letter_distance`)
    damerau = Metric.DAMERAU_LEVENSHTEIN
    table = prefix_table(damerau, u, v)
    assert extend_table(table, u, v, x, y) == prefix_table(damerau, u + x,
                                                           v + y)
    assert table == prefix_table(damerau, u, v)


def test_extend_table_grows_every_short_table():
    # the exhaustive companion of the property above: x and y range over
    # every letter, so Damerau's column meets a y that already occurs in u
    # and a letter of u that occurs in v, which its swap reads
    damerau = Metric.DAMERAU_LEVENSHTEIN
    short = words_upto(Alphabet("abc"), 3)
    for u in short:
        for v in short:
            table = prefix_table(damerau, u, v)
            for x, y in itertools.product(["", "a", "b", "c"], repeat=2):
                grown = extend_table(table, u, v, x, y)
                assert grown == prefix_table(damerau, u + x, v + y), \
                    (u, v, x, y)
            assert table == prefix_table(damerau, u, v), (u, v)


@settings(max_examples=150, deadline=None)
@given(w=SHORT_WORDS, c=st.sampled_from(["", "a", "b", "c"]))
def test_one_letter_distance_is_the_word_distance(w, c):
    for metric, mismatch in ((Metric.LEVENSHTEIN, 1), (Metric.LCS, 2)):
        for u, v in ((w, c), (c, w)):
            assert one_letter_distance(u, v, mismatch) == \
                word_distance(metric, u, v).value(), (metric, u, v)


def test_prefix_table_examples():
    assert prefix_table(Metric.LEVENSHTEIN, "ab", "b") == [[0, 1], [1, 1],
                                                           [2, 1]]
    assert prefix_table(Metric.LCS, "ab", "ba") == [[0, 1, 2], [1, 2, 1],
                                                    [2, 1, 2]]
    assert prefix_table(Metric.DAMERAU_LEVENSHTEIN, "ab", "ba")[2][2] == 1


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_examples():
    assert oracle_distance(Metric.CONJUGACY, "aaab", "aaba", 4) == ExtendedNat(1)
    for m in Metric:
        assert oracle_distance(m, "ab", "ab", 0) == 0
    assert oracle_distance(Metric.HAMMING, "aa", "ab", 4) == ExtendedNat(1)


def test_oracle_over_budget():
    got = oracle_distance(Metric.LEVENSHTEIN, "aaaa", "bbbb", 2)
    assert got == OverBudget(2)


def test_oracle_detects_infinity_by_exhaustion():
    assert oracle_distance(Metric.CONJUGACY, "ab", "bb", 6) == INF
    assert oracle_distance(Metric.TRANSPOSITION, "ab", "bb", 6) == INF


@pytest.mark.parametrize("metric", NON_DISCRETE)
def test_word_distance_matches_oracle_small(metric):
    words = words_upto(AB01, 4)
    budget = 5
    for u in words:
        table = oracle_distances_from(metric, u, budget, AB01, 4)
        for v in words:
            got = table[v]
            want = word_distance(metric, u, v, AB01)
            if isinstance(got, OverBudget):
                assert want > budget
            else:
                assert want == got, (metric, u, v)


def test_oracle_map_binary_agrees_with_per_pair_bfs():
    for metric in (Metric.LEVENSHTEIN, Metric.CONJUGACY, Metric.TRANSPOSITION):
        fast = oracle_distances_from(metric, "0110", 4, AB01, 3)
        for v, got in sorted(fast.items()):
            assert got == oracle_distance(metric, "0110", v, 4, AB01), (metric, v)


@pytest.mark.parametrize("metric", [Metric.LENGTH, Metric.DISCRETE])
def test_oracle_table_agrees_with_per_pair_bfs_without_an_edit_graph(metric):
    # neither metric edits letters, so the table cannot come from the
    # binary edit graph, where "1" is unreachable from "0": their length
    # distance is 0, not ∞
    words = words_upto(AB01, 3)
    table = oracle_distance_table(metric, words, 4, AB01, 3)
    for u in words:
        assert table[u] == {v: oracle_distance(metric, u, v, 4, AB01)
                            for v in words}, u


def test_bulk_oracle_needs_a_binary_alphabet():
    with pytest.raises(InputError):
        oracle_distance_table(Metric.LEVENSHTEIN, ["ab"], 2, Alphabet("abc"), 2)
    with pytest.raises(InputError):
        oracle_distances_from(Metric.LENGTH, "a", 2, Alphabet("a"), 2)


# ---------------------------------------------------------------------------
# metric axioms and metric order
# ---------------------------------------------------------------------------

def test_metric_axioms_separation_symmetry():
    words = words_upto(AB01, 4)
    for m in Metric:
        for u in words:
            assert word_distance(m, u, u) == 0
        rng = random.Random(7)
        for _ in range(300):
            u, v = rng.choice(words), rng.choice(words)
            duv = word_distance(m, u, v)
            assert duv == word_distance(m, v, u)
            if m is not Metric.LENGTH and u != v:
                assert duv > 0


def test_metric_triangle_inequality_exhaustive_short():
    words = words_upto(AB01, 3)
    for m in Metric:
        for u in words:
            for v in words:
                duv = word_distance(m, u, v)
                for w in words:
                    assert duv <= word_distance(m, u, w) + word_distance(m, w, v)


def test_metric_order_check_passes_on_enumeration():
    words = words_upto(AB01, 4)
    pairs = [(u, v) for u in words for v in words]
    assert metric_order_check(pairs, AB01) is None


def test_metric_order_check_reports_violation_shape():
    # feeding an impossible "sample" is not expressible; instead check the
    # incomparability witnesses keep both sides of the preorder honest
    assert word_distance(Metric.CONJUGACY, "010101", "101010") == 1
    assert word_distance(Metric.HAMMING, "010101", "101010") == 6
    assert word_distance(Metric.TRANSPOSITION, "1001", "0101") == 1
    assert word_distance(Metric.CONJUGACY, "1001", "0101") == INF


def test_conjugacy_is_min_over_rotations():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(0, 7)
        u = "".join(rng.choice("01") for _ in range(n))
        k = rng.randrange(0, n) if n else 0
        v = u[k:] + u[:k]
        d = word_distance(Metric.CONJUGACY, u, v)
        assert d.is_finite
        best = min((min(j, n - j) for j in range(n or 1) if u[j:] + u[:j] == v),
                   default=0)
        assert d == best


def test_transposition_finite_iff_same_vector():
    words = words_upto(AB01, 5)
    rng = random.Random(11)
    for _ in range(400):
        u, v = rng.choice(words), rng.choice(words)
        finite = word_distance(Metric.TRANSPOSITION, u, v).is_finite
        assert finite == (Counter(u) == Counter(v))
