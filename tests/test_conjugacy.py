import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (certificate_replays, delete_first_a, dense_dfa_spec,
                      flip_ab, identity_ab, joint_outputs_table,
                      machine_corpus, make_transducer, random_joint_machine,
                      rotate_first_letter, spec_transducer)
from transdist import conjugacy
from transdist.automata import EPSILON, trim
from transdist.conjugacy import (
    Atom, Cat, Empty, Star, Sum, Witness, NoWitness, WitnessUnknown,
    cat, close_conjugacy, common_witness, pair_witnesses, star,
    state_elimination, sum_, sumfree_decompose, to_pair_automaton,
    verify_witness, witness_candidates,
)
from transdist.kapprox import _verdict_on, close_verdict
from transdist.pairauto import (PairAutomaton, delay_range, enumerate_pairs,
                                is_length_preserving, max_abs_delay,
                                synchronize)
from transdist.relations import _indexed
from transdist.transducers import domain_words, evaluate, joint_product
from transdist.verdicts import (Close, InfiniteWordCertificate,
                                LoopCertificate, NotClose, Unknown)
from transdist.words import INF, Alphabet, Metric, word_distance

AB = Alphabet("ab")
B01 = Alphabet("01")


def lang(e, n, alphabet=AB):
    return enumerate_pairs(to_pair_automaton(e, alphabet, alphabet), n)


# ---------------------------------------------------------------------------
# expressions and state elimination
# ---------------------------------------------------------------------------

def test_expr_printing():
    assert str(Atom("", "")) == "()"
    assert str(Atom("a", "b")) == "(a,b)"
    assert str(cat(Atom("a", ""), star(Atom("b", "b")))) == "(a,) (b,b)*"
    assert str(sum_(Atom("a", "b"), Atom("b", "a"))) == "(a,b) + (b,a)"
    assert str(star(sum_(Atom("a", "a"), Atom("b", "b")))) == "((a,a) + (b,b))*"


def test_smart_constructors():
    assert cat(Atom("a", "b"), Empty()) == Empty()
    assert cat() == Atom("", "")
    assert sum_() == Empty()
    assert star(Empty()) == Atom("", "")
    assert star(star(Atom("a", "a"))) == star(Atom("a", "a"))


def test_state_elimination_single_loop():
    p = PairAutomaton.from_edges(1, [0], [0], [(0, ("a", "b"), 0)], AB, AB)
    e = state_elimination(p)
    assert e == Star(Atom("a", "b"))


def test_state_elimination_empty():
    p = PairAutomaton.from_edges(1, [0], [], [], AB, AB)
    assert state_elimination(p) == Empty()


def test_state_elimination_preserves_language(t1, t2):
    p = joint_product(t1, t2)
    e = state_elimination(p)
    assert lang(e, 4) == enumerate_pairs(p, 4)


def test_state_elimination_random_language_equality():
    rng = random.Random(31)
    outs = ["", "a", "b"]
    for _ in range(25):
        n = rng.randrange(1, 4)
        edges = [(rng.randrange(n), (rng.choice(outs), rng.choice(outs)),
                  rng.randrange(n)) for _ in range(rng.randrange(1, 5))]
        p = PairAutomaton.from_edges(n, [0], [rng.randrange(n)], edges, AB, AB)
        if p.nfa.n_states == 0:
            continue
        e = state_elimination(p)
        assert lang(e, 3) == enumerate_pairs(p, 3)


# ---------------------------------------------------------------------------
# sumfree decomposition
# ---------------------------------------------------------------------------

def test_sumfree_two_atoms():
    e = sum_(Atom("a", "b"), Atom("b", "a"))
    assert sumfree_decompose(e) == [Atom("a", "b"), Atom("b", "a")]


def test_sumfree_keeps_stars_whole():
    e = star(sum_(Atom("a", "a"), Atom("b", "b")))
    parts = sumfree_decompose(e)
    assert len(parts) == 1 and parts[0] is e
    assert lang(parts[0], 3) == lang(e, 3)
    # a sum outside the star is still distributed, around the same star
    outer = sumfree_decompose(cat(sum_(Atom("a", "b"), Atom("b", "a")), e))
    assert outer == [cat(Atom("a", "b"), e), cat(Atom("b", "a"), e)]
    assert all(s.parts[1] is e for s in outer)


def test_sumfree_already_sumfree():
    e = cat(Atom("a", "b"), star(Atom("b", "b")))
    assert sumfree_decompose(e) == [e]


def _sum_outside_stars(e):
    if isinstance(e, Sum):
        return True
    if isinstance(e, Cat):
        return any(_sum_outside_stars(p) for p in e.parts)
    return False


@settings(max_examples=30, deadline=None)
@given(rng=st.randoms(use_true_random=False))
@example(rng=random.Random(12))
def test_sumfree_language_preserved_random(rng):
    def rnd_expr(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            return Atom(rng.choice(["", "a", "b"]), rng.choice(["", "a", "b"]))
        if roll < 0.6:
            return cat(rnd_expr(depth - 1), rnd_expr(depth - 1))
        if roll < 0.8:
            return sum_(rnd_expr(depth - 1), rnd_expr(depth - 1))
        return star(rnd_expr(depth - 1))

    for _ in range(20):
        e = rnd_expr(3)
        parts = sumfree_decompose(e)
        assert not any(_sum_outside_stars(s) for s in parts), e
        union = set()
        for s in parts:
            union |= lang(s, 3)
        assert union == lang(e, 3)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_pair_witnesses_aaab():
    pw = pair_witnesses("aaab", "aaba")
    assert pw is not None
    assert any(f.x == "a" and f.y == "aab" for f in pw.inner)


def test_pair_witnesses_not_conjugate():
    assert pair_witnesses("1001", "0101") is None
    assert pair_witnesses("a", "ab") is None


def test_pair_witnesses_identical_pair():
    pw = pair_witnesses("ab", "ab")
    members = {f.member(j) for f in pw.inner for j in range(3)}
    assert {"", "ab", "abab"} <= members
    for z in members:
        assert "ab" + z == z + "ab"


def test_verify_witness_examples():
    p = to_pair_automaton(star(Atom("ab", "ba")))
    assert verify_witness(p, "a", "inner")
    assert not verify_witness(p, "", "inner")
    assert not verify_witness(to_pair_automaton(star(Atom("a", "b"))), "a",
                              "inner")


def test_verify_witness_epsilon_iff_identity():
    assert verify_witness(to_pair_automaton(star(Atom("ab", "ab"))), "",
                          "inner")
    assert not verify_witness(to_pair_automaton(cat(Atom("a", "b"))), "",
                              "inner")


def test_common_witness_examples():
    res = common_witness(star(Atom("ab", "ba")))
    assert res == Witness("a", "inner")
    res = common_witness(star(Atom("a", "b")))
    assert res == NoWitness(("a", "b"))
    res = common_witness(star(Atom("abb", "bab")))
    assert isinstance(res, Witness)
    p = to_pair_automaton(star(Atom("abb", "bab")))
    assert verify_witness(p, res.z, res.side)
    # the split-family witness from abb = (ab)(b), bab = (b)(ab) also verifies
    assert verify_witness(p, "ab", "inner")
    assert common_witness(star(Atom("a", "a"))) == Witness("", "inner")


@settings(max_examples=60, deadline=None)
@given(u=st.text("ab", min_size=1, max_size=6), shift=st.integers(0, 5),
       cutoff=st.integers(0, 4))
def test_witness_candidates_match_the_eager_list(u, shift, cutoff):
    v = u[shift % len(u):] + u[:shift % len(u)]
    families = pair_witnesses(u, v)
    fams = families.inner + families.outer
    eager = {(f.member(j), f.side) for f in fams for j in range(cutoff + 1)}
    got = list(witness_candidates(fams, cutoff))
    assert len(got) == len(set(got))
    assert set(got) == eager
    assert got == sorted(eager, key=lambda c: (len(c[0]), c[0], c[1]))


def test_witness_candidates_are_lazy():
    # an eager list of this many members would not fit in memory
    families = pair_witnesses("aab", "aba")
    first = next(witness_candidates(families.inner + families.outer, 10 ** 9))
    assert first == ("a", "inner")


def test_star_reduction_property():
    # z witnesses G* iff z witnesses G (closure under pointwise concatenation)
    rng = random.Random(44)
    bodies = [Atom("ab", "ba"), Atom("abb", "bab"), cat(Atom("a", "b"), Atom("b", "a")),
              Atom("aab", "aba")]
    zs = ["", "a", "b", "ab", "ba", "aab"]
    for body in bodies:
        p, p_star = to_pair_automaton(body), to_pair_automaton(star(body))
        for z in zs:
            for side in ("inner", "outer"):
                assert verify_witness(p, z, side) == \
                    verify_witness(p_star, z, side), (body, z, side)


# ---------------------------------------------------------------------------
# closeness w.r.t. conjugacy
# ---------------------------------------------------------------------------

def test_close_conjugacy_rotating_loop():
    p = PairAutomaton.from_edges(1, [0], [0], [(0, ("01", "10"), 0)], B01, B01)
    verdict = close_conjugacy(p)
    assert isinstance(verdict, Close)
    assert verdict.bound == 1
    for u, v in enumerate_pairs(p, 8):
        assert word_distance(Metric.CONJUGACY, u, v) <= verdict.bound


def test_close_conjugacy_identity():
    p = PairAutomaton.from_edges(1, [0], [0], [(0, ("a", "a"), 0),
                                               (0, ("b", "b"), 0)], AB, AB)
    verdict = close_conjugacy(p)
    assert verdict == Close(bound=__import__("transdist.words", fromlist=["ExtendedNat"]).ExtendedNat(0))


def test_close_conjugacy_t1_t3(t1, t3):
    verdict = close_verdict(Metric.CONJUGACY, t1, t3)
    assert isinstance(verdict, NotClose)
    cert = verdict.certificate
    assert isinstance(cert, InfiniteWordCertificate)
    out1, out3 = evaluate(t1, cert.word), evaluate(t3, cert.word)
    assert word_distance(Metric.CONJUGACY, out1, out3) == INF


def test_unbalanced_pair_is_not_close_before_state_elimination(monkeypatch):
    # conjugate words have equal lengths: a pair automaton that is not
    # length-preserving is NotClose without an expression, and the input
    # word of the certificate gives two outputs of unequal length
    def refuse(*args, **kwargs):
        raise AssertionError("state elimination ran")

    unbalanced = []
    for t1, t2 in machine_corpus(17, 60):
        if not is_length_preserving(joint_product(t1, t2)):
            unbalanced.append((t1, t2))
    assert len(unbalanced) > 20
    monkeypatch.setattr(conjugacy, "state_elimination", refuse)
    for t1, t2 in unbalanced:
        verdict = close_verdict(Metric.CONJUGACY, t1, t2)
        assert isinstance(verdict, NotClose)
        cert = verdict.certificate
        assert isinstance(cert, InfiniteWordCertificate)
        out1, out2 = evaluate(t1, cert.word), evaluate(t2, cert.word)
        assert (out1, out2) == cert.outputs
        assert len(out1) != len(out2)


def test_length_check_keeps_the_verdicts_of_the_expression_route():
    # the expression route runs state elimination on every pair automaton;
    # both routes give the same verdict class and the same Close bound, on
    # random pairs (mostly unbalanced) and on rotate pairs (all close)
    pairs = machine_corpus(23, 120)
    for seed in range(6):
        for n in (2, 3):
            spec = dense_dfa_spec(random.Random(seed), n)
            pairs.append((spec_transducer(spec),
                          spec_transducer(rotate_first_letter(spec))))
    for t1, t2 in pairs:
        p = joint_product(t1, t2)
        fast = close_conjugacy(p)
        slow = close_conjugacy(state_elimination(p))
        assert type(fast) is type(slow)
        if isinstance(fast, Close):
            assert fast.bound == slow.bound


def test_close_conjugacy_t4_t5(t4, t5):
    # outputs are complements: (0,1) is not conjugate
    verdict = close_verdict(Metric.CONJUGACY, t4, t5)
    assert isinstance(verdict, NotClose)


# ---------------------------------------------------------------------------
# closeness w.r.t. the Levenshtein family
# ---------------------------------------------------------------------------

def test_close_levenshtein_t4_t5(t4, t5):
    verdict = close_verdict(Metric.LEVENSHTEIN, t4, t5)
    assert isinstance(verdict, Close)
    assert verdict.bound >= 2
    # enumerated distances stay within the bound
    for w in ["0", "1", "00110", "010101", "111000111"]:
        d = word_distance(Metric.LEVENSHTEIN, evaluate(t4, w), evaluate(t5, w))
        assert d <= verdict.bound


def test_close_levenshtein_t1_t2_notclose(t1, t2):
    verdict = close_verdict(Metric.LEVENSHTEIN, t1, t2)
    assert isinstance(verdict, NotClose)
    cert = verdict.certificate
    assert isinstance(cert, LoopCertificate)
    assert certificate_replays(Metric.LEVENSHTEIN, cert, t1, t2)


def test_close_levenshtein_unbounded_gap_pumps_an_unbalanced_loop(t1, t3):
    # t3 erases b's, so the output-length gap to t1 grows without bound
    for metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
        verdict = close_verdict(metric, t1, t3)
        assert isinstance(verdict, NotClose)
        assert isinstance(verdict.certificate, LoopCertificate)
        assert certificate_replays(metric, verdict.certificate, t1, t3)


def test_close_levenshtein_relation_with_two_output_alphabets():
    # every letter pair differs, so d = |w| grows along the loop
    p = PairAutomaton.from_edges(1, [0], [0], [(0, ("a", "0"), 0),
                                               (0, ("b", "1"), 0)], AB, B01)
    verdict = _verdict_on(Metric.LEVENSHTEIN, _indexed(p))
    assert isinstance(verdict, NotClose)
    assert isinstance(verdict.certificate, LoopCertificate)


def test_close_levenshtein_constants_only():
    # the one pair (aba, ba) runs through the loop-free letter edges (a,b),
    # (b,a) and (a,): each differs, so each weighs 1 in the bound
    e = cat(Atom("ab", "ba"), Atom("a", ""))
    verdict = _verdict_on(Metric.LEVENSHTEIN, _indexed(to_pair_automaton(e)))
    assert isinstance(verdict, Close)
    assert verdict.bound == 3
    assert verdict.bound >= word_distance(Metric.LEVENSHTEIN, "aba", "ba") == 1


def test_close_levenshtein_lcs_and_damerau_verdicts(t4, t5, t1, t2):
    for metric in (Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
        assert isinstance(close_verdict(metric, t4, t5), Close)
        assert isinstance(close_verdict(metric, t1, t2), NotClose)


def test_close_levenshtein_bound_covers_enumeration(t4, t5):
    verdict = close_verdict(Metric.LCS, t4, t5)
    for w in ["0", "01", "0011", "010010"]:
        d = word_distance(Metric.LCS, evaluate(t4, w), evaluate(t5, w))
        assert d <= verdict.bound


def test_close_levenshtein_charges_a_component_its_gap_spread():
    # a -> aa against a -> ε, then the identity, then the final output aa:
    # max_abs_delay is 2, but the one loop component has gap spread 0, so
    # it weighs 0 in place of 2·2; the four bridging letters weigh 1 each
    loop = [(1, "a", "a", 1), (1, "b", "b", 1)]
    ta = make_transducer(2, [0], [1], [(0, "a", "aa", 1)] + loop)
    tb = make_transducer(2, [0], [1], [(0, "a", "", 1)] + loop,
                         fout={1: "aa"})
    assert max_abs_delay(joint_product(ta, tb)) == 2
    for metric, old in ((Metric.LEVENSHTEIN, 8), (Metric.LCS, 16),
                        (Metric.DAMERAU_LEVENSHTEIN, 8)):
        verdict = close_verdict(metric, ta, tb)
        assert isinstance(verdict, Close)
        worst = max(word_distance(metric, evaluate(ta, w), evaluate(tb, w))
                    for w in domain_words(ta, 6))
        assert worst <= verdict.bound < old, metric


def test_unknown_is_never_silently_converted():
    # An artificial cutoff of 0 starves the candidate search on a machine
    # whose witness needs repetition: the result must surface as Unknown-like,
    # never as Close/NotClose with a wrong bound.
    res = common_witness(star(Atom("ab", "ba")), cutoff=0)
    # members with j=0 ("a") suffice here, so the witness is still found
    assert isinstance(res, (Witness, WitnessUnknown))
    if isinstance(res, WitnessUnknown):
        assert res.cutoff == 0


# the seeded machines need the witness term of a component's weight (43),
# its gap-spread term (88) and the doubling for LCS (17); random draws
# rarely do
@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
@example(rng=random.Random(43))
@example(rng=random.Random(88))
@example(rng=random.Random(17))
def test_levenshtein_verdicts_hold_on_random_machines(rng):
    pair = random_joint_machine(rng, max_states=4, max_out_len=2)
    assume(pair is not None)
    t1, t2 = pair
    outputs = list(joint_outputs_table(pair, 6).values())
    for metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
        verdict = close_verdict(metric, t1, t2)
        if isinstance(verdict, Close):
            worst = max((word_distance(metric, o1, o2) for o1, o2 in outputs),
                        default=0)
            assert worst <= verdict.bound, metric
        elif isinstance(verdict, NotClose):
            assert isinstance(verdict.certificate, LoopCertificate)
            assert certificate_replays(metric, verdict.certificate, t1, t2), metric
        else:
            assert isinstance(verdict, Unknown)


@pytest.mark.parametrize("n", range(3, 9))
def test_rotate_first_letter_pairs_are_close(n):
    for seed in range(3):
        spec = dense_dfa_spec(random.Random(seed), n)
        t1 = spec_transducer(spec)
        t2 = spec_transducer(rotate_first_letter(spec))
        for w in ("", "ab", "abba", "baaab"):
            o1, o2 = evaluate(t1, w), evaluate(t2, w)
            assert o2 == (o1[1:] + o1[:1] if o1 is not None else None)
        for metric in (Metric.LEVENSHTEIN, Metric.LCS,
                       Metric.DAMERAU_LEVENSHTEIN):
            verdict = close_verdict(metric, t1, t2)
            assert isinstance(verdict, Close), (seed, metric, verdict)
        if n > 7:
            continue  # conjugacy on (8, 2) takes seconds
        verdict = close_verdict(Metric.CONJUGACY, t1, t2)
        worst = max(word_distance(Metric.CONJUGACY, evaluate(t1, w),
                                  evaluate(t2, w))
                    for w in domain_words(t1, 6))
        assert isinstance(verdict, Close), (seed, verdict)
        assert verdict.bound == 1 or verdict.bound == 0 == worst, (seed, verdict)
        assert worst <= verdict.bound, seed


def test_rotate_pair_with_nested_stars_is_close_under_conjugacy():
    # the perfbench (7, 7) rotate pair nests stars deeply; rewriting (X+Y)*
    # as (X*Y)*X* copies X* and would grow exponentially in the nesting
    spec = dense_dfa_spec(random.Random(7), 7)
    t1 = spec_transducer(spec)
    t2 = spec_transducer(rotate_first_letter(spec))
    start = time.perf_counter()
    verdict = close_verdict(Metric.CONJUGACY, t1, t2)
    assert time.perf_counter() - start < 1.0
    assert isinstance(verdict, Close) and verdict.bound == 1


def _rotate_pair():
    spec = dense_dfa_spec(random.Random(0), 4)
    return spec_transducer(spec), spec_transducer(rotate_first_letter(spec))


def _swap_loop_pair(components):
    """a -> ab against a -> ba, b -> b on both sides, in a chain of
    components joined by (b, b) edges; Close with bound 2 per component."""
    def machine(image):
        triples = [(i, "a", image, i) for i in range(components)]
        triples += [(i, "b", "b", min(i + 1, components - 1))
                    for i in range(components)]
        return make_transducer(components, [0], range(components), triples)

    return machine("ab"), machine("ba")


@pytest.fixture
def searches(monkeypatch):
    """(automaton, cutoff) of every witness search the verdicts make."""
    seen = []
    search = conjugacy._witness_search

    def recording(p, cutoff):
        seen.append((p, cutoff))
        return search(p, cutoff)

    monkeypatch.setattr(conjugacy, "_witness_search", recording)
    return seen


def test_both_witness_searches_cut_off_at_one_plus_transitions(searches):
    # a rotate pair's Levenshtein components are all diagonal and need no
    # search, so that leg runs on a loop (ab, ba), (b, b): 3 transitions
    for metric, t1, t2 in ((Metric.CONJUGACY, *_rotate_pair()),
                           (Metric.LEVENSHTEIN, *_swap_loop_pair(1))):
        searches.clear()
        assert isinstance(close_verdict(metric, t1, t2), Close)
        assert searches, metric
        assert all(cutoff == 1 + len(p.nfa.transitions)
                   for p, cutoff in searches)


def test_every_exhausted_witness_search_keeps_the_verdict_unknown(
        monkeypatch):
    # an Unknown refuses to be read as a bool, so a second exhausted search
    # must not test the first one's Unknown for truth
    searches = []

    def exhausted(p, cutoff):
        searches.append(p)
        return WitnessUnknown(cutoff, ("ab", "ba"), None)

    monkeypatch.setattr(conjugacy, "_witness_search", exhausted)
    e = sum_(star(Atom("ab", "ba")), star(Atom("abb", "bab")))
    assert isinstance(close_conjugacy(e), Unknown)
    assert len(searches) == 2
    # two components, each with a loop (ab, ba), (b, b), give the
    # Levenshtein leg its two searches
    for metric, t1, t2 in ((Metric.CONJUGACY, *_rotate_pair()),
                           (Metric.LEVENSHTEIN, *_swap_loop_pair(2))):
        searches.clear()
        assert isinstance(close_verdict(metric, t1, t2), Unknown)
        assert len(searches) >= 2, metric


@pytest.mark.parametrize("metric, scale", [
    (Metric.LEVENSHTEIN, 1), (Metric.LCS, 2), (Metric.DAMERAU_LEVENSHTEIN, 1)])
def test_diagonal_components_are_close_without_a_search(searches, metric,
                                                        scale):
    # the copying tail of a flip pair and every component of delete-first-k
    # loop on (x, x) labels only; the bounds are those the searches gave
    cases = [(joint_product(identity_ab(), flip_ab(3, (0, 2))), 2),
             (joint_product(identity_ab(), flip_ab(4, (0, 1, 3))), 3)]
    cases += [(_indexed(delete_first_a(k)), k) for k in (1, 2, 3)]
    for p, bound in cases:
        verdict = _verdict_on(metric, p)
        assert isinstance(verdict, Close), verdict
        assert verdict.bound == scale * bound, (bound, verdict)
    assert searches == []


@pytest.mark.parametrize("metric", [
    Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN])
def test_one_off_diagonal_loop_edge_makes_a_search(searches, metric):
    # (b, a) among (a, a) in one component: its loop language holds the
    # non-conjugate pair (b, a)
    t1 = identity_ab()
    t2 = make_transducer(1, [0], [0], [(0, "a", "a", 0), (0, "b", "a", 0)])
    verdict = close_verdict(metric, t1, t2)
    assert len(searches) == 1
    assert isinstance(verdict, NotClose)
    assert certificate_replays(metric, verdict.certificate, t1, t2)


DIAGONAL = st.sampled_from([("a", "a"), ("b", "b"), ("ab", "ab"), ("", "")])


@st.composite
def diagonal_components(draw):
    """(n, edges, entry) of one strongly connected component with diagonal
    labels: a cycle through every state, plus random edges."""
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    edges = [(s, draw(DIAGONAL), (s + 1) % n) for s in range(n)]
    edges += draw(st.lists(st.tuples(state, DIAGONAL, state), max_size=6))
    return n, edges, draw(state)


@settings(max_examples=150, deadline=None)
@given(component=diagonal_components())
def test_diagonal_loop_languages_have_the_empty_witness(component):
    # the loop automaton is built as close_levenshtein_transducers builds
    # it; the label rule must agree with the search and with the route
    # identity_witness takes on other automata: synchronize, scan the labels
    n, edges, entry = component
    loops = PairAutomaton.from_edges(n, [entry], [entry], edges, AB, AB,
                                     do_trim=False)
    cutoff = 1 + len(loops.nfa.transitions)
    assert conjugacy._witness_search(loops, cutoff) == Witness("", "inner")
    lo, hi = delay_range(loops)
    nfa, _, _ = trim(synchronize(loops, max(map(abs, lo + hi)))[0])
    assert all(lbl is EPSILON or lbl[0] == lbl[1]
               for _, lbl, _ in nfa.transitions)
    assert all(u == v for u, v in enumerate_pairs(loops, 4))
