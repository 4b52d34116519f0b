import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (certificate_replays, dense_dfa_spec, machine_corpus,
                      make_transducer, random_joint_machine,
                      rotate_first_letter, spec_transducer)
from transdist import pairauto, transducers
from transdist.automata import Nfa, language_difference_witness
from transdist.errors import InputError, IntegrityError, PreconditionError
from transdist.kapprox import close_verdict, distance
from transdist.relations import diameter
from transdist.pairauto import (PairAutomaton, delay_range, enumerate_pairs,
                                find_pair_path)
from transdist.transducers import (
    DomainMismatchError, Transducer, domain_words, evaluate, joint_product,
    same_domain, unbalanced_loop_certificate,
)
from transdist.verdicts import (DomainCertificate, InfiniteWordCertificate,
                                LoopCertificate, NotClose, PairCertificate)
from transdist.words import INF, Alphabet, Metric, word_distance

AB = Alphabet("ab")
B01 = Alphabet("01")


def words(alphabet, n):
    out = [""]
    for k in range(1, n + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=k))
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_t1_outputs_odd_positions(t1):
    # on (ab)^n the odd positions all hold a's
    assert evaluate(t1, "abab") == "aa"
    assert evaluate(t1, "ababa") == "aaa"
    assert evaluate(t1, "ba") == "b"
    assert evaluate(t1, "") == ""


def test_t2_outputs_even_positions(t2):
    assert evaluate(t2, "abab") == "bb"
    assert evaluate(t2, "ab") == "b"
    assert evaluate(t2, "a") == ""


def test_t3_outputs_only_as(t3):
    assert evaluate(t3, "abba") == "aa"
    assert evaluate(t3, "bbb") == ""


def test_eval_outside_domain_is_none(t4):
    assert evaluate(t4, "") is None


def test_domain_words_rejects_a_negative_length():
    # the cut-off len(w) == max_len never holds below 0: on a loop the walk
    # would grow without end
    loop = make_transducer(1, [0], [0], [(0, "a", "a", 0)])
    with pytest.raises(InputError):
        domain_words(loop, -1)
    assert domain_words(loop, 0) == [""]
    assert domain_words(loop, 2) == ["", "a", "aa"]


def test_t4_t5_block_compression(t4, t5):
    assert evaluate(t4, "00110") == "010"
    assert evaluate(t5, "00110") == "101"
    assert evaluate(t4, "0") == "0"
    assert evaluate(t5, "0") == "1"


def test_eval_unambiguous_nondeterministic():
    # outputs the input word if it ends with a, else the empty word
    nfa = Nfa(3, [0, 1], [2], [
        (0, "a", 0), (0, "b", 0), (0, "a", 2),
        (1, "b", 1), (1, "a", 1), (1, "b", 2),
    ])
    t = Transducer(nfa, ["a", "b", "a", "", "", ""], {}, AB, AB)
    assert evaluate(t, "aba") == "aba"
    assert evaluate(t, "ab") == ""


@st.composite
def sequential_specs(draw, initials=st.sampled_from([[], [0]])):
    """(n, initials, finals, triples, final outputs) of a sequential machine
    on ab: partial transitions, any finals, at most one initial state."""
    n = draw(st.integers(1, 4))
    outputs = st.text("01", max_size=2)
    triples = [(s, a, draw(outputs), draw(st.integers(0, n - 1)))
               for s in range(n) for a in "ab" if draw(st.booleans())]
    finals = draw(st.sets(st.integers(0, n - 1)))
    initials = draw(initials)
    return n, initials, finals, triples, {f: draw(outputs) for f in finals}


@settings(max_examples=150, deadline=None)
@given(spec=sequential_specs())
def test_sequential_walk_matches_the_layered_walk(spec):
    # the twin adds one dead initial state with two parallel a-loops: it
    # accepts nothing, so the function is the same, but the twin is not
    # sequential and is evaluated layer by layer
    n, initials, finals, triples, final_out = spec
    t = make_transducer(n, initials, finals, triples, final_out,
                        alph_out=B01)
    twin = make_transducer(n + 1, initials + [n], finals,
                           triples + [(n, "a", "", n), (n, "a", "1", n)],
                           final_out, alph_out=B01)
    assert t.is_sequential and not twin.is_sequential
    for w in words("ab", 6):
        assert evaluate(t, w) == evaluate(twin, w), w
    if not initials:
        assert all(evaluate(t, w) is None for w in words("ab", 3))


def test_ambiguous_transducer_rejected():
    nfa = Nfa(3, [0], [1, 2], [(0, "a", 1), (0, "a", 2)])
    with pytest.raises(PreconditionError):
        Transducer(nfa, ["a", "b"], {}, AB, AB)


def test_final_outputs_appended():
    t = make_transducer(2, [0], [1], [(0, "a", "x", 1)], fout={1: "yz"},
                        alph_out=Alphabet("xyz"))
    assert evaluate(t, "a") == "xyz"


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_same_domain_paper_machines(t1, t2, t3):
    assert same_domain(t1, t2)
    assert same_domain(t1, t3)
    assert same_domain(t1, t1)


def test_same_domain_false():
    t_astar = make_transducer(1, [0], [0], [(0, "a", "a", 0)])
    t_astarb = make_transducer(2, [0], [1], [(0, "a", "a", 0), (0, "b", "", 1)])
    assert not same_domain(t_astar, t_astarb)


# ---------------------------------------------------------------------------
# joint product and pair automaton
# ---------------------------------------------------------------------------

def test_joint_product_self_is_identity_relation(t1):
    p = joint_product(t1, t1)
    assert all(u == v for u, v in enumerate_pairs(p, 5))


def test_joint_product_requires_same_domain(t4):
    t_astar = make_transducer(1, [0], [0], [(0, "a", "a", 0)])
    with pytest.raises(InputError):
        joint_product(t_astar, make_transducer(2, [0], [1],
                                               [(0, "a", "a", 0), (0, "b", "", 1)]))


def _paths_spelling(p, w):
    """Output pairs of the accepting paths of p whose input letters spell w
    (split pieces and final-output edges carry no letter)."""
    adj = p.nfa.adj()
    # letterless edges form no cycle, so no path is longer than this
    longest = (len(w) + 1) * p.nfa.n_states
    found = []
    todo = [(s, 0, "", "", 0) for s in p.nfa.initials]
    while todo:
        s, i, u, v, steps = todo.pop()
        assert steps <= longest, "a cycle of letterless edges"
        if i == len(w) and s in p.nfa.finals:
            found.append((u, v))
        for (x, y), d, t in adj[s]:
            a = p.input_letters[t]
            if a is None:
                todo.append((d, i, u + x, v + y, steps + 1))
            elif i < len(w) and a == w[i]:
                todo.append((d, i + 1, u + x, v + y, steps + 1))
    return found


def test_joint_product_paths_spell_each_input_once():
    """Every domain input w is spelled by exactly one accepting path of the
    pair automaton, which emits (T1(w), T2(w)); no other input is spelled.
    The corpus has pairs on one skeleton and rotate pairs on two."""
    rng = random.Random(17)
    pairs = machine_corpus(105, 25)
    for _ in range(10):
        spec = dense_dfa_spec(rng, rng.randrange(1, 5))
        pairs.append((spec_transducer(spec),
                      spec_transducer(rotate_first_letter(spec))))
    for u1, u2 in pairs:
        p = joint_product(u1, u2)
        for w in words("ab", 5):
            want = evaluate(u1, w), evaluate(u2, w)
            assert _paths_spelling(p, w) == ([want] if want[0] is not None
                                             else [])


def test_pair_language_odd_even(t1, t2):
    p = joint_product(t1, t2)
    pairs = enumerate_pairs(p, 3)
    for w in words("ab", 6):
        u = evaluate(t1, w)
        v = evaluate(t2, w)
        if len(u) <= 3 and len(v) <= 3:
            assert (u, v) in pairs
    for u, v in pairs:
        assert len(u) in (len(v), len(v) + 1)


def test_pair_automaton_t4_t5_contains_complement_pair(t4, t5):
    p = joint_product(t4, t5)
    path = find_pair_path(p, ("010", "101"))
    assert path is not None


def test_joint_machine_all_eps_outputs():
    t = make_transducer(1, [0], [0], [(0, "a", "", 0)])
    p = joint_product(t, t)
    assert enumerate_pairs(p, 3) == {("", "")}


def test_eval_matches_pair_automaton_projection(t1, t2):
    p = joint_product(t1, t2)
    for w in words("ab", 8):
        u, v = evaluate(t1, w), evaluate(t2, w)
        if max(len(u), len(v)) <= 8:
            assert find_pair_path(p, (u, v)) is not None


def product_after_comparison(t1, t2):
    """Reference for `joint_product`: compare the domains first, walk every
    pair of same-letter transitions, then trim the whole edge graph."""
    if t1.nfa is not t2.nfa:
        wit = language_difference_witness(t1.nfa, t2.nfa, check=False)
        if wit is not None:
            raise DomainMismatchError(DomainCertificate("".join(wit)))
    adj1, adj2 = t1.nfa.adj(), t2.nfa.adj()
    order = [(p, q) for p in sorted(t1.nfa.initials)
             for q in sorted(t2.nfa.initials)]
    ids = {pq: i for i, pq in enumerate(order)}
    initials = range(len(order))
    edges = []
    for sid, (p, q) in enumerate(order):
        for a, d1, tr1 in adj1[p]:
            for b, d2, tr2 in adj2[q]:
                if a == b:
                    if (d1, d2) not in ids:
                        ids[(d1, d2)] = len(order)
                        order.append((d1, d2))
                    edges.append((sid, (t1.out[tr1], t2.out[tr2]),
                                  ids[(d1, d2)], a))
    finals = []
    extra = len(order)
    for sid, (p, q) in enumerate(order):
        if p in t1.nfa.finals and q in t2.nfa.finals:
            fo = (t1.final_out[p], t2.final_out[q])
            if fo == ("", ""):
                finals.append(sid)
            else:
                edges.append((sid, fo, extra))
                finals.append(extra)
                extra += 1
    return PairAutomaton.from_edges(extra, initials, finals, edges,
                                    t1.output_alphabet, t1.output_alphabet)


def spec_machine(spec, reverse=False):
    """The machine of a `sequential_specs` spec, or of its reversal, which
    is unambiguous and, with several final states, not sequential."""
    n, initials, finals, triples, final_out = spec
    if reverse:
        initials, finals = sorted(finals), list(initials)
        triples = [(d, a, o, s) for s, a, o, d in triples]
        final_out = {f: final_out.get(f, "1") for f in finals}
    return make_transducer(n, initials, finals, triples, final_out,
                           alph_out=B01)


@st.composite
def machine_pairs(draw):
    """Two machines on independent partial, untrimmed skeletons, or on one
    skeleton with fresh outputs and a dead state behind some missing
    letters (the domains agree, yet the two sides read different letters);
    either side may be reversed."""
    # one machine in four has no initial state
    specs = sequential_specs(st.sampled_from([[0], [0], [0], []]))
    spec = draw(specs)
    if draw(st.booleans()):
        other = draw(specs)
    else:
        n, initials, finals, triples, _ = spec
        outputs = st.text("01", max_size=2)
        present = {(s, a) for s, a, _, _ in triples}
        dead = [(s, a, draw(outputs), n) for s in range(n) for a in "ab"
                if (s, a) not in present and draw(st.booleans())]
        other = (n + 1, initials, finals,
                 [(s, a, draw(outputs), d) for s, a, _, d in triples] + dead,
                 {f: draw(outputs) for f in finals})
    return (spec_machine(spec, draw(st.booleans())),
            spec_machine(other, draw(st.booleans())))


@settings(max_examples=300, deadline=None)
@given(pair=machine_pairs())
def test_joint_product_matches_the_product_after_a_comparison(pair):
    try:
        want = product_after_comparison(*pair)
    except DomainMismatchError as mismatch:
        with pytest.raises(DomainMismatchError) as caught:
            joint_product(*pair)
        assert caught.value.certificate == mismatch.certificate
        return
    got = joint_product(*pair)
    assert got.n_states == want.n_states
    assert got.nfa.transitions == want.nfa.transitions
    assert got.nfa.initials == want.nfa.initials
    assert got.nfa.finals == want.nfa.finals
    assert got.input_letters == want.input_letters


# ---------------------------------------------------------------------------
# the Nivat correspondence
# ---------------------------------------------------------------------------

def test_the_diameter_of_the_joint_product_is_the_distance():
    # the pairs of p are the output pairs of the two machines, so the
    # diameter of p read as a relation is their distance, under every metric
    for t1, t2 in machine_corpus(909, 30, bounded_length_gap=True):
        p = joint_product(t1, t2)
        for metric in Metric:
            assert diameter(p, metric) == distance(metric, t1, t2), metric


# ---------------------------------------------------------------------------
# length distance
# ---------------------------------------------------------------------------

def test_t1_t2_pair_automaton_bounded_but_not_length_preserving(t1, t2):
    from transdist.pairauto import delay_range, is_length_preserving
    p = joint_product(t1, t2)
    assert not is_length_preserving(p)   # odd-length inputs leave a gap of 1
    lo, hi = delay_range(p)              # bounded, with one delay per state
    assert lo == hi
    assert set(lo) == {0, 1}


def test_length_close_paper_values(t1, t2, t3):
    assert distance(Metric.LENGTH, t1, t2) == 1
    assert distance(Metric.LENGTH, t1, t1) == 0
    assert distance(Metric.LENGTH, t1, t3) == INF


def test_length_close_different_domains():
    t_astar = make_transducer(1, [0], [0], [(0, "a", "a", 0)])
    t_astarb = make_transducer(2, [0], [1], [(0, "a", "a", 0), (0, "b", "", 1)])
    assert distance(Metric.LENGTH, t_astar, t_astarb) == INF


def test_length_close_matches_enumeration_on_corpus():
    for u1, u2 in machine_corpus(101, 15):
        d = distance(Metric.LENGTH, u1, u2)
        gaps = []
        for w in domain_words(u1, 7):
            out = evaluate(u1, w), evaluate(u2, w)
            gaps.append(abs(len(out[0]) - len(out[1])))
        if not gaps:
            continue
        if d.is_finite:
            assert max(gaps) <= d.value()
        else:
            # pump further: gaps must keep growing somewhere
            long_gaps = []
            for w in domain_words(u1, 10):
                out = evaluate(u1, w), evaluate(u2, w)
                long_gaps.append(abs(len(out[0]) - len(out[1])))
            assert max(long_gaps) >= max(gaps)


# ---------------------------------------------------------------------------
# unbalanced loop certificates
# ---------------------------------------------------------------------------

#: the metrics whose NotClose on unbounded length gaps pumps an unbalanced loop
GAP_METRICS = (Metric.LENGTH, Metric.LEVENSHTEIN, Metric.LCS,
               Metric.DAMERAU_LEVENSHTEIN)


def _pumped_outputs(cert, a, b, i):
    w = cert.word(i)
    return evaluate(a, w), evaluate(b, w)


def test_unbalanced_pumps_clear_the_sum_of_the_lengths_for_lcs():
    # b·a^n -> aaaa·b^n against b·a^n -> bbbb: d_LCS = 7 at pump 1.  A gap
    # past the larger length (5) comes at pump 6, where d_LCS = 6 < 7; a gap
    # past the sum (9) comes at pump 10, where d_LCS = 10.
    a = make_transducer(2, [0], [1], [(0, "b", "aaaa", 1), (1, "a", "b", 1)])
    b = make_transducer(2, [0], [1], [(0, "b", "bbbb", 1), (1, "a", "", 1)])
    verdict = close_verdict(Metric.LCS, a, b)
    assert isinstance(verdict, NotClose)
    cert = verdict.certificate
    assert cert.pumps == (1, 10)
    assert [word_distance(Metric.LCS, *_pumped_outputs(cert, a, b, i))
            for i in (1, 6, 10)] == [7, 6, 10]
    assert certificate_replays(Metric.LCS, cert, a, b)


def unbounded_gap_pairs(*seeds):
    """The corpus pairs of 60 per seed whose length gaps are unbounded."""
    return [pair for seed in seeds for pair in machine_corpus(seed, 60)
            if delay_range(joint_product(*pair)) is None]


@pytest.mark.parametrize("metric", GAP_METRICS)
def test_unbalanced_loop_certificates_evaluate_nothing(metric, monkeypatch):
    pairs = unbounded_gap_pairs(808, 909)
    assert len(pairs) >= 20

    def refuse(*args, **kwargs):
        raise AssertionError("a pump was evaluated")

    monkeypatch.setattr(transducers, "evaluate", refuse)
    monkeypatch.setattr(transducers, "word_distance", refuse)
    certs = [close_verdict(metric, *pair).certificate for pair in pairs]
    monkeypatch.undo()
    for (a, b), cert in zip(pairs, certs):
        assert isinstance(cert, LoopCertificate)
        assert len(cert.pumps) == 2
        assert certificate_replays(metric, cert, a, b)


@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.TRANSPOSITION,
                                    Metric.CONJUGACY, Metric.DISCRETE])
def test_unbalanced_cycles_need_no_gap_search(metric, monkeypatch):
    # the unbalanced pair comes off the conflicting edge of the component
    # analysis: no search over (state, gap) pairs, nor any other
    # configuration search, runs
    pairs = unbounded_gap_pairs(808, 909)
    assert len(pairs) >= 20

    def refuse(*args, **kwargs):
        raise AssertionError("a configuration search ran")

    monkeypatch.setattr(pairauto, "_unbalanced_pair_witness", refuse)
    monkeypatch.setattr(pairauto, "shortest_path", refuse)
    verdicts = [close_verdict(metric, *pair) for pair in pairs]
    monkeypatch.undo()
    for pair, verdict in zip(pairs, verdicts):
        assert isinstance(verdict, NotClose)
        assert isinstance(verdict.certificate,
                          (InfiniteWordCertificate, PairCertificate))
        assert certificate_replays(metric, verdict.certificate, *pair)


def test_every_not_close_replays():
    # the bounded-gap corpora, the deciders' corpus and a pool of unbounded
    # gaps, under all eight metrics
    unbounded = unbounded_gap_pairs(707)
    corpora = (machine_corpus(808, 20, bounded_length_gap=True, max_states=5)
               + machine_corpus(909, 50, max_states=4, max_out_len=2)
               + machine_corpus(111, 10, bounded_length_gap=True,
                                max_states=4)
               + machine_corpus(404, 5, bounded_length_gap=True,
                                max_states=3)
               + unbounded)
    assert len(unbounded) >= 15
    not_close = set()
    for metric in Metric:
        for pair in corpora:
            verdict = close_verdict(metric, *pair)
            if isinstance(verdict, NotClose):
                not_close.add(metric)
                assert certificate_replays(metric, verdict.certificate,
                                           *pair), (metric, pair)
    assert not_close == set(Metric)


def test_joint_product_checks_no_output_again(monkeypatch, t1, t2):
    # the Transducer constructor checked every output the product splits
    pairs = machine_corpus(909, 20) + [(t1, t2), (t2, t1)]
    checked = []
    validate = Alphabet.validate

    def counting(self, word, what="word"):
        checked.append(word)
        return validate(self, word, what)

    monkeypatch.setattr(Alphabet, "validate", counting)
    for pair in pairs:
        joint_product(*pair)
    assert checked == []
    # a build from outside data still checks its labels
    PairAutomaton.from_edges(1, [0], [0], [(0, ("ab", "b"), 0)], AB, AB)
    assert checked == ["ab", "b"]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(GAP_METRICS))
def test_unbalanced_pumps_are_the_least_past_the_sum(seed, metric):
    pair = random_joint_machine(random.Random(seed), max_out_len=3)
    assume(pair is not None)
    p = joint_product(*pair)
    assume(delay_range(p) is None)
    cert = unbalanced_loop_certificate(p)
    assert cert.pumps[0] == 1 and len(cert.pumps) == 2
    total = sum(map(len, _pumped_outputs(cert, *pair, 1)))

    def gap(i):
        u, v = _pumped_outputs(cert, *pair, i)
        return abs(len(u) - len(v))

    m = cert.pumps[1]
    assert gap(m) > total
    assert m == 2 or gap(m - 1) <= total
    assert certificate_replays(metric, cert, *pair)


def test_balanced_cycle_is_an_integrity_error(monkeypatch):
    copy = make_transducer(1, [0], [0], [(0, "a", "a", 0)])
    p = joint_product(copy, copy)
    monkeypatch.setattr(transducers, "unbalanced_cycle",
                        lambda p: (0, [0]))
    with pytest.raises(IntegrityError):
        unbalanced_loop_certificate(p)
