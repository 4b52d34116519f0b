"""Cross-module property tests for the documented invariants."""

import random
from itertools import islice


from conftest import joint_outputs_table, machine_corpus
from transdist.automata import (Nfa, is_unambiguous,
                                language_difference_witness, determinize)
from transdist.conjugacy import sumfree_decompose, verify_witness
from transdist.kapprox import build_kapprox, distance, kclose
from transdist.oracles import enumerate_words, relation_included
from transdist.pairauto import PairAutomaton, enumerate_pairs, identity_witness
from transdist.relations import make_distance_relation, power_levels, union
from transdist.transducers import joint_product
from transdist.verdicts import Close
from transdist.words import Alphabet, ExtendedNat, Metric, word_distance

AB = Alphabet("ab")


def relation(n, edges, finals=(0,)):
    return PairAutomaton.from_edges(n, [0], finals, edges, AB, AB)


# ---------------------------------------------------------------------------
# equivalence on random unambiguous (nondeterministic) automata
# ---------------------------------------------------------------------------

def test_equiv_random_unambiguous_nfas_vs_bruteforce():
    rng = random.Random(71)
    made = 0
    while made < 15:
        n = rng.randrange(2, 6)
        trans = [(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                 for _ in range(rng.randrange(2, 2 * n + 2))]
        nfa = Nfa(n, [0], [rng.randrange(n)], trans)
        try:
            if not is_unambiguous(nfa):
                continue
        except Exception:
            continue
        other = determinize(nfa)
        assert language_difference_witness(nfa, other) is None
        # perturb: flip one final state
        flipped = (set(other.finals) ^ {0}) or {0}
        mutant = Nfa(other.n_states, other.initials, flipped, other.transitions)
        wit = language_difference_witness(nfa, mutant)
        la = {w for w in enumerate_words(nfa, 8)}
        lb = {w for w in enumerate_words(mutant, 8)}
        if wit is None:
            assert la == lb
        elif len(wit) <= 8:
            assert (wit in la) != (wit in lb)
        made += 1


# ---------------------------------------------------------------------------
# identity relation vs enumeration on a random corpus
# ---------------------------------------------------------------------------

def test_identity_relation_vs_enumeration_random():
    rng = random.Random(72)
    outs = ["", "a", "b", "ab", "aa"]
    for _ in range(40):
        n = rng.randrange(1, 4)
        edges = []
        for _ in range(rng.randrange(1, 5)):
            if rng.random() < 0.5:
                w = rng.choice(outs)
                edges.append((rng.randrange(n), (w, w), rng.randrange(n)))
            else:
                edges.append((rng.randrange(n), (rng.choice(outs), rng.choice(outs)),
                              rng.randrange(n)))
        p = PairAutomaton.from_edges(n, [0], [rng.randrange(n)], edges, AB, AB)
        if p.nfa.n_states == 0:
            continue
        verdict = identity_witness(p) is None
        pairs = enumerate_pairs(p, 8)
        if verdict:
            assert all(u == v for u, v in pairs)
        else:
            more = pairs if any(u != v for u, v in pairs) \
                else enumerate_pairs(p, 12)
            assert any(u != v for u, v in more)


# ---------------------------------------------------------------------------
# witnesses: verified witness => literal equality over the enumerated language
# ---------------------------------------------------------------------------

def test_verified_witness_holds_on_enumeration():
    cases = [
        (relation(1, [(0, ("ab", "ba"), 0)]), "a", "inner"),
        (relation(1, [(0, ("abb", "bab"), 0)]), "ab", "inner"),
        (relation(2, [(0, ("ab", "ba"), 0), (0, ("a", "a"), 1)], finals=[1]),
         None, None),
    ]
    for p, z, side in cases:
        if z is None:
            continue
        assert verify_witness(p, z, side)
        for u, v in enumerate_pairs(p, 10):
            if side == "inner":
                assert u + z == z + v
            else:
                assert z + u == v + z


def test_sum_distance_is_max_over_summands():
    # d(E1 + E2) = max(d(E1), d(E2)) at enumeration scale
    e1 = relation(1, [(0, ("ab", "ba"), 0)])
    e2 = relation(2, [(0, ("aa", "bb"), 1), (1, ("b", "b"), 1)], finals=[1])
    e = union(e1, e2)
    for m in (Metric.HAMMING, Metric.LEVENSHTEIN, Metric.CONJUGACY):
        def enum_max(p):
            vals = [word_distance(m, u, v) for u, v in enumerate_pairs(p, 6)]
            return max(vals, default=ExtendedNat(0))
        assert enum_max(e) == max(enum_max(e1), enum_max(e2))


def test_sumfree_parts_cover_language_of_star_of_sum():
    whole = relation(1, [(0, ("a", "a"), 0), (0, ("ab", "ba"), 0)])
    parts = sumfree_decompose(whole)
    covered = set()
    for s in parts:
        covered |= enumerate_pairs(s, 5)
    assert covered == enumerate_pairs(whole, 5)


# ---------------------------------------------------------------------------
# distance: the minimal k is witnessed by an input word
# ---------------------------------------------------------------------------

def test_distance_value_achieved_by_witness_input(t4, t5):
    r = distance(Metric.LEVENSHTEIN, t4, t5)
    assert r == 2
    # the (r-1)-approximation must miss part of the domain; a shortest missed
    # word realizes the value r
    da = build_kapprox(Metric.LEVENSHTEIN, joint_product(t4, t5), r.value() - 1)
    det = determinize(da.skeleton())
    wit = language_difference_witness(t4.nfa, det, check=False)
    assert wit is not None
    word = "".join(wit)
    from transdist.transducers import evaluate
    d = word_distance(Metric.LEVENSHTEIN, evaluate(t4, word), evaluate(t5, word))
    assert d == r


def test_distance_bounded_by_enumeration_on_corpus():
    for u1, u2 in machine_corpus(111, 10, bounded_length_gap=True,
                                 max_states=4):
        for metric in (Metric.LEVENSHTEIN, Metric.HAMMING):
            value = distance(metric, u1, u2)
            if isinstance(value, Close) or not hasattr(value, "is_finite"):
                continue
            outs = joint_outputs_table((u1, u2), 12)
            worst = ExtendedNat(0)
            for o1, o2 in outs.values():
                worst = max(worst, word_distance(metric, o1, o2))
            if value.is_finite:
                assert worst <= value
            elif worst.is_finite:
                # infinite distance: no k-approximation covers the domain
                assert not kclose(metric, u1, u2, worst.value() + 2)


# ---------------------------------------------------------------------------
# index: containment holds at r and fails at r-1, re-verified by enumeration
# ---------------------------------------------------------------------------

def test_index_boundary_containments():
    sphere = make_distance_relation(Metric.HAMMING, AB)
    r = PairAutomaton.from_edges(2, [0], [1], [(0, ("aa", "bb"), 1),
                                               (1, ("a", "a"), 1)], AB, AB)
    from transdist.relations import index
    got = index(r, sphere)
    assert got == 2
    _, big_fail, big_ok = islice(power_levels(sphere.automaton), 3)
    assert relation_included(r, big_ok)
    assert not relation_included(r, big_fail)
    pairs_r = enumerate_pairs(r, 6)
    pairs_ok = enumerate_pairs(big_ok, 6)
    assert pairs_r <= pairs_ok
    assert not pairs_r <= enumerate_pairs(big_fail, 6)
