"""Shared fixtures: the worked-example machines and random machine corpora."""

import random

import pytest

from transdist import kapprox
from transdist.automata import Nfa, scc_decomposition
from transdist.oracles import trim
from transdist.pairauto import PairAutomaton, delay_range
from transdist.transducers import Transducer, evaluate, joint_product
from transdist.verdicts import (DomainCertificate, GrowthCertificate,
                                InfiniteWordCertificate, LoopCertificate,
                                PairCertificate)
from transdist.words import INF, Alphabet, word_distance

AB = Alphabet("ab")
B01 = Alphabet("01")


def make_transducer(n, initials, finals, triples, fout=None,
                    alph_in=AB, alph_out=AB):
    """triples: (src, letter, output, dst); fout: {state: word}."""
    nfa = Nfa(n, initials, finals, [(s, a, d) for s, a, _, d in triples])
    return Transducer(nfa, [o for _, _, o, _ in triples], fout or {},
                      alph_in, alph_out)


@pytest.fixture(scope="session")
def t1():
    """Copies letters at odd positions."""
    return make_transducer(2, [0], [0, 1], [
        (0, "a", "a", 1), (0, "b", "b", 1),
        (1, "a", "", 0), (1, "b", "", 0),
    ])


@pytest.fixture(scope="session")
def t2():
    """Copies letters at even positions."""
    return make_transducer(2, [0], [0, 1], [
        (0, "a", "", 1), (0, "b", "", 1),
        (1, "a", "a", 0), (1, "b", "b", 0),
    ])


@pytest.fixture(scope="session")
def t3():
    """Erases b's."""
    return make_transducer(1, [0], [0], [
        (0, "a", "a", 0), (0, "b", "", 0),
    ])


def _block_compressor(out_for_0, out_for_1):
    return make_transducer(3, [0], [1, 2], [
        (0, "0", out_for_0, 1), (0, "1", out_for_1, 2),
        (1, "0", "", 1), (1, "1", out_for_1, 2),
        (2, "1", "", 2), (2, "0", out_for_0, 1),
    ], alph_in=B01, alph_out=B01)


@pytest.fixture(scope="session")
def t4():
    """Each block of 0s becomes one 0, each block of 1s one 1."""
    return _block_compressor("0", "1")


@pytest.fixture(scope="session")
def t5():
    """Each block of 0s becomes one 1, each block of 1s one 0."""
    return _block_compressor("1", "0")


@pytest.fixture
def probes(monkeypatch):
    """The k of every kclose probe that `kapprox.distance` makes."""
    seen = []
    real = kapprox.kclose

    def recording(metric, t1, t2, k, ceiling=kapprox.DEFAULT_STATE_CEILING,
                  **kwargs):
        seen.append(k)
        return real(metric, t1, t2, k, ceiling, **kwargs)

    monkeypatch.setattr(kapprox, "kclose", recording)
    return seen


@pytest.fixture
def no_kapprox(monkeypatch):
    """Fails any call that builds a k-approximation."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_kapprox ran")

    monkeypatch.setattr(kapprox, "build_kapprox", refuse)


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------

def certificate_replays(metric, cert, t1, t2) -> bool:
    """Does a NotClose certificate hold on the two machines?

    A pumped or explicit word sequence needs at least two strictly rising
    distances, or a last one that is infinite: one finite value shows no
    growth at all.
    """
    if isinstance(cert, DomainCertificate):
        return (evaluate(t1, cert.word) is None) != (evaluate(t2, cert.word)
                                                    is None)
    if isinstance(cert, InfiniteWordCertificate):
        o1, o2 = evaluate(t1, cert.word), evaluate(t2, cert.word)
        return (o1 is not None and o2 is not None
                and word_distance(metric, o1, o2) == INF)
    if isinstance(cert, PairCertificate):
        return word_distance(metric, *cert.pair) == INF
    if isinstance(cert, LoopCertificate):
        words = [cert.word(i) for i in cert.pumps]
    elif isinstance(cert, GrowthCertificate):
        words = list(cert.words)
    else:
        return False  # every NotClose must carry a certificate
    values = [word_distance(metric, evaluate(t1, w), evaluate(t2, w))
              for w in words]
    if values and values[-1] == INF:
        return True
    return len(values) >= 2 and all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# random machine corpus
# ---------------------------------------------------------------------------

def random_joint_machine(rng: random.Random, max_states=5, letters="ab",
                         out_letters="01", max_out_len=2
                         ) -> tuple[Transducer, Transducer] | None:
    """Two sequential transducers on one random trimmed DFA skeleton, with
    independent random outputs."""
    n = rng.randrange(1, max_states + 1)
    triples = []
    for s in range(n):
        for a in letters:
            if rng.random() < 0.8:
                triples.append((s, a, rng.randrange(n)))
    finals = [s for s in range(n) if rng.random() < 0.4]
    if not finals:
        finals = [rng.randrange(n)]
    nfa = Nfa(n, [0], finals, triples)
    trimmed = trim(nfa)[0]
    if trimmed.n_states == 0:
        return None

    def rnd_word():
        return "".join(rng.choice(out_letters)
                       for _ in range(rng.randrange(0, max_out_len + 1)))

    out1 = [rnd_word() for _ in trimmed.transitions]
    out2 = [rnd_word() for _ in trimmed.transitions]
    fout1 = {f: rnd_word() for f in trimmed.finals}
    fout2 = {f: rnd_word() for f in trimmed.finals}
    alph_in, alph_out = Alphabet(letters), Alphabet(out_letters)
    return (Transducer(trimmed, out1, fout1, alph_in, alph_out),
            Transducer(trimmed, out2, fout2, alph_in, alph_out))


def joint_outputs_table(pair: tuple[Transducer, Transducer],
                        max_len: int) -> dict[str, tuple[str, str]]:
    """(T1(w), T2(w)) for every input w up to max_len in both domains,
    walking two sequential transducers in lockstep."""
    t1, t2 = pair
    assert t1.is_sequential and t2.is_sequential
    adj1, adj2 = t1.nfa.adj(), t2.nfa.adj()
    out: dict[str, tuple[str, str]] = {}
    stack = [("", s1, s2, "", "") for s1 in t1.nfa.initials
             for s2 in t2.nfa.initials]
    while stack:
        w, s1, s2, o1, o2 = stack.pop()
        if s1 in t1.nfa.finals and s2 in t2.nfa.finals:
            out[w] = (o1 + t1.final_out[s1], o2 + t2.final_out[s2])
        if len(w) == max_len:
            continue
        for a, d1, x in adj1[s1]:
            for b, d2, y in adj2[s2]:
                if a == b:
                    stack.append((w + a, d1, d2,
                                  o1 + t1.out[x], o2 + t2.out[y]))
    return out


def identity_ab():
    """The identity on ab."""
    return make_transducer(1, [0], [0], [(0, "a", "a", 0), (0, "b", "b", 0)])


def flip_ab(m, flips):
    """Copies its input but swaps a<->b at the positions in flips (< m)."""
    swap = {"a": "b", "b": "a"}
    triples = [(i, a, swap[a] if i in flips else a, min(i + 1, m))
               for i in range(m + 1) for a in "ab"]
    return make_transducer(m + 1, [0], list(range(m + 1)), triples)


def delete_first_a(k=1):
    """Relation deleting the first k a's (domain: words with >= k a's)."""
    edges = []
    for i in range(k):
        edges.append((i, ("b", "b"), i))
        edges.append((i, ("a", ""), i + 1))
    edges.append((k, ("a", "a"), k))
    edges.append((k, ("b", "b"), k))
    return PairAutomaton.from_edges(k + 1, [0], [k], edges, AB, AB)


def dense_dfa_spec(rng: random.Random, n: int, max_out: int = 2,
                   out_letters: str = "01"):
    """(n, finals, triples, final outputs) of a complete DFA on ab with
    outputs in out_letters^{<=max_out}; state 0 is initial."""
    def word():
        return "".join(rng.choice(out_letters)
                       for _ in range(rng.randrange(max_out + 1)))

    triples = [(s, a, word(), rng.randrange(n)) for s in range(n) for a in "ab"]
    finals = [s for s in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    return n, finals, triples, {f: word() for f in finals}


def rotate_first_letter(spec):
    """The spec of T2 with T2(w) = T1(w) with its first letter moved last.

    States pair a state of T1 with a one-letter buffer, empty until the
    first output letter, which it keeps back until the final output.
    """
    _, finals, triples, final_out = spec
    ids: dict[tuple[int, str], int] = {(0, ""): 0}
    todo = [(0, "")]
    out = []
    while todo:
        q, buf = todo.pop()
        for s, a, o, d in triples:
            if s != q:
                continue
            nbuf, emit = (o[0], o[1:]) if not buf and o else (buf, o)
            if (d, nbuf) not in ids:
                ids[(d, nbuf)] = len(ids)
                todo.append((d, nbuf))
            out.append((ids[(q, buf)], a, emit, ids[(d, nbuf)]))
    rot_finals, rot_out = [], {}
    for (q, buf), sid in ids.items():
        if q in finals:
            w = final_out.get(q, "")
            rot_finals.append(sid)
            rot_out[sid] = w + buf if buf else w[1:] + w[:1]
    return len(ids), sorted(rot_finals), out, rot_out


def buffered_spec(spec, step, final):
    """The spec of a T2 that follows T1 with a bounded buffer, starting
    empty: on an edge of T1 with output o, step(buf, o, on_cycle) gives T2's
    output and next buffer, on_cycle telling whether the edge lies on a
    cycle of T1; at a final state, final(buf, o) gives T2's final output."""
    n, finals, triples, final_out = spec
    comp, _, _ = scc_decomposition(
        Nfa(n, [0], finals, [(s, a, d) for s, a, _, d in triples]))
    ids: dict[tuple, int] = {(0, ""): 0}
    order = [(0, "")]
    out = []
    for q, buf in order:  # breadth-first: order grows behind q
        for s, a, o, d in triples:
            if s != q:
                continue
            emit, nbuf = step(buf, o, comp[s] == comp[d])
            if (d, nbuf) not in ids:
                ids[(d, nbuf)] = len(order)
                order.append((d, nbuf))
            out.append((ids[(q, buf)], a, emit, ids[(d, nbuf)]))
    buf_out = {sid: final(buf, final_out.get(q, ""))
               for (q, buf), sid in ids.items() if q in finals}
    return len(order), sorted(buf_out), out, buf_out


def _swap_first_two(w):
    return w[1::-1] + w[2:]


def _hold_first_two(buf, o, _):
    """`buffered_spec` step: hold the output back until it has two letters,
    then write it with those two swapped (the buffer is None after)."""
    if buf is None:
        return o, None
    w = buf + o
    return (_swap_first_two(w), None) if len(w) >= 2 else ("", w)


def _hold_off_cycle(buf, o, on_cycle):
    """`buffered_spec` step: copy the cycle edges and hold back the output
    of every other edge until the end."""
    return (o, buf) if on_cycle else ("", buf + o)


def _fresh_start(rng: random.Random, spec, letters: str):
    """spec behind a fresh initial state whose two edges write 1 or 2
    letters and enter the old states, renumbered from 1."""
    n, finals, triples, final_out = spec
    start = [(0, a, "".join(rng.choice(letters)
                            for _ in range(rng.randrange(1, 3))),
              rng.randrange(n) + 1) for a in "ab"]
    return (n + 1, [f + 1 for f in finals],
            start + [(s + 1, a, o, d + 1) for s, a, o, d in triples],
            {f + 1: o for f, o in final_out.items()})


def multi_letter_pairs(seed: int, count: int, max_states: int = 3):
    """(kind, T1, T2) for `count` pairs of sequential machines on ab whose
    outputs use 3 or 4 letters, T2 a bounded-delay variant of T1, the kinds
    taking turns:

    * "swap": T1 a dense random DFA (`dense_dfa_spec`), and T2(w) is T1(w)
      with its first two letters swapped: close under Hamming and
      transposition;
    * "rotate": the same T1, and T2(w) is T1(w) with its first letter
      moved last (`rotate_first_letter`);
    * "transient": T1 a dense random DFA behind a fresh initial state
      (`_fresh_start`), whose loops write one letter in every other pair;
      T2 copies T1's cycle edges and holds back the output of the others
      and the final output, writing it at the end reversed (a permutation)
      or with a and c exchanged.
    """
    rng = random.Random(seed)
    exchange = str.maketrans("ac", "ca")
    pairs = []
    for i in range(count):
        letters = "abcd"[:rng.choice((3, 4))]
        kind = ("swap", "rotate", "transient")[i % 3]
        states = rng.randrange(1, max_states + 1)
        if kind == "swap":
            spec = dense_dfa_spec(rng, states, out_letters=letters)
            spec2 = buffered_spec(spec, _hold_first_two,
                                  lambda buf, o: o if buf is None
                                  else _swap_first_two(buf + o))
        elif kind == "rotate":
            spec = dense_dfa_spec(rng, states, out_letters=letters)
            spec2 = rotate_first_letter(spec)
        else:
            loop_letters = letters[:1 + i % 2 * len(letters)]
            spec = _fresh_start(rng, dense_dfa_spec(
                rng, states, out_letters=loop_letters), letters)
            rewrite = rng.choice((lambda w: w[::-1],
                                  lambda w: w.translate(exchange)))
            spec2 = buffered_spec(spec, _hold_off_cycle,
                                  lambda buf, o, rewrite=rewrite:
                                  rewrite(buf + o))
        alph = Alphabet(letters)
        t1, t2 = (make_transducer(n, [0], finals, triples, final_out,
                                  alph_out=alph)
                  for n, finals, triples, final_out in (spec, spec2))
        pairs.append((kind, t1, t2))
    return pairs


def spec_transducer(spec) -> Transducer:
    n, finals, triples, final_out = spec
    return make_transducer(n, [0], finals, triples, final_out,
                           alph_in=AB, alph_out=B01)


def machine_corpus(seed: int, count: int, *, bounded_length_gap=False,
                   max_states=5, max_out_len=2):
    """Deterministic corpus of transducer pairs on shared DFA skeletons."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pair = random_joint_machine(rng, max_states=max_states,
                                    max_out_len=max_out_len)
        if pair is None:
            continue
        if bounded_length_gap and delay_range(joint_product(*pair)) is None:
            continue
        out.append(pair)
    return out
