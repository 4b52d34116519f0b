"""Sequential and unambiguous one-way transducers.

A transducer is an automaton with an output word per transition and per
final state.  Functionality is enforced through unambiguity of the
underlying automaton at construction time; ambiguous machines are rejected,
since every procedure here assumes functional input.

Two transducers are compared on one automaton: `joint_product` builds, in
one walk, the trimmed pair automaton of their output pairs, whose edges
keep the input letters they read.  The walk decides the domains of two
sequential machines; those of other machines are compared before it.
Every decider starts from it and reads no machine.
"""

from __future__ import annotations

from typing import Iterable

from .automata import (Nfa, equiv_unambiguous, is_unambiguous,
                       language_difference_witness)
from .errors import InputError, IntegrityError, PreconditionError
from .pairauto import (PairAutomaton, input_word_of_path, output_pair_of_path,
                       shortest_prefix_path, shortest_suffix_path,
                       unbalanced_cycle, unbalanced_path, _keep_live,
                       _reached, _split_edges)
from .verdicts import (DomainCertificate, InfiniteWordCertificate,
                       LoopCertificate)
from .words import INF, Alphabet, ExtendedNat, Metric, word_distance

class Transducer:
    """⟨A, λ, ο⟩: an unambiguous automaton with transition and final outputs."""

    __slots__ = ("nfa", "out", "final_out", "input_alphabet", "output_alphabet",
                 "_deterministic")

    def __init__(self, nfa: Nfa, out: Iterable[str], final_out: dict[int, str],
                 input_alphabet: Alphabet, output_alphabet: Alphabet):
        self.nfa = nfa
        self.out = tuple(out)
        self.final_out = {f: final_out.get(f, "") for f in nfa.finals}
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        if len(self.out) != len(nfa.transitions):
            raise InputError("need one output word per transition")
        for _, a, _ in nfa.transitions:
            if not (isinstance(a, str) and len(a) == 1 and a in input_alphabet):
                raise InputError(f"transition letter {a!r} outside input alphabet")
        for w in self.out:
            output_alphabet.validate(w, "transition output")
        for w in self.final_out.values():
            output_alphabet.validate(w, "final output")
        self._deterministic = nfa.is_deterministic()
        if not self._deterministic and not is_unambiguous(nfa):
            raise PreconditionError(
                "underlying automaton is ambiguous; only sequential or "
                "unambiguous transducers define functions")

    @property
    def is_sequential(self) -> bool:
        return self._deterministic

    def __repr__(self):
        kind = "sequential" if self._deterministic else "unambiguous"
        return f"Transducer({kind}, {self.nfa!r})"


def _accepting_run(t: Transducer, word: str) -> list[int] | None:
    """Transition indices of the unique accepting run, or None.

    A sequential machine has at most one run on any word, followed in one
    walk.  Otherwise the runs are followed layer by layer, and two accepting
    runs raise IntegrityError (the construction check should have ruled
    this out).
    """
    adj = t.nfa.adj()
    if t._deterministic:
        if not t.nfa.initials:
            return None
        [s] = t.nfa.initials
        run = []
        for c in word:
            for a, d, tr in adj[s]:
                if a == c:
                    run.append(tr)
                    s = d
                    break
            else:
                return None
        return run if s in t.nfa.finals else None
    layers: list[dict[int, tuple[int, int] | None]] = [
        {s: None for s in t.nfa.initials}]
    for c in word:
        nxt: dict[int, tuple[int, int] | None] = {}
        for s in layers[-1]:
            for a, d, tr in adj[s]:
                if a == c and d not in nxt:
                    nxt[d] = (s, tr)
        if not nxt:
            return None
        layers.append(nxt)
    finals = [s for s in layers[-1] if s in t.nfa.finals]
    if not finals:
        return None
    # count accepting runs exactly (capped at 2) to honour the unambiguity claim
    counts = {s: 1 for s in t.nfa.initials}
    for c in word:
        nxt_counts: dict[int, int] = {}
        for s, k in counts.items():
            for a, d, _ in adj[s]:
                if a == c:
                    nxt_counts[d] = min(2, nxt_counts.get(d, 0) + k)
        counts = nxt_counts
    if sum(counts.get(f, 0) for f in t.nfa.finals) > 1:
        raise IntegrityError(f"two accepting runs on {word!r}")
    # walk backwards; any stored predecessor chain is a valid accepting run,
    # and by unambiguity it is the only one
    cur = finals[0]
    run = []
    for i in range(len(word), 0, -1):
        cur, tr = layers[i][cur]
        run.append(tr)
    return run[::-1]


def evaluate(t: Transducer, word: str) -> str | None:
    """T(word): transition outputs along the unique run plus the final output,
    or None outside the domain.

    A sequential machine is run in one walk; an unambiguous one layer by
    layer, counting its accepting runs (see `_accepting_run`).
    """
    t.input_alphabet.validate(word, "input word")
    run = _accepting_run(t, word)
    if run is None:
        return None
    if run:
        final = t.nfa.transitions[run[-1]][2]
    else:
        final = next(iter(set(t.nfa.initials) & t.nfa.finals))
    return "".join(t.out[tr] for tr in run) + t.final_out[final]


def domain_words(t: Transducer, max_len: int) -> list[str]:
    """Accepted input words of length <= max_len, shortest first."""
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    out = set()
    frontier = [("", s) for s in sorted(t.nfa.initials)]
    adj = t.nfa.adj()
    seen = set(frontier)
    while frontier:
        nxt = []
        for w, s in frontier:
            if s in t.nfa.finals:
                out.add(w)
            if len(w) == max_len:
                continue
            for a, d, _ in adj[s]:
                key = (w + a, d)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return sorted(out, key=lambda w: (len(w), w))


def same_domain(t1: Transducer, t2: Transducer) -> bool:
    """True iff dom(T1) = dom(T2); polynomial through unambiguity.

    Machines that share one automaton (a machine and itself) have the same
    domain, and no check runs.
    """
    return t1.nfa is t2.nfa or equiv_unambiguous(t1.nfa, t2.nfa, check=False)


class DomainMismatchError(InputError):
    """Different domains; `certificate` is an input in exactly one of them."""

    def __init__(self, certificate: DomainCertificate):
        super().__init__(f"domains differ on {certificate.word!r}")
        self.certificate = certificate


def loop_certificate(metric: Metric, p: PairAutomaton, state: int,
                     loop: list[int]) -> LoopCertificate:
    """The balanced loop path at a state of p, the pair automaton of two
    machines, pumped between shortest paths to and from the state.

    Serves only loops whose output lengths stay balanced, where the length
    gap says nothing about the distance (unbalanced loops take
    `unbalanced_loop_certificate`).  Picks three pump counts with strictly
    increasing distances (or fewer, ending at an infinite one), each read
    off the path prefix·loop^m·suffix, which spells exactly the outputs of
    its input (see `unbalanced_loop_certificate`), so the certificate
    replays by construction; a loop that does not grow the distance within
    200 pumps is an IntegrityError.
    """
    needed, scan_limit = 3, 200
    prefix = shortest_prefix_path(p, state)
    suffix = shortest_suffix_path(p, state)
    (x1, x2), (c1, c2), (y1, y2) = (output_pair_of_path(p, path)
                                    for path in (prefix, loop, suffix))
    pumps: list[int] = []
    values: list[ExtendedNat] = []
    m = 1
    while len(pumps) < needed and m <= scan_limit:
        d = word_distance(metric, x1 + c1 * m + y1, x2 + c2 * m + y2)
        if d == INF or not values or d > values[-1]:
            pumps.append(m)
            values.append(d)
            if d == INF:
                break
        m += 1
    if len(pumps) < needed and (not values or values[-1] != INF):
        raise IntegrityError("certificate loop failed to grow the distance")
    return LoopCertificate(input_word_of_path(p, prefix),
                           input_word_of_path(p, loop),
                           input_word_of_path(p, suffix), tuple(pumps))


def unbalanced_loop_certificate(p: PairAutomaton) -> LoopCertificate:
    """A pumpable input loop whose output-length gap grows, with two pumps
    read off the labels of p, the pair automaton of two machines.

    Needs unbounded prefix gaps in p.  The shortest prefix path to the root
    of `unbalanced_cycle(p)` and the shortest suffix path from it write a1
    and a2 letters on the two sides, and the cycle writes c1 and c2, with
    net gap g = c1 - c2 != 0.  p is the joint run of two unambiguous
    machines, so the one accepting path prefix·cycle^m·suffix spells
    exactly the outputs (T1(w_m), T2(w_m)) of its input w_m.  Every metric
    that reaches this certificate (length and the Levenshtein family) has

        ||u| - |v|| <= d(u, v) <= |u| + |v|,

    so d(w_1) <= L = a1 + a2 + c1 + c2 < |a1 - a2 + m·g| <= d(w_m) for the
    least m >= 2 past the sum L; the larger of the two lengths would not
    do for LCS.  The pumps (1, m) come from one ceiling division: nothing
    is evaluated and no distance is computed.
    """
    hit = unbalanced_cycle(p)
    if hit is None:
        raise IntegrityError("no unbalanced cycle despite an infinite "
                             "length distance")
    root, cycle = hit
    prefix = shortest_prefix_path(p, root)
    suffix = shortest_suffix_path(p, root)
    loop = input_word_of_path(p, cycle)
    a1, a2 = map(len, output_pair_of_path(p, prefix + suffix))
    c1, c2 = map(len, output_pair_of_path(p, cycle))
    gap = c1 - c2
    if gap == 0 or not loop:
        raise IntegrityError("certificate cycle reads no input or keeps "
                             "the output lengths balanced")
    # least m with lead + m·|g| > L, where lead is a1 - a2 signed as g
    lead = a1 - a2 if gap > 0 else a2 - a1
    total = a1 + a2 + c1 + c2
    m = max(2, -(-(total - lead + 1) // abs(gap)))
    return LoopCertificate(input_word_of_path(p, prefix), loop,
                           input_word_of_path(p, suffix), (1, m))


def unbalanced_word_certificate(p: PairAutomaton,
                                weight: dict[str, int] | None = None
                                ) -> InfiniteWordCertificate:
    """An input whose two outputs differ in length, or with a letter weight
    f, in f (for {c: 1}, in their counts of c), with those outputs.

    Needs p, the pair automaton of two machines, not to be length-preserving
    (or to have a nonzero `weighted_gap_sup` for the weight).  Input and
    outputs are read off one accepting path (`unbalanced_path`), so no
    second search maps the outputs back to an input.  p is the joint run of
    two unambiguous machines, so that path spells exactly the outputs of
    its input.  With unbounded gaps it comes off the conflicting edge of
    the component analysis, with bounded ones or a weight from a (state,
    gap) search.
    """
    path = unbalanced_path(p, weight)
    return InfiniteWordCertificate(input_word_of_path(p, path),
                                   output_pair_of_path(p, path))


def joint_product(t1: Transducer, t2: Transducer) -> PairAutomaton:
    """The trimmed pair automaton of two unambiguous transducers with equal
    domains: the one construction every comparison starts from.

    Different domains raise `DomainMismatchError`.  States are the state
    pairs reachable from the initial pairs, numbered breadth-first; each pair
    of same-letter transitions gives one edge labelled with their two
    outputs and the input letter.  A final pair with a non-empty final output
    pair gets a fresh final state behind an edge labelled with it (fresh
    states numbered in order of pair id), so later analyses read edge labels
    only.  Every numbered state is reachable, so one backward pass trims the
    states that reach no final one; `pairauto._split_edges` splits the
    labels into letters, without the checks of `PairAutomaton.from_edges`:
    the `Transducer` constructor checked every output, and the states are
    numbered here.  Every metric distance is preserved.

    Machines that share one automaton have the same domain.  For two
    sequential machines with as many initial states the walk decides the
    domains itself: if at every pair both sides read the same letters and
    are final together, both runs exist together on every input and accept
    together.  Only a pair that breaks this calls for the separate
    comparison (`language_difference_witness`), which gives the shortest
    input in exactly one domain, or none when the pair only leads to dead
    states.  Other machines are compared before the walk.
    """
    if t1.input_alphabet != t2.input_alphabet:
        raise InputError("input alphabets differ")
    if t1.output_alphabet != t2.output_alphabet:
        raise InputError("output alphabets differ")
    nfa1, nfa2 = t1.nfa, t2.nfa
    shared = nfa1 is nfa2
    walk_checks = (not shared and t1._deterministic and t2._deterministic
                   and len(nfa1.initials) == len(nfa2.initials))
    if not shared and not walk_checks:
        _compare_domains(nfa1, nfa2)
    adj1, adj2 = nfa1.adj(), nfa2.adj()
    finals1, finals2 = nfa1.finals, nfa2.finals
    order = [(p, q) for p in sorted(nfa1.initials)
             for q in sorted(nfa2.initials)]
    ids = {pq: i for i, pq in enumerate(order)}
    initials = range(len(order))
    edges = []
    final_pairs = []
    suspect = False
    # order grows while it is walked: pair ids are breadth-first
    for sid, (p, q) in enumerate(order):
        out1, out2 = adj1[p], adj2[q]
        matched = 0
        for a, d1, tr1 in out1:
            for b, d2, tr2 in out2:
                if a != b:
                    continue
                matched += 1
                did = ids.get((d1, d2))
                if did is None:
                    did = ids[(d1, d2)] = len(order)
                    order.append((d1, d2))
                edges.append((sid, (t1.out[tr1], t2.out[tr2]), did, a))
        final1, final2 = p in finals1, q in finals2
        if final1 and final2:
            final_pairs.append(sid)
        if final1 != final2 or matched != len(out1) or matched != len(out2):
            suspect = True
    if suspect and walk_checks:
        _compare_domains(nfa1, nfa2)
    finals = []
    extra = len(order)
    for sid in final_pairs:
        p, q = order[sid]
        fo = (t1.final_out[p], t2.final_out[q])
        if fo == ("", ""):
            finals.append(sid)
        else:
            edges.append((sid, fo, extra, None))
            finals.append(extra)
            extra += 1
    live = _reached(extra, finals, edges, backward=True)
    if not all(live):
        extra, initials, finals, edges = _keep_live(live, initials, finals,
                                                    edges)
    return _split_edges(extra, initials, finals, edges, t1.output_alphabet,
                        t1.output_alphabet)


def _compare_domains(a: Nfa, b: Nfa) -> None:
    """Raise `DomainMismatchError` with the shortest input in exactly one of
    L(a) and L(b), if there is one."""
    wit = language_difference_witness(a, b, check=False)
    if wit is not None:
        raise DomainMismatchError(DomainCertificate("".join(wit)))

