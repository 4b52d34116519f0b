"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` seeded from the workload seed and
returns plain data (tuples, dicts and strings), so the same seed always
gives the same inputs and nothing here depends on the library.  ``build_*``
turns the data into library objects; the benchmark counts that step as
set-up.

A transducer spec is ``(n_states, finals, triples, final_out, in_letters,
out_letters)`` with state 0 initial and ``triples`` of ``(src, letter,
output, dst)``.  A relation spec is ``(n_states, finals, edges, letters)``
with state 0 initial and ``edges`` of ``(src, (left, right), dst)``.
"""

from __future__ import annotations

import itertools
import random

SWAP = {"a": "b", "b": "a"}


# ---------------------------------------------------------------------------
# transducer specs and their brute-force semantics
# ---------------------------------------------------------------------------

def spec_eval(spec, word: str) -> str | None:
    """Output of a deterministic transducer spec on ``word``, or None."""
    n, finals, triples, final_out, _, _ = spec
    step = {(s, a): (o, d) for s, a, o, d in triples}
    state, out = 0, []
    for a in word:
        if (state, a) not in step:
            return None
        o, state = step[(state, a)]
        out.append(o)
    if state not in finals:
        return None
    return "".join(out) + final_out.get(state, "")


def spec_outputs(spec, max_len: int) -> dict[str, str]:
    """Every accepted input up to ``max_len`` with its output."""
    n, finals, triples, final_out, letters, _ = spec
    step = {(s, a): (o, d) for s, a, o, d in triples}
    table = {}
    stack = [("", 0, "")]
    while stack:
        w, s, out = stack.pop()
        if s in finals:
            table[w] = out + final_out.get(s, "")
        if len(w) < max_len:
            for a in letters:
                if (s, a) in step:
                    o, d = step[(s, a)]
                    stack.append((w + a, d, out + o))
    return table


def _word(rng: random.Random, letters: str, max_len: int) -> str:
    return "".join(rng.choice(letters)
                   for _ in range(rng.randrange(max_len + 1)))


# ---------------------------------------------------------------------------
# flip-set pairs (edit-distance)
# ---------------------------------------------------------------------------

def identity_spec():
    """The identity on ``ab``."""
    return (1, [0], [(0, "a", "a", 0), (0, "b", "b", 0)], {}, "ab", "ab")


def flip_spec(m: int, flips: tuple[int, ...]):
    """Copies its input but swaps a<->b at the (0-based) positions in flips < m."""
    triples = []
    for i in range(m + 1):
        for a in "ab":
            out = SWAP[a] if i in flips else a
            triples.append((i, a, out, min(i + 1, m)))
    return (m + 1, list(range(m + 1)), triples, {}, "ab", "ab")


def flip_sets(c: int, m: int) -> list[tuple[int, ...]]:
    """Every set of c flip positions among the first m."""
    return list(itertools.combinations(range(m), c))


def flip_distance(metric_name: str, c: int) -> int:
    return 2 * c if metric_name == "lcs" else c


# ---------------------------------------------------------------------------
# rotate-first-letter pairs (witness-close)
# ---------------------------------------------------------------------------

def dense_dfa_spec(rng: random.Random, n: int, max_out: int = 2):
    """A complete DFA on ``ab`` with outputs in {0,1}^{<=max_out}."""
    triples = [(s, a, _word(rng, "01", max_out), rng.randrange(n))
               for s in range(n) for a in "ab"]
    finals = [s for s in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    final_out = {f: _word(rng, "01", max_out) for f in finals}
    return (n, finals, triples, final_out, "ab", "01")


def rotate_first_letter(spec):
    """T2(w) = T1(w) with its first letter moved to the end.

    Product of T1 with a one-letter buffer: the buffer is empty until the
    first output letter, which it keeps back until the final output.
    """
    n, finals, triples, final_out, letters, out_letters = spec
    ids: dict[tuple[int, str], int] = {(0, ""): 0}
    todo = [(0, "")]
    out_triples = []
    while todo:
        q, buf = todo.pop()
        for s, a, o, d in triples:
            if s != q:
                continue
            if not buf and o:
                nbuf, emit = o[0], o[1:]
            else:
                nbuf, emit = buf, o
            if (d, nbuf) not in ids:
                ids[(d, nbuf)] = len(ids)
                todo.append((d, nbuf))
            out_triples.append((ids[(q, buf)], a, emit, ids[(d, nbuf)]))
    new_finals, new_final_out = [], {}
    for (q, buf), sid in ids.items():
        if q in finals:
            w = final_out.get(q, "")
            new_finals.append(sid)
            new_final_out[sid] = w + buf if buf else w[1:] + w[:1]
    return (len(ids), sorted(new_finals), out_triples, new_final_out,
            letters, out_letters)


def rotate(word: str) -> str:
    return word[1:] + word[:1]


#: sup over inputs of d(o, rot(o)): one rotation is one conjugacy step, a
#: deletion plus an insertion for the Levenshtein family
ROTATION_BOUND = {"conjugacy": 1, "levenshtein": 2, "lcs": 2, "damerau": 2}


def rotation_base(rng: random.Random, n: int, self_pair: bool,
                  probe_len: int = 6):
    """A dense DFA spec T1 for a rotate-first-letter pair.

    Unless it is for a self-pair, T1 is redrawn until rotating its output
    changes it on some input up to ``probe_len``, so that the pair is close
    but not identical.
    """
    while True:
        t1 = dense_dfa_spec(rng, n)
        if self_pair or any(o != rotate(o)
                            for o in spec_outputs(t1, probe_len).values()):
            return t1


def relabel(spec, in_map: dict[str, str], out_map: dict[str, str]):
    """The spec with input letters renamed by in_map and outputs by out_map."""
    n, finals, triples, final_out, letters, out_letters = spec
    table = str.maketrans(out_map)
    return (n, finals,
            [(s, in_map[a], o.translate(table), d) for s, a, o, d in triples],
            {f: w.translate(table) for f, w in final_out.items()},
            letters, out_letters)


def letter_swaps(rng: random.Random, in_letters: str, out_letters: str):
    """(in_map, out_map): each alphabet's two letters swapped or not, seeded."""
    def swap(letters):
        a, b = letters
        return {a: b, b: a} if rng.random() < 0.5 else {a: a, b: b}
    return swap(in_letters), swap(out_letters)


# ---------------------------------------------------------------------------
# small random pairs (verdict-mix)
# ---------------------------------------------------------------------------

def _trim(n, finals, triples):
    """Keep states reachable from 0 and co-reachable to a final; renumber."""
    fwd, bwd = {}, {}
    for s, _, _, d in triples:
        fwd.setdefault(s, []).append(d)
        bwd.setdefault(d, []).append(s)

    def closure(starts, adj):
        seen, todo = set(starts), list(starts)
        while todo:
            for d in adj.get(todo.pop(), ()):
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return seen

    useful = closure([0], fwd) & closure(finals, bwd)
    if 0 not in useful:
        return None
    ren = {s: i for i, s in enumerate(sorted(useful))}
    kept = [(ren[s], a, o, ren[d]) for s, a, o, d in triples
            if s in useful and d in useful]
    return len(ren), sorted(ren[f] for f in finals if f in useful), kept


def random_pair(rng: random.Random, max_states: int = 5, max_out: int = 2):
    """Two transducers on one random trimmed DFA with independent outputs."""
    while True:
        n = rng.randrange(1, max_states + 1)
        skeleton = [(s, a, None, rng.randrange(n))
                    for s in range(n) for a in "ab" if rng.random() < 0.8]
        finals = [s for s in range(n) if rng.random() < 0.4] \
            or [rng.randrange(n)]
        trimmed = _trim(n, finals, skeleton)
        if trimmed is not None:
            break
    n, finals, skeleton = trimmed

    def labelled():
        triples = [(s, a, _word(rng, "01", max_out), d)
                   for s, a, _, d in skeleton]
        final_out = {f: _word(rng, "01", max_out) for f in finals}
        return (n, finals, triples, final_out, "ab", "01")

    return labelled(), labelled()


# ---------------------------------------------------------------------------
# relation families (relation-index)
# ---------------------------------------------------------------------------

def delete_first(k: int, a: str = "a", b: str = "b"):
    """Deletes the first k occurrences of a; index k over delete_first(1)."""
    edges = []
    for i in range(k):
        edges.append((i, (b, b), i))
        edges.append((i, (a, ""), i + 1))
    edges.append((k, (a, a), k))
    edges.append((k, (b, b), k))
    return (k + 1, [k], edges, "ab")


def one_edit(rng: random.Random, substitution_only: bool) -> tuple[str, str]:
    """(x, y) over ``ab`` one edit apart: |x| <= 2, distance exactly 1."""
    if substitution_only:
        x = _word(rng, "ab", 1) + rng.choice("ab")
        op = "sub"
    else:
        x = _word(rng, "ab", 2)
        op = rng.choice(["sub", "del", "ins"] if x else ["ins"])
    i = rng.randrange(len(x) + (op == "ins"))
    if op == "sub":
        return x, x[:i] + SWAP[x[i]] + x[i + 1:]
    if op == "del":
        return x, x[:i] + x[i + 1:]
    return x, x[:i] + rng.choice("ab") + x[i:]


def framed_relation(rng: random.Random, substitution_only: bool):
    """{(x1 w y1, x2 w y2) : w in L*} with L a non-empty subset of ``ab``.

    Each frame (x1, x2) and (y1, y2) is one edit apart, a substitution when
    ``substitution_only``, so the Hamming diameter is exactly 2 and every
    diameter is at most 2.
    """
    pre = one_edit(rng, substitution_only)
    post = one_edit(rng, substitution_only)
    loop_letters = rng.choice(["a", "b", "ab"])
    edges = [(0, pre, 1)]
    edges += [(1, (c, c), 1) for c in loop_letters]
    edges.append((1, post, 2))
    return (3, [2], edges, "ab")


def frames(spec) -> tuple[tuple[str, str], tuple[str, str]]:
    """The two frames (x1, x2) and (y1, y2) of a framed relation."""
    edges = spec[2]
    return edges[0][1], edges[-1][1]


def relabel_relation(spec, letter_map: dict[str, str]):
    """The relation spec with both sides' letters renamed by letter_map."""
    n, finals, edges, letters = spec
    table = str.maketrans(letter_map)
    return (n, finals, [(s, (x.translate(table), y.translate(table)), d)
                        for s, (x, y), d in edges], letters)


def relation_pairs(spec, max_loop: int) -> set[tuple[str, str]]:
    """Pairs of a framed relation with at most ``max_loop`` loop letters."""
    pre, post = frames(spec)
    loop = [lbl[0] for s, lbl, d in spec[2] if s == d]
    words = [""]
    frontier = [""]
    for _ in range(max_loop):
        frontier = [w + c for w in frontier for c in loop]
        words += frontier
    return {(pre[0] + w + post[0], pre[1] + w + post[1]) for w in words}


# ---------------------------------------------------------------------------
# building library objects
# ---------------------------------------------------------------------------

def build_transducer(td, spec):
    n, finals, triples, final_out, letters, out_letters = spec
    nfa = td.Nfa(n, [0], finals, [(s, a, d) for s, a, _, d in triples])
    return td.Transducer(nfa, [o for _, _, o, _ in triples], final_out,
                         td.Alphabet(letters), td.Alphabet(out_letters))


def build_relation(td, spec):
    n, finals, edges, letters = spec
    alphabet = td.Alphabet(letters)
    return td.PairAutomaton.from_edges(n, [0], finals, edges,
                                       alphabet, alphabet)
