"""Polynomial closeness deciders for the Hamming and transposition distances,
plus their exact distances through an acyclic border gadget.

The pipeline on the pair automaton of two transducers:

* equal output lengths on every input (otherwise both distances are infinite);
* consistent per-state delays;
* per state q, the interiors of all loops at q must be identical pairs,
  decided by an identity check on a forward/backward unfolding gadget;
* for transposition additionally: every accepted pair must be a permutation
  pair (unique per-state alphabetic difference vectors, zero at finals), and
  loop borders must balance the context vector at every state.

When close, the distance is the maximum over accepting paths of an acyclic
automaton that keeps only borders and cross-component outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import Nfa, scc_decomposition, trim
from .errors import IntegrityError, InputError, ResourceLimitError
from .pairauto import (PairAutomaton, component_path, components,
                       delay_range, find_pair_path, identity_witness,
                       input_word_of_path, is_length_preserving,
                       shortest_suffix_path)
from .transducers import (DomainMismatchError, evaluate, joint_product,
                          loop_certificate, unbalanced_word_certificate)
from .verdicts import Close, InfiniteWordCertificate, NotClose
from .words import (INF, Alphabet, ExtendedNat, Metric, alphabetic_vector,
                    word_distance)

DEFAULT_GADGET_CEILING = 20_000
DEFAULT_PATHSET_CEILING = 200_000


def _vec(word: str, alphabet: Alphabet) -> tuple[int, ...]:
    return alphabetic_vector(word, alphabet)


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_neg(a):
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# interiors of loop pairs
# ---------------------------------------------------------------------------

def interior(pair: tuple[str, str], delay: int) -> tuple[str, str]:
    """The delay-aligned overlapping core of a loop pair."""
    u, v = pair
    n = len(u)
    if len(v) != n or n <= abs(delay):
        raise InputError(f"interior needs |u| = |v| > |delay|, got {pair}, {delay}")
    if delay >= 0:
        return u[:n - delay], v[delay:]
    return u[-delay:], v[:n + delay]


# ---------------------------------------------------------------------------
# shared pipeline state
# ---------------------------------------------------------------------------

@dataclass
class _Pipeline:
    p: PairAutomaton
    delays: list[int]
    comp: list[int]
    comps: list[list[int]]
    intra: list[list[int]]  # per component: transition indices inside it


def _build_pipeline(p: PairAutomaton) -> _Pipeline:
    """Needs a trimmed, length-preserving p: each state's delay is then the
    one gap of `delay_range` (lo == hi)."""
    gaps = delay_range(p)
    if gaps is None or gaps[0] != gaps[1]:
        raise IntegrityError("length-preserving automaton with conflicting delays")
    delays = gaps[0]
    analysis = components(p)
    comp, comps = analysis.comp, analysis.comps
    intra: list[list[int]] = [[] for _ in comps]
    for t, (s, _, d) in enumerate(p.nfa.transitions):
        if comp[s] == comp[d]:
            intra[comp[s]].append(t)
    return _Pipeline(p, delays, comp, comps, intra)


# ---------------------------------------------------------------------------
# interior triviality via the forward/backward gadget
# ---------------------------------------------------------------------------

def _interior_gadget(pipe: _Pipeline, cid: int, q: int) -> PairAutomaton:
    """A_{S_q}: accepts the interiors of all loops at q (trimmed borders)."""
    p = pipe.p
    members = pipe.comps[cid]
    dmax = max(abs(pipe.delays[s]) for s in members)
    levels = range(-dmax, dmax + 1)
    ids: dict[tuple, int] = {}
    order: list[tuple] = []

    def node(key):
        if key not in ids:
            ids[key] = len(order)
            order.append(key)
        return ids[key]

    edges = []
    for t in pipe.intra[cid]:
        s, (x, y), d = p.nfa.transitions[t]
        letter = p.input_letters[t]
        for i in levels:
            # forward gadget: trim the |delay| leading letters of one side
            if i > 0:
                j = i - 1 if y else i
                edges.append((node(("f", s, i)), (x, ""), node(("f", d, j)), letter))
            elif i < 0:
                j = i + 1 if x else i
                edges.append((node(("f", s, i)), ("", y), node(("f", d, j)), letter))
            # backward gadget: trim the |delay| trailing letters of the other
            if i > 0:
                j = i - 1 if y else i
                edges.append((node(("b", s, j)), (x, ""), node(("b", d, i)), letter))
            elif i < 0:
                j = i + 1 if x else i
                edges.append((node(("b", s, j)), ("", y), node(("b", d, i)), letter))
        # the core copies both outputs
        edges.append((node(("c", s)), (x, y), node(("c", d)), letter))
    for s in members:
        edges.append((node(("f", s, 0)), ("", ""), node(("c", s)), None))
        edges.append((node(("c", s)), ("", ""), node(("b", s, 0)), None))
    start = node(("f", q, pipe.delays[q]))
    end = node(("b", q, -pipe.delays[q]))
    return PairAutomaton.from_edges(len(order), [start], [end], edges,
                                    p.left_alphabet, p.right_alphabet)


def _interior_violation(pipe: _Pipeline):
    """(component, state, gadget, bad interior pair) of the first violation."""
    for cid, members in enumerate(pipe.comps):
        if not pipe.intra[cid]:
            continue
        for q in sorted(members):
            gadget = _interior_gadget(pipe, cid, q)
            if gadget.nfa.n_states == 0:
                continue
            bad = identity_witness(gadget)
            if bad is not None:
                return cid, q, gadget, bad
    return None


def _loop_certificate_from_gadget(pipe, q, gadget, bad_pair, metric, t1, t2):
    """Map a differing-interior witness back to a pumpable input loop."""
    path = find_pair_path(gadget, bad_pair)
    if path is None:
        raise IntegrityError("gadget witness pair not regenerated")
    return loop_certificate(t1, t2, metric, pipe.p, q,
                            input_word_of_path(gadget, path))


# ---------------------------------------------------------------------------
# alphabetic-vector consistency (transposition condition 1)
# ---------------------------------------------------------------------------

def _vector_analysis(pipe: _Pipeline):
    """Per-state difference vectors; a conflict certifies a non-permutation pair.

    Returns (vectors, None) on success or (None, input word) on failure.
    """
    p = pipe.p
    alphabet = p.left_alphabet
    zero = (0,) * len(alphabet)
    vecs: list[tuple | None] = [None] * p.nfa.n_states
    parent: dict[int, tuple[int, int] | None] = {}
    todo = deque()
    for s in sorted(p.nfa.initials):
        vecs[s] = zero
        parent[s] = None
        todo.append(s)
    adj = p.nfa.adj()
    conflict = None
    while todo and conflict is None:
        s = todo.popleft()
        for (x, y), d, t in adj[s]:
            nd = _vec_add(vecs[s], _vec_sub(_vec(x, alphabet), _vec(y, alphabet)))
            if vecs[d] is None:
                vecs[d] = nd
                parent[d] = (s, t)
                todo.append(d)
            elif vecs[d] != nd:
                conflict = (s, t, d)
                break
    if conflict is None:
        for f in sorted(p.nfa.finals):
            if vecs[f] != zero:
                word = input_word_of_path(p, _tree_path(parent, f)
                                          + shortest_suffix_path(p, f))
                return None, word
        return vecs, None
    s, t, d = conflict
    # two contexts reach d with different vectors; at least one completes to a
    # non-permutation pair
    suffix = shortest_suffix_path(p, d)
    path_a = _tree_path(parent, d) + suffix
    path_b = _tree_path(parent, s) + [t] + suffix
    for path in (path_a, path_b):
        u = "".join(p.nfa.transitions[i][1][0] for i in path)
        v = "".join(p.nfa.transitions[i][1][1] for i in path)
        if _vec(u, alphabet) != _vec(v, alphabet):
            return None, input_word_of_path(p, path)
    raise IntegrityError("vector conflict without a non-permutation completion")


def _tree_path(parent, state) -> list[int]:
    path = []
    cur = state
    while parent[cur] is not None:
        cur, t = parent[cur]
        path.append(t)
    return path[::-1]


# ---------------------------------------------------------------------------
# border balance (transposition condition 3)
# ---------------------------------------------------------------------------

def _border_walks(pipe: _Pipeline, cid: int, q: int, side: int, length: int,
                  ceiling: int = 100_000):
    """Words of `length` letters collected on `side` along SCC walks from q.

    Returns {word: transition path} for one representative walk per word.
    """
    p = pipe.p
    intra = set(pipe.intra[cid])
    inside = set(pipe.comps[cid])
    adj = p.nfa.adj()
    start = (q, "")
    paths: dict[tuple, list[int]] = {start: []}
    out: dict[str, list[int]] = {}
    todo = deque([start])
    while todo:
        s, w = todo.popleft()
        if len(w) == length:
            if w not in out:
                out[w] = paths[(s, w)] + component_path(p, inside, s, q)
            continue
        for (x, y), d, t in adj[s]:
            if t not in intra:
                continue
            w2 = w + (y if side == 2 else x)
            w2 = w2[:length]
            key = (d, w2)
            if key not in paths:
                if len(paths) > ceiling:
                    raise ResourceLimitError("border enumeration exceeded ceiling")
                paths[key] = paths[(s, w)] + [t]
                todo.append(key)
    return out


def _component_emits_letters(pipe: _Pipeline, cid: int) -> bool:
    return any(pipe.p.nfa.transitions[t][1] != ("", "")
               for t in pipe.intra[cid])


def _border_violation(pipe: _Pipeline, vecs):
    """(state, loop transition path) for the first border imbalance."""
    p = pipe.p
    alphabet = p.left_alphabet
    zero = (0,) * len(alphabet)
    for cid, members in enumerate(pipe.comps):
        if not pipe.intra[cid] or not _component_emits_letters(pipe, cid):
            continue
        for q in sorted(members):
            d = pipe.delays[q]
            if d == 0:
                if vecs[q] != zero:
                    # any letter-emitting loop at q transports the imbalance
                    loop = _letter_loop_at(pipe, cid, q)
                    return q, loop
                continue
            side = 2 if d > 0 else 1
            walks = _border_walks(pipe, cid, q, side, abs(d))
            for border in sorted(walks):
                target = _vec(border, alphabet)
                if d < 0:
                    target = _vec_neg(target)
                if vecs[q] != target:
                    return q, walks[border]
    return None


def _letter_loop_at(pipe: _Pipeline, cid: int, q: int) -> list[int]:
    """A loop at q through some letter-emitting intra-component edge."""
    inside = set(pipe.comps[cid])
    for t in pipe.intra[cid]:
        s, lbl, d = pipe.p.nfa.transitions[t]
        if lbl != ("", ""):
            return (component_path(pipe.p, inside, q, s) + [t]
                    + component_path(pipe.p, inside, d, q))
    raise IntegrityError("no letter-emitting edge in component")


# ---------------------------------------------------------------------------
# public deciders
# ---------------------------------------------------------------------------

def close_hamming(t1, t2, p: PairAutomaton):
    """Hamming closeness on p, the pair automaton of two machines with one
    domain: equal lengths, consistent delays, trivial interiors."""
    if p.nfa.n_states == 0:
        return Close(bound=None)
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    pipe = _build_pipeline(p)
    hit = _interior_violation(pipe)
    if hit is not None:
        _, q, gadget, bad = hit
        cert = _loop_certificate_from_gadget(pipe, q, gadget, bad,
                                             Metric.HAMMING, t1, t2)
        return NotClose(cert)
    return Close(bound=None)


def close_transposition(t1, t2, p: PairAutomaton):
    """Transposition closeness on p, the pair automaton of two machines with
    one domain, per the three-part loop characterization."""
    if p.nfa.n_states == 0:
        return Close(bound=None)
    if not is_length_preserving(p):
        return NotClose(unbalanced_word_certificate(p))
    pipe = _build_pipeline(p)
    vecs, bad_word = _vector_analysis(pipe)
    if vecs is None:
        o1, o2 = evaluate(t1, bad_word), evaluate(t2, bad_word)
        return NotClose(InfiniteWordCertificate(bad_word, (o1, o2)))
    hit = _interior_violation(pipe)
    if hit is not None:
        _, q, gadget, bad = hit
        cert = _loop_certificate_from_gadget(pipe, q, gadget, bad,
                                             Metric.TRANSPOSITION, t1, t2)
        return NotClose(cert)
    border = _border_violation(pipe, vecs)
    if border is not None:
        q, loop_path = border
        cert = loop_certificate(t1, t2, Metric.TRANSPOSITION, p, q,
                                input_word_of_path(p, loop_path))
        return NotClose(cert)
    return Close(bound=None)


# ---------------------------------------------------------------------------
# acyclic gadget: exact distance and k-closeness
# ---------------------------------------------------------------------------

def _acyclic_gadget(pipe: _Pipeline, ceiling: int) -> Nfa:
    """A_T: borders and cross-component outputs only; interiors dropped.

    Within a letter-emitting component, forward levels emit the leading
    border, level-0 moves cross the interior silently, and backward levels
    emit the trailing border.  Pass-through components keep their edges.
    """
    p = pipe.p
    ids: dict[tuple, int] = {}
    order: list[tuple] = []

    def node(key):
        if key not in ids:
            if len(ids) >= ceiling:
                raise ResourceLimitError(
                    f"acyclic gadget exceeded ceiling of {ceiling} states")
            ids[key] = len(order)
            order.append(key)
        return ids[key]

    gadgeted = [bool(pipe.intra[cid]) and _component_emits_letters(pipe, cid)
                for cid in range(len(pipe.comps))]
    edges: list[tuple] = []
    for cid, members in enumerate(pipe.comps):
        if not gadgeted[cid]:
            for t in pipe.intra[cid]:
                s, lbl, d = p.nfa.transitions[t]
                edges.append((node(("p", s)), lbl, node(("p", d))))
            continue
        dmax = max(abs(pipe.delays[s]) for s in members)
        for t in pipe.intra[cid]:
            s, (x, y), d = p.nfa.transitions[t]
            for i in range(-dmax, dmax + 1):
                if i > 0:  # forward: keep the leading border side
                    j = i - 1 if y else i
                    edges.append((_fnode(node, s, i), ("", y), _fnode(node, d, j)))
                elif i < 0:
                    j = i + 1 if x else i
                    edges.append((_fnode(node, s, i), (x, ""), _fnode(node, d, j)))
                if i > 0:  # backward: keep the trailing border side
                    j = i - 1 if y else i
                    edges.append((_bnode(node, s, j), ("", y), _bnode(node, d, i)))
                elif i < 0:
                    j = i + 1 if x else i
                    edges.append((_bnode(node, s, j), (x, ""), _bnode(node, d, i)))
            # level-0 interior movement emits nothing
            edges.append((node(("z", s)), ("", ""), node(("z", d))))

    def entry(state):
        cid = pipe.comp[state]
        if not gadgeted[cid]:
            return node(("p", state))
        return _fnode(node, state, pipe.delays[state])

    def exit_(state):
        cid = pipe.comp[state]
        if not gadgeted[cid]:
            return node(("p", state))
        return _bnode(node, state, -pipe.delays[state])

    for t, (s, lbl, d) in enumerate(p.nfa.transitions):
        if pipe.comp[s] != pipe.comp[d]:
            edges.append((exit_(s), lbl, entry(d)))
    initials = [entry(s) for s in sorted(p.nfa.initials)]
    finals = [exit_(f) for f in sorted(p.nfa.finals)]
    return Nfa(len(order), initials, finals,
               [(s, lbl, d) for s, lbl, d in edges])


def _fnode(node, state, level):
    return node(("z", state)) if level == 0 else node(("f", state, level))


def _bnode(node, state, level):
    return node(("z", state)) if level == 0 else node(("b", state, level))


def _collapse_silent_cycles(nfa: Nfa) -> Nfa:
    """Quotient by strongly connected components of the (ε,ε)-subgraph."""
    silent = Nfa(nfa.n_states, nfa.initials, nfa.finals,
                 [tr for tr in nfa.transitions if tr[1] == ("", "")])
    comp, comps = scc_decomposition(silent)
    transitions = []
    seen = set()
    for s, lbl, d in nfa.transitions:
        cs, cd = comp[s], comp[d]
        if cs == cd and lbl == ("", ""):
            continue
        key = (cs, lbl, cd)
        if key not in seen:
            seen.add(key)
            transitions.append(key)
    return Nfa(len(comps), {comp[s] for s in nfa.initials},
               {comp[f] for f in nfa.finals}, transitions)


def _assert_dag(nfa: Nfa):
    comp, comps = scc_decomposition(nfa)
    if any(len(c) > 1 for c in comps):
        raise IntegrityError("border gadget is not acyclic")
    for s, _, d in nfa.transitions:
        if s == d:
            raise IntegrityError("border gadget has a self-loop")


def _max_path_distance(nfa: Nfa, metric: Metric, alphabet: Alphabet,
                       ceiling: int) -> ExtendedNat:
    """Max over accepting paths of the output-pair distance (exhaustive)."""
    at, _, _ = trim(nfa)
    if at.n_states == 0:
        return ExtendedNat(0)
    at = _collapse_silent_cycles(at)
    at, _, _ = trim(at)
    _assert_dag(at)
    comp, comps = scc_decomposition(at)
    topo_states = [c[0] for c in comps]  # singleton components in topo order
    suffix: dict[int, set[tuple[str, str]]] = {s: set() for s in range(at.n_states)}
    adj = at.adj()
    total = 0
    for s in reversed(topo_states):
        pairs = set()
        if s in at.finals:
            pairs.add(("", ""))
        for (x, y), d, _ in adj[s]:
            for u, v in suffix[d]:
                pairs.add((x + u, y + v))
        total += len(pairs)
        if total > ceiling:
            raise ResourceLimitError(
                f"path enumeration exceeded {ceiling} suffix pairs")
        suffix[s] = pairs
    best = ExtendedNat(0)
    found = False
    for s in at.initials:
        for u, v in suffix[s]:
            found = True
            d = word_distance(metric, u, v, alphabet)
            if d == INF:
                raise IntegrityError(
                    "infinite path distance on a machine declared close")
            best = max(best, d)
    return best if found else ExtendedNat(0)


def distance_subst(metric: Metric, t1, t2) -> ExtendedNat:
    """Exact Hamming/transposition distance through the acyclic gadget.

    Builds the pair automaton (checking the domains) once, for the verdict
    and the gadget alike; the gadget's pipeline reads the delays and
    components the verdict left on it.  The gadget holds at most
    `DEFAULT_GADGET_CEILING` states and the path enumeration at most
    `DEFAULT_PATHSET_CEILING` suffix pairs.
    """
    if metric is Metric.HAMMING:
        decide = close_hamming
    elif metric is Metric.TRANSPOSITION:
        decide = close_transposition
    else:
        raise InputError(f"distance_subst handles hamming/transposition, "
                         f"not {metric}")
    try:
        p = joint_product(t1, t2)
    except DomainMismatchError:
        return INF
    if isinstance(decide(t1, t2, p), NotClose):
        return INF
    gadget = _acyclic_gadget(_build_pipeline(p), DEFAULT_GADGET_CEILING)
    return _max_path_distance(gadget, metric, p.left_alphabet,
                              DEFAULT_PATHSET_CEILING)
