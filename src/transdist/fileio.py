"""The textual machine format used by the command line.

Transducers:

    type: transducer
    alphabet_in: ab
    alphabet_out: 01
    states: q0 q1
    initial: q0
    finals: q0 q1=01
    transitions:
    q0 a 01 q1
    q1 b - q0

Relations use ``type: relation``, a single ``alphabet_out`` (alias
``alphabet``) and transitions ``src left-word right-word dst``.  The dash
denotes the empty word and is reserved; ``#`` starts a comment.  Parse errors
carry the offending line number.
"""

from __future__ import annotations

from .automata import Nfa
from .errors import ParseError
from .pairauto import PairAutomaton
from .transducers import Transducer
from .words import Alphabet

EMPTY_MARK = "-"


def _parse_sections(text: str):
    keys: dict[str, tuple[str, int]] = {}
    transitions: list[tuple[list[str], int]] = []
    in_transitions = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not in_transitions and ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().lower()
            if key == "transitions":
                in_transitions = True
                rest = value.strip()
                if rest:
                    transitions.append((rest.split(), lineno))
                continue
            if key in keys:
                raise ParseError(f"duplicate key {key!r}", lineno)
            keys[key] = (value.strip(), lineno)
        elif in_transitions:
            transitions.append((line.split(), lineno))
        else:
            raise ParseError(f"expected 'key: value', got {line!r}", lineno)
    return keys, transitions


def _need(keys, name, *, aliases=()):
    for candidate in (name, *aliases):
        if candidate in keys:
            return keys[candidate]
    raise ParseError(f"missing key {name!r}")


def _alphabet(raw: str, lineno: int) -> Alphabet:
    if EMPTY_MARK in raw:
        raise ParseError(f"the dash is reserved for the empty word", lineno)
    try:
        return Alphabet(raw)
    except Exception as exc:
        raise ParseError(str(exc), lineno) from None


def _word(token: str, alphabet: Alphabet, lineno: int) -> str:
    if token == EMPTY_MARK:
        return ""
    for c in token:
        if c not in alphabet:
            raise ParseError(
                f"letter {c!r} of {token!r} is outside the alphabet "
                f"{''.join(alphabet.letters)!r}", lineno)
    return token


def parse_machine(text: str) -> Transducer | PairAutomaton:
    """Parse a transducer or relation document."""
    keys, transition_lines = _parse_sections(text)
    kind = keys.get("type", ("transducer", 0))[0].lower()
    if kind == "transducer":
        return _parse_transducer(keys, transition_lines)
    if kind == "relation":
        return _parse_relation(keys, transition_lines)
    raise ParseError(f"unknown type {kind!r} (use transducer or relation)",
                     keys["type"][1])


def load_machine(path) -> Transducer | PairAutomaton:
    with open(path, encoding="utf-8") as fh:
        return parse_machine(fh.read())


def _state_table(keys):
    """(state count, state, initial states, their line) of the declared
    states: state(token, lineno) is a name's index, or a ParseError."""
    raw_states, states_line = _need(keys, "states")
    names = raw_states.split()
    if len(set(names)) != len(names):
        raise ParseError("duplicate state name", states_line)
    index = {name: i for i, name in enumerate(names)}

    def state(token, lineno):
        if token not in index:
            raise ParseError(f"undeclared state {token!r}", lineno)
        return index[token]

    raw_initial, initial_line = _need(keys, "initial")
    initials = [state(tok, initial_line) for tok in raw_initial.split()]
    return len(names), state, initials, initial_line


def _parse_transducer(keys, transition_lines) -> Transducer:
    alph_in = _alphabet(*_need(keys, "alphabet_in"))
    alph_out = _alphabet(*_need(keys, "alphabet_out"))
    n_states, state, initials, initial_line = _state_table(keys)
    if not initials:
        raise ParseError("at least one initial state required", initial_line)
    finals = {}
    raw_finals, finals_line = _need(keys, "finals")
    for tok in raw_finals.split():
        name, _, out = tok.partition("=")
        finals[state(name, finals_line)] = \
            _word(out, alph_out, finals_line) if out else ""
    triples = []
    outputs = []
    for fields, lineno in transition_lines:
        if len(fields) != 4:
            raise ParseError(
                "transducer transitions need 'src letter output dst'", lineno)
        src, letter, out, dst = fields
        if len(letter) != 1 or letter not in alph_in:
            raise ParseError(f"bad input letter {letter!r}", lineno)
        triples.append((state(src, lineno), letter, state(dst, lineno)))
        outputs.append(_word(out, alph_out, lineno))
    nfa = Nfa(n_states, initials, finals, triples)
    return Transducer(nfa, outputs, finals, alph_in, alph_out)


def _parse_relation(keys, transition_lines) -> PairAutomaton:
    raw_out = _need(keys, "alphabet_out", aliases=("alphabet",))
    alph_right = _alphabet(*raw_out)
    alph_left = _alphabet(*keys["alphabet_in"]) if "alphabet_in" in keys \
        else alph_right
    n_states, state, initials, _ = _state_table(keys)
    raw_finals, finals_line = _need(keys, "finals")
    finals = []
    for tok in raw_finals.split():
        if "=" in tok:
            raise ParseError("relation finals carry no outputs", finals_line)
        finals.append(state(tok, finals_line))
    edges = []
    for fields, lineno in transition_lines:
        if len(fields) != 4:
            raise ParseError(
                "relation transitions need 'src left-word right-word dst'",
                lineno)
        src, left, right, dst = fields
        edges.append((state(src, lineno),
                      (_word(left, alph_left, lineno),
                       _word(right, alph_right, lineno)),
                      state(dst, lineno)))
    return PairAutomaton.from_edges(n_states, initials, finals, edges,
                                    alph_left, alph_right)


def _mark(word: str) -> str:
    return word if word else EMPTY_MARK


def transducer_to_text(t: Transducer) -> str:
    lines = ["type: transducer",
             f"alphabet_in: {''.join(t.input_alphabet.letters)}",
             f"alphabet_out: {''.join(t.output_alphabet.letters)}",
             f"states: {' '.join(f'q{i}' for i in range(t.nfa.n_states))}",
             f"initial: {' '.join(f'q{i}' for i in sorted(t.nfa.initials))}"]
    finals = []
    for f in sorted(t.nfa.finals):
        out = t.final_out.get(f, "")
        finals.append(f"q{f}={out}" if out else f"q{f}")
    lines.append(f"finals: {' '.join(finals)}")
    lines.append("transitions:")
    for i, (s, a, d) in enumerate(t.nfa.transitions):
        lines.append(f"q{s} {a} {_mark(t.out[i])} q{d}")
    return "\n".join(lines) + "\n"


def relation_to_text(p: PairAutomaton) -> str:
    lines = ["type: relation",
             f"alphabet_in: {''.join(p.left_alphabet.letters)}",
             f"alphabet_out: {''.join(p.right_alphabet.letters)}",
             f"states: {' '.join(f'q{i}' for i in range(p.nfa.n_states))}",
             f"initial: {' '.join(f'q{i}' for i in sorted(p.nfa.initials))}",
             f"finals: {' '.join(f'q{i}' for i in sorted(p.nfa.finals))}",
             "transitions:"]
    for s, (x, y), d in p.nfa.transitions:
        lines.append(f"q{s} {_mark(x)} {_mark(y)} q{d}")
    return "\n".join(lines) + "\n"
