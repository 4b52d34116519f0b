"""The four workloads: seeded pools of calls into the public API, and checks.

A workload turns the seed into a pool of rounds; a round is a short list of
``Call``s.  The runner times whole passes over the pool.  Each call names a
public function of the package, which the runner looks up at call time, so
traced wrappers see the call.

A call's cost can depend steeply on details of its input (which positions
flip, which random machine is drawn), so a pool drawn afresh for each seed
made the figures depend on the seed.  The pools therefore hold fixed
families: every flip set, or a catalogue drawn from a fixed seed.  The
workload seed renames letters, picks the few calls that are drawn, and
orders the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import inputs
from check import WrongAnswer, nat


@dataclass
class Call:
    fn: str
    args: tuple
    check: Callable  # check(checker, result, round_results)
    kwargs: dict = field(default_factory=dict)
    tag: object = None


@dataclass
class Workload:
    name: str
    why: str
    limit_s: float           # per-call time limit; a call past it is undecided
    check_len: int           # longest input the brute-force checker enumerates
    make_pool: Callable      # make_pool(td, seed) -> list of rounds


def _expect_nat(want):
    def check(checker, res, _):
        got = nat(res) if isinstance(res, checker.td.ExtendedNat) else res
        if got != want:
            raise WrongAnswer(f"expected {want}, got {res!r}")
    return check


# ---------------------------------------------------------------------------
# edit-distance: distance on flip-set pairs
# ---------------------------------------------------------------------------

#: flip-set machines count this many positions; flips lie among them
FLIP_POSITIONS = 4
#: (metric, c): every flip set.  The mix leaves out levenshtein c = 1 and
#: lcs c <= 2 so that the median call is a 30-50 ms one: the 10-20 ms calls
#: were the ones whose times moved most with the load on a shared machine.
EDIT_ALL = (("levenshtein", 2), ("levenshtein", 3), ("levenshtein", 4),
            ("damerau", 1), ("damerau", 2))
#: (metric, flips): one lcs c = 3 call, about 40% of a pass.  Damerau stops
#: at c = 2 and LCS at c = 3 because the next step costs seconds per call.
#: The lcs flip set is fixed: the four sets take 1.3-1.6 s and 55-60 MB
#: each, so a set drawn per seed made the figures depend on the seed.
EDIT_FIXED = (("lcs", (0, 1, 3)),)


def edit_pool(td, seed):
    """Every case once; the seed names the letters and orders the calls."""
    rng = random.Random(f"edit-distance:{seed}")
    cases = [(metric, flips) for metric, c in EDIT_ALL
             for flips in inputs.flip_sets(c, FLIP_POSITIONS)]
    cases += EDIT_FIXED
    rng.shuffle(cases)
    in_map, out_map = inputs.letter_swaps(rng, "ab", "ab")
    ident = inputs.build_transducer(
        td, inputs.relabel(inputs.identity_spec(), in_map, out_map))
    calls = []
    for metric, flips in cases:
        spec = inputs.flip_spec(FLIP_POSITIONS, flips)
        flipped = inputs.build_transducer(
            td, inputs.relabel(spec, in_map, out_map))
        want = inputs.flip_distance(metric, len(flips))
        calls.append(Call("distance", (td.Metric(metric), ident, flipped),
                          _expect_nat(want)))
    return [calls]


# ---------------------------------------------------------------------------
# witness-close: close_verdict on rotate-first-letter pairs
# ---------------------------------------------------------------------------

WITNESS_METRICS = ("conjugacy", "levenshtein", "lcs", "damerau")
WITNESS_STATES = 3
WITNESS_PAIRS = 200
SELF_EVERY = 10  # every tenth pair is a self-pair


def witness_pool(td, seed):
    catalogue = random.Random("witness-close:catalogue")
    rng = random.Random(f"witness-close:{seed}")
    rounds = []
    for i in range(WITNESS_PAIRS):
        is_self = i % SELF_EVERY == 0
        base = inputs.rotation_base(catalogue, WITNESS_STATES, is_self)
        in_map, out_map = inputs.letter_swaps(rng, base[4], base[5])
        s1 = inputs.relabel(base, in_map, out_map)
        s2 = s1 if is_self else inputs.rotate_first_letter(s1)
        t1 = inputs.build_transducer(td, s1)
        t2 = inputs.build_transducer(td, s2)
        calls = []
        for name in WITNESS_METRICS:
            metric = td.Metric(name)
            upper = 0 if is_self else inputs.ROTATION_BOUND[name]

            def check(checker, res, _, metric=metric, upper=upper,
                      t1=t1, t2=t2):
                if not isinstance(res, checker.td.Close):
                    raise WrongAnswer(f"rotate pair under {metric} is "
                                      f"close, got {res!r}")
                checker.check_verdict(metric, res, t1, t2, upper)

            calls.append(Call("close_verdict", (metric, t1, t2), check))
        rounds.append(calls)
    rng.shuffle(rounds)
    return rounds


# ---------------------------------------------------------------------------
# verdict-mix: close_verdict under all eight metrics on small random pairs
# ---------------------------------------------------------------------------

MIX_PAIRS = 400


def mix_pool(td, seed):
    catalogue = random.Random("verdict-mix:catalogue")
    rng = random.Random(f"verdict-mix:{seed}")
    rounds = []
    for _ in range(MIX_PAIRS):
        base1, base2 = inputs.random_pair(catalogue)
        in_map, out_map = inputs.letter_swaps(rng, base1[4], base1[5])
        t1 = inputs.build_transducer(td, inputs.relabel(base1, in_map, out_map))
        t2 = inputs.build_transducer(td, inputs.relabel(base2, in_map, out_map))
        calls = []
        for metric in td.Metric:
            def check(checker, res, _, metric=metric, t1=t1, t2=t2):
                checker.check_verdict(metric, res, t1, t2)

            calls.append(Call("close_verdict", (metric, t1, t2), check))
        rounds.append(calls)
    rng.shuffle(rounds)
    return rounds


# ---------------------------------------------------------------------------
# relation-index: diameter and index with closed-form answers
# ---------------------------------------------------------------------------

def _diameter_is_index(tag, bounds):
    """Check for a diameter or index call: within ``bounds(checker)`` and
    equal to its twin call on the same relation."""
    def check(checker, res, results):
        got = nat(res)
        lo, hi = bounds(checker)
        if got == "inf" or not lo <= got <= hi:
            raise WrongAnswer(f"{tag[0]} {tag[1]} {got} outside [{lo}, {hi}]")
        twin = results.get((tag[0], "index" if tag[1] == "diameter"
                            else "diameter"))
        if isinstance(twin, checker.td.ExtendedNat) and nat(twin) != got:
            raise WrongAnswer(f"diameter != index for {tag[0]}: "
                              f"{got} vs {nat(twin)}")
    return check


def _framed_bounds(metric, spec, exact):
    """[enumerated max, frame distances]: d(x1 w y1, x2 w y2) <= d(x1, x2)
    + d(y1, y2); with equal-length frames the Hamming value is exact."""
    def bounds(checker):
        pre, post = inputs.frames(spec)
        hi = (checker.word_distance(metric, *pre)
              + checker.word_distance(metric, *post))
        if exact:
            return hi, hi
        lo = max(checker.word_distance(metric, u, v)
                 for u, v in inputs.relation_pairs(spec, 4))
        return lo, hi
    return bounds


FRAMED_METRICS = ("hamming", "hamming", "levenshtein", "levenshtein")


def relation_pool(td, seed):
    """One round with each naming of the letters, in seeded order: a call's
    cost depends on which letter delete-first deletes, so a naming drawn
    per round made the figures depend on the seed."""
    catalogue = random.Random("relation-index:catalogue")
    rng = random.Random(f"relation-index:{seed}")
    namings = [("a", "b"), ("b", "a")]
    rng.shuffle(namings)
    return [relation_round(td, catalogue, rng, a, b) for a, b in namings]


def relation_round(td, catalogue, rng, a, b):
    lev = td.Metric("levenshtein")
    calls = []
    s = inputs.build_relation(td, inputs.delete_first(1, a, b))
    for k in range(1, 5):
        r = inputs.build_relation(td, inputs.delete_first(k, a, b))
        key = f"delete-first-{a}({k})"
        exact = lambda _, k=k: (k, k)
        calls.append(Call("diameter", (r, lev),
                          _diameter_is_index((key, "diameter"), exact),
                          tag=(key, "diameter")))
        calls.append(Call("index", (r, s, lev),
                          _diameter_is_index((key, "index"), exact),
                          kwargs={"metrizable_asserted": True},
                          tag=(key, "index")))
    for i, name in enumerate(FRAMED_METRICS):
        metric = td.Metric(name)
        base = inputs.framed_relation(catalogue, name == "hamming")
        spec = inputs.relabel_relation(base, {"a": a, "b": b})
        r = inputs.build_relation(td, spec)
        sphere = td.make_distance_relation(metric, td.Alphabet("ab"))
        bounds = _framed_bounds(metric, spec, name == "hamming")
        key = f"framed-{i}"
        calls.append(Call("diameter", (r, metric),
                          _diameter_is_index((key, "diameter"), bounds),
                          tag=(key, "diameter")))
        calls.append(Call("index", (r, sphere),
                          _diameter_is_index((key, "index"), bounds),
                          tag=(key, "index")))
    rng.shuffle(calls)
    return calls


WORKLOADS = {w.name: w for w in (
    Workload("edit-distance",
             "k-search and k-approximation (kapprox, determinize, words) "
             "dominate; closed-form flip-set answers",
             limit_s=30.0, check_len=0, make_pool=edit_pool),
    Workload("witness-close",
             "conjugacy.common_witness dominates; close but not identical "
             "pairs, a small self-pair share",
             limit_s=2.0, check_len=5, make_pool=witness_pool),
    Workload("verdict-mix",
             "sub-millisecond calls: fixed per-call cost and certificate "
             "building dominate",
             limit_s=2.0, check_len=6, make_pool=mix_pool),
    Workload("relation-index",
             "only workload reaching relations: determinize on padded "
             "encodings, composition powers",
             limit_s=10.0, check_len=0, make_pool=relation_pool),
)}
