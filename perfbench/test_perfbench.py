"""Tests of the benchmark itself: generators, closed forms, checker, tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import transdist as td  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from check import Checker, WrongAnswer, nat  # noqa: E402

def words(letters, max_len):
    for n in range(max_len + 1):
        yield from map("".join, itertools.product(letters, repeat=n))


def oracle(metric, u, v):
    """Breadth-first edit-graph distance, independent of the kernels."""
    alphabet = td.Alphabet(sorted(set(u + v) or "a"))
    d = td.oracle_distance(metric, u, v, len(u) + len(v) + 2, alphabet)
    return nat(d)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda rng: inputs.rotation_base(rng, 3, rng.random() < 0.1),
    lambda rng: inputs.random_pair(rng),
    lambda rng: inputs.framed_relation(rng, rng.random() < 0.5),
    lambda rng: inputs.letter_swaps(rng, "ab", "01"),
])
def test_generators_are_deterministic_per_seed(make):
    for seed in range(5):
        a = [make(random.Random(seed)) for _ in range(3)]
        b = [make(random.Random(seed)) for _ in range(3)]
        assert a == b
    assert ([make(random.Random(1)) for _ in range(8)]
            != [make(random.Random(2)) for _ in range(8)])


def _pool_digest(pool):
    return [[(c.fn, tuple(map(repr, c.args)), c.tag) for c in r]
            for r in pool]


def _spec_digest(pool):
    """The machines' transitions and outputs, which repr does not show."""
    out = []
    for r in pool:
        for c in r:
            for a in c.args:
                if hasattr(a, "out"):
                    out.append((a.nfa.transitions, a.out,
                                sorted(a.final_out.items())))
    return out


@pytest.mark.parametrize("name", ["edit-distance", "witness-close",
                                  "verdict-mix", "relation-index"])
def test_pools_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name].make_pool
    a, b, c = make(td, 7), make(td, 7), make(td, 8)
    assert _pool_digest(a) == _pool_digest(b)
    assert _spec_digest(a) == _spec_digest(b)
    assert (_pool_digest(a), _spec_digest(a)) != (_pool_digest(c),
                                                  _spec_digest(c))


def test_rotated_machine_is_functional_with_the_same_domain():
    rng = random.Random(11)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            base = inputs.rotation_base(rng, n, False)
            t1 = inputs.relabel(base, *inputs.letter_swaps(rng, "ab", "01"))
            t2 = inputs.rotate_first_letter(t1)
            m1 = inputs.build_transducer(td, t1)
            m2 = inputs.build_transducer(td, t2)  # rejects ambiguous machines
            assert m2.is_sequential
            assert td.same_domain(m1, m2)
            for w in words("ab", 6):
                o1 = inputs.spec_eval(t1, w)
                o2 = inputs.spec_eval(t2, w)
                assert (o1 is None) == (o2 is None)
                assert o2 == td.evaluate(m2, w)
                if o1 is not None:
                    assert o2 == inputs.rotate(o1)


def test_rotate_pairs_differ_from_the_identity():
    rng = random.Random(3)
    for _ in range(30):
        t1 = inputs.rotation_base(rng, 3, False)
        t2 = inputs.rotate_first_letter(t1)
        outs = inputs.spec_outputs(t1, 6)
        assert any(inputs.spec_eval(t2, w) != o for w, o in outs.items())


def test_relabelling_renames_letters_only():
    rng = random.Random(4)
    spec = inputs.rotation_base(rng, 3, True)
    swapped = inputs.relabel(spec, {"a": "b", "b": "a"}, {"0": "1", "1": "0"})
    flip = str.maketrans("01", "10")
    for w in words("ab", 5):
        o = inputs.spec_eval(spec, w.translate(str.maketrans("ab", "ba")))
        got = inputs.spec_eval(swapped, w)
        assert got == (None if o is None else o.translate(flip))


# ---------------------------------------------------------------------------
# closed forms against the brute-force oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["hamming", "levenshtein", "lcs", "damerau"])
@pytest.mark.parametrize("m,flips", [(1, (0,)), (2, (1,)), (2, (0, 1)),
                                     (3, (0, 2))])
def test_flip_distance_matches_enumeration(metric, m, flips):
    ident = inputs.identity_spec()
    flipped = inputs.flip_spec(m, flips)
    assert flips in inputs.flip_sets(len(flips), m)
    worst = max(oracle(td.Metric(metric), inputs.spec_eval(ident, w),
                       inputs.spec_eval(flipped, w))
                for w in words("ab", m + 1))
    assert worst == inputs.flip_distance(metric, len(flips))


def test_rotation_bound_matches_enumeration():
    for name, bound in inputs.ROTATION_BOUND.items():
        metric = td.Metric(name)
        values = {oracle(metric, o, inputs.rotate(o)) for o in words("01", 5)}
        assert max(values) == bound, name


@pytest.mark.parametrize("k", [1, 2])
def test_delete_first_closed_form(k):
    spec = inputs.delete_first(k)
    r = inputs.build_relation(td, spec)
    pairs = td.enumerate_pairs(r, 2 * (k + 2))
    worst = max(oracle(td.Metric.LEVENSHTEIN, u, v) for u, v in pairs)
    assert worst == k
    assert nat(td.diameter(r, td.Metric.LEVENSHTEIN)) == k


def test_framed_hamming_closed_form():
    rng = random.Random(5)
    for _ in range(10):
        spec = inputs.relabel_relation(inputs.framed_relation(rng, True),
                                       {"a": "b", "b": "a"})
        pre, post = inputs.frames(spec)
        want = (oracle(td.Metric.HAMMING, *pre)
                + oracle(td.Metric.HAMMING, *post))
        pairs = inputs.relation_pairs(spec, 3)
        assert {oracle(td.Metric.HAMMING, u, v) for u, v in pairs} == {want}
        r = inputs.build_relation(td, spec)
        assert pairs <= td.enumerate_pairs(r, 12)


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------

def test_checker_rejects_wrong_answers():
    check = workloads._expect_nat(3)
    check(Checker(td, 0), td.ExtendedNat(3), {})
    with pytest.raises(WrongAnswer):
        check(Checker(td, 0), td.ExtendedNat(4), {})
    with pytest.raises(WrongAnswer):
        check(Checker(td, 0), td.INF, {})


def test_checker_replays_certificates():
    ident = inputs.build_transducer(td, inputs.identity_spec())
    flipped = inputs.build_transducer(td, inputs.flip_spec(2, (0,)))
    checker = Checker(td, 4)
    metric = td.Metric.DISCRETE
    good = td.NotClose(td.InfiniteWordCertificate("a", ("a", "b")))
    checker.check_verdict(metric, good, ident, flipped)
    forged = td.NotClose(td.InfiniteWordCertificate("", ("", "")))
    with pytest.raises(WrongAnswer):
        checker.check_verdict(metric, forged, ident, flipped)
    with pytest.raises(WrongAnswer):  # the bound 0 is below the enumerated 1
        checker.check_verdict(td.Metric.HAMMING,
                              td.Close(td.ExtendedNat(0)), ident, flipped)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _module_attrs():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "transdist" or name.startswith("transdist.")}


def test_tracer_restores_module_attributes():
    before = _module_attrs()
    ident = inputs.build_transducer(td, inputs.identity_spec())
    flipped = inputs.build_transducer(td, inputs.flip_spec(2, (0, 1)))
    plain = td.distance(td.Metric.LEVENSHTEIN, ident, flipped)
    with layers.Tracer() as tracer:
        assert td.kapprox.determinize is not before["transdist.kapprox"][
            "determinize"]
        assert td.relations.determinize is td.kapprox.determinize
        tracer.begin(0)
        traced = td.distance(td.Metric.LEVENSHTEIN, ident, flipped)
    after = _module_attrs()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, (name, attr)
    assert traced == plain
    metrics = tracer.metrics(1)
    assert metrics["kapprox.distance.calls"] == (1.0, "count/call")
    assert metrics["automata.determinize.calls"][0] >= 1
    assert metrics["kapprox.kclose.max_k"][0] >= 2


def test_tracer_restores_attributes_after_an_exception():
    before = _module_attrs()
    with pytest.raises(td.errors.InputError):
        with layers.Tracer():
            td.kclose(td.Metric.HAMMING, None, None, -1)
    after = _module_attrs()
    for name in before:
        for attr, value in before[name].items():
            assert after[name][attr] is value, (name, attr)


def test_self_time_excludes_children():
    ident = inputs.build_transducer(td, inputs.identity_spec())
    flipped = inputs.build_transducer(td, inputs.flip_spec(3, (0, 2)))
    with layers.Tracer() as tracer:
        tracer.begin(0)
        td.distance(td.Metric.LCS, ident, flipped)
    total = sum(tracer.self_s)
    top = [i for i, p in enumerate(tracer.parent) if p == -1]
    assert len(top) == 1
    assert set(tracer.parent) - {-1} <= set(tracer.span)
    outer = tracer.end[top[0]] - tracer.start[top[0]]
    assert total <= outer * 1.001
    assert all(s >= 0 for s in tracer.self_s)


# ---------------------------------------------------------------------------
# the benchmark description and entry point
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
    timed = run.Run(latencies=array("d", [0.001] * 200),
                    scaled=array("d", [0.001] * 200), passes=2, decided=200)
    run_metrics = run.end_to_end(timed, 0.5, 20.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in run_metrics.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.per_layer_metrics()


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calls_per_s_takes_each_calls_median_over_the_passes():
    # a pool of two calls, three passes; one slow outlier per call
    scaled = array("d", [0.1, 0.3, 0.9, 0.3, 0.1, 0.3])
    timed = run.Run(latencies=scaled, scaled=scaled, passes=3)
    assert timed.calls_per_s == pytest.approx(2 / (0.1 + 0.3))


def test_measure_scales_calls_by_the_reference_time(monkeypatch):
    # the machine runs at half the reference speed throughout
    monkeypatch.setattr(run, "time_reference", lambda: 2 * run.REF_S)
    ident = inputs.build_transducer(td, inputs.identity_spec())
    flipped = inputs.build_transducer(td, inputs.flip_spec(2, (0,)))
    call = workloads.Call("distance", (td.Metric("hamming"), ident, flipped),
                          lambda *_: None)
    timed = run.measure(td, [[call, call]], limit=10.0, replay=3)
    assert timed.passes == 3 and len(timed.scaled) == 6
    assert list(timed.scaled) == pytest.approx(
        [x / 2 for x in timed.latencies])
    assert timed.decided == 6


def test_reference_task_is_fixed_work():
    assert pace.reference_task() == pace.reference_task() > 0
