import itertools
import json

import pytest

from transdist import relations
from transdist.cli import main
from transdist.errors import ParseError
from transdist.fileio import (parse_machine, relation_to_text,
                              transducer_to_text)
from transdist.pairauto import PairAutomaton, enumerate_pairs
from transdist.transducers import Transducer, evaluate
from transdist.words import Metric, word_distance

T4_TEXT = """\
# T4: block compressor
type: transducer
alphabet_in: 01
alphabet_out: 01
states: q0 q1 q2
initial: q0
finals: q1 q2
transitions:
q0 0 0 q1
q0 1 1 q2
q1 0 - q1
q1 1 1 q2
q2 1 - q2
q2 0 0 q1
"""

T5_TEXT = T4_TEXT.replace("# T4: block compressor", "# T5: complement") \
    .replace("q0 0 0 q1", "q0 0 1 q1").replace("q0 1 1 q2", "q0 1 0 q2") \
    .replace("q1 1 1 q2", "q1 1 0 q2").replace("q2 0 0 q1", "q2 0 1 q1")

REL_TEXT = """\
type: relation
alphabet_out: ab
states: s t
initial: s
finals: t
transitions:
s a - t
t a a t
t b b t
"""


@pytest.fixture
def t4_file(tmp_path):
    path = tmp_path / "t4.fst"
    path.write_text(T4_TEXT)
    return str(path)


@pytest.fixture
def t5_file(tmp_path):
    path = tmp_path / "t5.fst"
    path.write_text(T5_TEXT)
    return str(path)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_parse_transducer_and_eval():
    t = parse_machine(T4_TEXT)
    assert isinstance(t, Transducer)
    assert evaluate(t, "00110") == "010"
    assert evaluate(t, "") is None


def test_parse_relation():
    r = parse_machine(REL_TEXT)
    assert isinstance(r, PairAutomaton)
    assert ("a", "") in enumerate_pairs(r, 2)
    assert ("ab", "b") in enumerate_pairs(r, 2)


def test_round_trip_transducer():
    t = parse_machine(T4_TEXT)
    again = parse_machine(transducer_to_text(t))
    for w in ("0", "1", "00110", "0101"):
        assert evaluate(t, w) == evaluate(again, w)


def test_round_trip_relation():
    r = parse_machine(REL_TEXT)
    again = parse_machine(relation_to_text(r))
    assert enumerate_pairs(r, 3) == enumerate_pairs(again, 3)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_machine(T4_TEXT.replace("q2 0 0 q1", "q2 0 0 q9"))
    assert err.value.line is not None
    with pytest.raises(ParseError):
        parse_machine("type: transducer\nalphabet_in: a-\n")
    with pytest.raises(ParseError):
        parse_machine(T4_TEXT.replace("alphabet_in: 01\n", ""))


def test_final_outputs_in_files(tmp_path):
    text = """\
type: transducer
alphabet_in: a
alphabet_out: xy
states: q0 q1
initial: q0
finals: q1=xy
transitions:
q0 a x q1
"""
    t = parse_machine(text)
    assert evaluate(t, "a") == "xxy"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_cmd_eval(t4_file, capsys):
    assert main(["eval", t4_file, "00110"]) == 0
    assert capsys.readouterr().out.strip() == "010"


def test_cmd_eval_undefined(t4_file, capsys):
    assert main(["eval", t4_file, "-"]) == 0
    assert capsys.readouterr().out.strip() == "undefined"


def test_cmd_worddist(capsys):
    assert main(["worddist", "-m", "levenshtein", "aaa", "bbb"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["worddist", "-m", "conjugacy", "1001", "0101"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_cmd_distance_t4_t5(t4_file, t5_file, capsys):
    assert main(["distance", "-m", "levenshtein", t4_file, t5_file]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["distance", "-m", "hamming", t4_file, t5_file]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_cmd_close_close_case(t4_file, capsys):
    assert main(["close", "-m", "hamming", t4_file, t4_file]) == 0
    assert capsys.readouterr().out.strip() == "CLOSE"


def test_cmd_close_not_close_writes_certificate(t4_file, t5_file, tmp_path,
                                                capsys):
    cert = tmp_path / "out.cert"
    code = main(["close", "-m", "hamming", t4_file, t5_file,
                 "--certificate", str(cert)])
    assert code == 0
    out = capsys.readouterr().out
    assert "NOT_CLOSE" in out
    body = cert.read_text()
    assert "kind: loop" in body or "kind: word" in body


def test_cmd_kclose(t4_file, t5_file, capsys):
    assert main(["kclose", "-m", "levenshtein", "-k", "2", t4_file, t5_file]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert main(["kclose", "-m", "levenshtein", "-k", "1", t4_file, t5_file]) == 0
    assert capsys.readouterr().out.strip() == "NO"


def test_cmd_diameter(tmp_path, capsys):
    rel = tmp_path / "rot.rel"
    rel.write_text("""\
type: relation
alphabet_out: 01
states: s
initial: s
finals: s
transitions:
s 01 10 s
""")
    assert main(["diameter", "-m", "conjugacy", str(rel)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cmd_index_unit_sphere(tmp_path, capsys):
    rel = tmp_path / "sub2.rel"
    rel.write_text("""\
type: relation
alphabet_out: ab
states: s m t
initial: s
finals: t
transitions:
s a a s
s b b s
s a b m
m a b t
t a a t
t b b t
""")
    assert main(["index", str(rel), "--unit-sphere", "hamming"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cmd_index_containment_overflow_is_unknown(tmp_path, capsys,
                                                   monkeypatch):
    # deleting the first three a's has index 3 in the Levenshtein sphere;
    # the level-3 containment test outgrows 200 states
    monkeypatch.setattr(relations, "DEFAULT_CONTAINMENT_CEILING", 200)
    rel = tmp_path / "delete3.rel"
    rel.write_text("""\
type: relation
alphabet_out: ab
states: s0 s1 s2 s3
initial: s0
finals: s3
transitions:
s0 b b s0
s0 a - s1
s1 b b s1
s1 a - s2
s2 b b s2
s2 a - s3
s3 a a s3
s3 b b s3
""")
    assert main(["index", str(rel), "--unit-sphere", "levenshtein"]) == 2
    assert capsys.readouterr().out.strip() == (
        "UNKNOWN (index containment R ⊆ S^≤∘3 (k=3) exceeded 200 states: "
        "determinization exceeded ceiling of 200 states)")


def test_cmd_index_needs_assertion(tmp_path, capsys):
    rel = tmp_path / "r.rel"
    rel.write_text(REL_TEXT)
    code = main(["index", str(rel), str(rel), "-m", "levenshtein"])
    assert code == 1
    assert "metrizability" in capsys.readouterr().err


def test_cmd_oracle_table(t4_file, t5_file, capsys):
    assert main(["oracle", "-m", "levenshtein", t4_file, t5_file,
                 "--max-len", "4"]) == 0
    out = capsys.readouterr().out
    assert "max_distance" in out
    assert out.count("\n") >= 6


def test_cmd_oracle_json_rows(t4_file, t5_file, capsys):
    # each row is the largest distance over the inputs of one length, found
    # here by trying every word over the input alphabet
    t4, t5 = parse_machine(T4_TEXT), parse_machine(T5_TEXT)
    want = []
    for n in range(5):
        outputs = [(evaluate(t4, w), evaluate(t5, w))
                   for w in map("".join, itertools.product("01", repeat=n))
                   if evaluate(t4, w) is not None]
        best = max((word_distance(Metric.LEVENSHTEIN, u, v)
                    for u, v in outputs), default=None)
        want.append({"length": n, "inputs": len(outputs),
                     "max_distance": None if best is None else str(best)})
    for max_len, rows in ((4, want), (0, want[:1]), (-1, [])):
        assert main(["--json", "oracle", "-m", "levenshtein", t4_file,
                     t5_file, "--max-len", str(max_len)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == rows
        assert payload["same_domain"] is True


def test_json_flag(t4_file, t5_file, capsys):
    assert main(["--json", "distance", "-m", "levenshtein", t4_file,
                 t5_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "2"
    assert payload["command"] == "distance"


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.fst"
    bad.write_text("type: transducer\n")
    assert main(["eval", str(bad), "a"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_state_ceiling_is_unknown(t4_file, t5_file, capsys):
    assert main(["--state-ceiling", "3", "distance", "-m", "levenshtein",
                 t4_file, t5_file]) == 2
    out = capsys.readouterr().out.strip()
    assert out == ("UNKNOWN (k-approximation (levenshtein, k=2) exceeded 3 "
                   "states)")
    assert main(["--json", "--state-ceiling", "3", "distance", "-m",
                 "levenshtein", t4_file, t5_file]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"command": "distance", "result": "UNKNOWN",
                       "reason": "k-approximation (levenshtein, k=2) exceeded "
                                 "3 states"}


def test_cli_byte_stable(t4_file, t5_file, capsys):
    outs = set()
    for _ in range(3):
        main(["--json", "close", "-m", "transposition", t4_file, t5_file,
              "--certificate", "/dev/null"])
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


@pytest.mark.parametrize("argv", [
    ["worddist", "-m", "nosuch", "ab", "ba"],
    ["kclose", "-m", "levenshtein", "-k", "x", "t4.fst", "t5.fst"],
    ["nosuch"],
    [],
])
def test_cli_usage_error_is_an_input_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: transdist")
    assert "\nerror: " in err


@pytest.mark.parametrize("ceiling", ["0", "-5", "abc", "1.5", ""])
def test_cli_state_ceiling_must_be_a_positive_integer(ceiling, monkeypatch,
                                                      capsys):
    worddist = ["worddist", "-m", "hamming", "ab", "ba"]
    assert main(["--state-ceiling", ceiling] + worddist) == 1
    assert "error: argument --state-ceiling: the state ceiling" \
        in capsys.readouterr().err
    monkeypatch.setenv("TRANSDIST_STATE_CEILING", ceiling)
    assert main(worddist) == 1
    assert "TRANSDIST_STATE_CEILING" in capsys.readouterr().err
    assert main(["--state-ceiling", "5"] + worddist) == 0  # the flag wins
    assert capsys.readouterr().out.strip() == "2"


def test_cli_state_ceiling_from_the_environment(t4_file, t5_file,
                                                monkeypatch, capsys):
    monkeypatch.setenv("TRANSDIST_STATE_CEILING", "3")
    assert main(["distance", "-m", "levenshtein", t4_file, t5_file]) == 2
    assert "exceeded 3 states" in capsys.readouterr().out
