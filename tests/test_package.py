"""The package as installed and imported: no runtime dependency, and a
public namespace that holds the paper's operations and every name the
benchmark and the demos read from it."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import transdist
from transdist.fileio import relation_to_text, transducer_to_text
from transdist.transducers import joint_product
from transdist.words import Metric, word_distance

ROOT = Path(__file__).resolve().parent.parent

#: a meta-path finder, installed first, that refuses numpy and scipy
REFUSE_NUMERIC = """\
import sys


class RefuseNumeric:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ImportError(f"{name} is not installed")
        return None


sys.meta_path.insert(0, RefuseNumeric())
"""

RUN_CLI = """\
import json, sys
from transdist.cli import main
for argv in json.loads(sys.argv[1]):
    print("$", *argv)
    print("exit", main(argv))
"""


def _python(code: str, *args: str, cwd: Path, refuse: bool):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", (REFUSE_NUMERIC if refuse else "") + code,
         *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120)


# ---------------------------------------------------------------------------
# runtime dependencies
# ---------------------------------------------------------------------------

def test_the_package_and_the_oracle_work_without_numpy_and_scipy(tmp_path):
    code = """
import transdist
from transdist.oracles import oracle_distance
from transdist.words import Alphabet, Metric
for name in ("numpy", "scipy.sparse"):
    try:
        __import__(name)
    except ImportError:
        print("refused", name)
print(oracle_distance(Metric.LEVENSHTEIN, "0110", "1001", 4, Alphabet("01")))
print(sorted({"numpy", "scipy"} & sys.modules.keys()))
"""
    run = _python(code, cwd=tmp_path, refuse=True)
    assert run.returncode == 0, run.stderr
    want = word_distance(Metric.LEVENSHTEIN, "0110", "1001")
    assert run.stdout.split("\n") == [
        "refused numpy", "refused scipy.sparse", str(want), "[]", ""]


def test_the_cli_answers_alike_without_numpy_and_scipy(t4, t5, tmp_path):
    (tmp_path / "t4.fst").write_text(transducer_to_text(t4))
    (tmp_path / "t5.fst").write_text(transducer_to_text(t5))
    (tmp_path / "t45.rel").write_text(relation_to_text(joint_product(t4, t5)))
    commands = [
        ["close", "-m", "hamming", "t4.fst", "t5.fst"],
        ["close", "-m", "levenshtein", "t4.fst", "t5.fst"],
        ["kclose", "-m", "levenshtein", "-k", "2", "t4.fst", "t5.fst"],
        ["distance", "-m", "levenshtein", "t4.fst", "t5.fst"],
        ["diameter", "-m", "levenshtein", "t45.rel"],
        ["index", "t45.rel", "--unit-sphere", "levenshtein"],
        ["oracle", "-m", "levenshtein", "t4.fst", "t5.fst", "--max-len", "4"],
    ]
    runs = [_python(RUN_CLI, json.dumps(commands), cwd=tmp_path, refuse=refuse)
            for refuse in (False, True)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[1].stdout == runs[0].stdout
    assert runs[0].stdout.count("exit 0") == len(commands)
    # T4 and T5 are at Levenshtein distance 2, and so is their relation's
    # diameter and index over the unit sphere
    assert runs[0].stdout.count("\n2\n") == 3


def test_numpy_and_scipy_are_test_dependencies_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    test_extra = {re.match(r"[\w.-]+", req).group()
                  for req in project["optional-dependencies"]["test"]}
    assert {"numpy", "scipy"} <= test_extra


# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------

PUBLIC_NAMES = {
    "Alphabet", "ExtendedNat", "INF", "Metric", "parse_metric",
    "word_distance",
    "Nfa", "PairAutomaton", "enumerate_pairs", "Transducer", "evaluate",
    "same_domain",
    "close_verdict", "kclose", "distance",
    "DistanceRelation", "compose", "diameter", "index",
    "make_distance_relation", "power",
    "Close", "DomainCertificate", "GrowthCertificate",
    "InfiniteWordCertificate", "LoopCertificate", "NotClose",
    "PairCertificate", "Unknown",
    "load_machine", "parse_machine", "transducer_to_text", "relation_to_text",
    "oracle_distance",
}


def test_the_package_exports_the_paper_operations_and_types():
    names = [name for name in transdist.__all__
             if not isinstance(getattr(transdist, name), ModuleType)]
    assert len(names) == len(PUBLIC_NAMES) == 34
    assert set(names) == PUBLIC_NAMES
    assert set(transdist.__all__) - PUBLIC_NAMES == {"errors"}


def _names_read_from_the_package() -> dict[str, str]:
    """name -> file, for every `td.<name>` and `Call("<name>"` in perfbench
    (which imports transdist as td and calls `getattr(td, call.fn)`) and
    every `from transdist import <name>` in the demos."""
    names = {}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for match in re.finditer(r"\btd\.(\w+)|\bCall\(\"(\w+)\"",
                                 path.read_text()):
            names.setdefault(match.group(1) or match.group(2), path.name)
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module == "transdist":
                for alias in node.names:
                    names.setdefault(alias.name, path.name)
    return names


def test_every_name_the_benchmark_and_demos_read_resolves():
    names = _names_read_from_the_package()
    assert {"oracle_distance", "GrowthCertificate", "close_verdict",
            "PairAutomaton", "make_distance_relation"} <= names.keys()
    missing = sorted(f"{file}: transdist.{name}"
                     for name, file in names.items()
                     if not hasattr(transdist, name))
    assert missing == []
