"""Command line front end.

Exit codes: 0 for decisive answers, 2 for UNKNOWN (including a construction
that hit the state ceiling), 1 for input errors.
The TRANSDIST_STATE_CEILING environment variable overrides the default size
ceilings; --state-ceiling overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .automata import DEFAULT_STATE_CEILING
from .errors import ResourceLimitError, TransdistError
from .fileio import EMPTY_MARK, load_machine
from .kapprox import close_verdict, distance, kclose
from .pairauto import PairAutomaton
from .relations import diameter, index, make_distance_relation
from .transducers import Transducer, domain_words, evaluate
from .verdicts import (Close, DomainCertificate, GrowthCertificate,
                       InfiniteWordCertificate, LoopCertificate,
                       PairCertificate, Unknown)
from .words import INF, Alphabet, Metric, parse_metric, word_distance

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNKNOWN = 2


def _load_transducer(path) -> Transducer:
    machine = load_machine(path)
    if not isinstance(machine, Transducer):
        raise TransdistError(f"{path} holds a relation, expected a transducer")
    return machine


def _load_relation(path) -> PairAutomaton:
    machine = load_machine(path)
    if isinstance(machine, Transducer):
        raise TransdistError(f"{path} holds a transducer, expected a relation")
    return machine


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _value_str(value) -> str:
    if isinstance(value, Unknown):
        return "unknown"
    return str(value)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _certificate_lines(metric: Metric, cert) -> list[str]:
    if isinstance(cert, DomainCertificate):
        return ["kind: domain",
                f"word: {cert.word or EMPTY_MARK}",
                "# accepted by exactly one of the two machines"]
    if isinstance(cert, InfiniteWordCertificate):
        return ["kind: word",
                f"metric: {metric}",
                f"word: {cert.word or EMPTY_MARK}",
                f"left_output: {cert.outputs[0] or EMPTY_MARK}",
                f"right_output: {cert.outputs[1] or EMPTY_MARK}",
                "# the two outputs on this input are at infinite distance"]
    if isinstance(cert, LoopCertificate):
        return ["kind: loop",
                f"metric: {metric}",
                f"prefix: {cert.prefix or EMPTY_MARK}",
                f"loop: {cert.loop or EMPTY_MARK}",
                f"suffix: {cert.suffix or EMPTY_MARK}",
                f"pumps: {' '.join(map(str, cert.pumps))}",
                "# distances on prefix loop^i suffix increase strictly"]
    if isinstance(cert, GrowthCertificate):
        return (["kind: words",
                 f"metric: {metric}",
                 f"pumps: {' '.join(map(str, cert.pumps))}"]
                + [f"word: {w or EMPTY_MARK}" for w in cert.words]
                + ["# output distances on these inputs increase strictly"])
    if isinstance(cert, PairCertificate):
        return ["kind: pair",
                f"metric: {metric}",
                f"left: {cert.pair[0] or EMPTY_MARK}",
                f"right: {cert.pair[1] or EMPTY_MARK}",
                "# a generated pair at infinite distance"]
    return ["kind: none"]


def _certificate_payload(cert):
    if cert is None:
        return None
    payload = {"kind": type(cert).__name__}
    for field in cert.__dataclass_fields__:
        value = getattr(cert, field)
        payload[field] = list(value) if isinstance(value, tuple) else value
    return payload


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    t = _load_transducer(args.file)
    word = "" if args.word == EMPTY_MARK else args.word
    out = evaluate(t, word)
    rendered = "undefined" if out is None else (out or EMPTY_MARK)
    _emit(args, {"command": "eval", "word": word, "output": None if out is None
                 else out}, rendered)
    return EXIT_OK


def cmd_worddist(args) -> int:
    metric = parse_metric(args.metric)
    u = "" if args.left == EMPTY_MARK else args.left
    v = "" if args.right == EMPTY_MARK else args.right
    alphabet = Alphabet(sorted(set(u) | set(v)))
    value = word_distance(metric, u, v, alphabet)
    _emit(args, {"command": "worddist", "metric": str(metric),
                 "value": str(value)}, str(value))
    return EXIT_OK


def cmd_close(args) -> int:
    metric = parse_metric(args.metric)
    t1 = _load_transducer(args.file1)
    t2 = _load_transducer(args.file2)
    verdict = close_verdict(metric, t1, t2)
    if isinstance(verdict, Unknown):
        _emit(args, {"command": "close", "metric": str(metric),
                     "result": "UNKNOWN", "reason": verdict.reason,
                     "cutoff": verdict.cutoff},
              f"UNKNOWN ({verdict.reason}; candidate cutoff {verdict.cutoff})")
        return EXIT_UNKNOWN
    if isinstance(verdict, Close):
        bound = None if verdict.bound is None else str(verdict.bound)
        plain = "CLOSE" if bound is None else f"CLOSE (distance <= {bound})"
        _emit(args, {"command": "close", "metric": str(metric),
                     "result": "CLOSE", "bound": bound}, plain)
        return EXIT_OK
    cert_path = args.certificate
    if cert_path is None:
        cert_path = f"notclose-{metric}.cert"
    lines = _certificate_lines(metric, verdict.certificate)
    with open(cert_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _emit(args, {"command": "close", "metric": str(metric),
                 "result": "NOT_CLOSE",
                 "certificate": _certificate_payload(verdict.certificate),
                 "certificate_path": cert_path},
          f"NOT_CLOSE (certificate: {cert_path})")
    return EXIT_OK


def cmd_kclose(args) -> int:
    metric = parse_metric(args.metric)
    t1 = _load_transducer(args.file1)
    t2 = _load_transducer(args.file2)
    answer = kclose(metric, t1, t2, args.k, ceiling=args.state_ceiling)
    _emit(args, {"command": "kclose", "metric": str(metric), "k": args.k,
                 "result": answer}, "YES" if answer else "NO")
    return EXIT_OK


def cmd_distance(args) -> int:
    metric = parse_metric(args.metric)
    t1 = _load_transducer(args.file1)
    t2 = _load_transducer(args.file2)
    value = distance(metric, t1, t2, ceiling=args.state_ceiling)
    _emit(args, {"command": "distance", "metric": str(metric),
                 "value": _value_str(value)}, _value_str(value))
    return EXIT_UNKNOWN if isinstance(value, Unknown) else EXIT_OK


def cmd_diameter(args) -> int:
    metric = parse_metric(args.metric)
    r = _load_relation(args.file)
    value = diameter(r, metric)
    _emit(args, {"command": "diameter", "metric": str(metric),
                 "value": _value_str(value)}, _value_str(value))
    return EXIT_UNKNOWN if isinstance(value, Unknown) else EXIT_OK


def cmd_index(args) -> int:
    r = _load_relation(args.file)
    if args.unit_sphere:
        metric = parse_metric(args.unit_sphere)
        sphere = make_distance_relation(metric, r.left_alphabet)
        value = index(r, sphere)
    else:
        if args.s_file is None:
            raise TransdistError("provide an S relation file or --unit-sphere")
        if args.metric is None:
            raise TransdistError("a declared metric (-m) is required with an "
                                 "S relation file")
        s = _load_relation(args.s_file)
        value = index(r, s, parse_metric(args.metric),
                      metrizable_asserted=args.assert_metrizable)
    _emit(args, {"command": "index", "value": _value_str(value)},
          _value_str(value))
    return EXIT_UNKNOWN if isinstance(value, Unknown) else EXIT_OK


def cmd_oracle(args) -> int:
    metric = parse_metric(args.metric)
    t1 = _load_transducer(args.file1)
    t2 = _load_transducer(args.file2)
    from .transducers import same_domain
    rows = []
    shared = same_domain(t1, t2)
    for n in range(args.max_len + 1):
        best = None
        count = 0
        for w in domain_words(t1, n):
            if len(w) != n:
                continue
            count += 1
            o2 = evaluate(t2, w)
            d = INF if o2 is None else word_distance(metric, evaluate(t1, w), o2)
            best = d if best is None else max(best, d)
        rows.append({"length": n, "inputs": count,
                     "max_distance": None if best is None else str(best)})
    if not args.json:
        print(f"# oracle {metric} (same domain: {'yes' if shared else 'no'})")
        print("length  inputs  max_distance")
        for row in rows:
            dist_s = "-" if row["max_distance"] is None else row["max_distance"]
            print(f"{row['length']:>6}  {row['inputs']:>6}  {dist_s}")
    else:
        print(json.dumps({"command": "oracle", "metric": str(metric),
                          "same_domain": shared, "rows": rows}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

METRIC_CHOICES = [m.value for m in Metric]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transdist",
        description="Distances between transducers, diameters and indices of "
                    "rational relations.")
    default_ceiling = int(os.environ.get("TRANSDIST_STATE_CEILING",
                                         DEFAULT_STATE_CEILING))
    parser.add_argument("--state-ceiling", type=int, default=default_ceiling,
                        help="abort constructions beyond this many states")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("eval", cmd_eval, help="run a transducer on a word")
    p.add_argument("file")
    p.add_argument("word", help=f"input word ({EMPTY_MARK!r} for the empty word)")

    p = add("worddist", cmd_worddist, help="distance between two words")
    p.add_argument("-m", "--metric", required=True, choices=METRIC_CHOICES)
    p.add_argument("left")
    p.add_argument("right")

    p = add("close", cmd_close, help="decide closeness of two transducers")
    p.add_argument("-m", "--metric", required=True, choices=METRIC_CHOICES)
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--certificate", help="where to write a NOT_CLOSE certificate")

    p = add("kclose", cmd_kclose, help="decide k-closeness")
    p.add_argument("-m", "--metric", required=True, choices=METRIC_CHOICES)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("distance", cmd_distance, help="exact distance between transducers")
    p.add_argument("-m", "--metric", required=True, choices=METRIC_CHOICES)
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("diameter", cmd_diameter, help="diameter of a rational relation")
    p.add_argument("-m", "--metric", required=True, choices=METRIC_CHOICES)
    p.add_argument("file")

    p = add("index", cmd_index,
            help="index of a relation in a composition closure")
    p.add_argument("file")
    p.add_argument("s_file", nargs="?")
    p.add_argument("--unit-sphere", metavar="METRIC", choices=METRIC_CHOICES,
                   help="use the generated unit sphere of this metric as S")
    p.add_argument("-m", "--metric", choices=METRIC_CHOICES,
                   help="declared metric for a user-supplied S")
    p.add_argument("--assert-metrizable", action="store_true",
                   help="assert that the supplied S is metrizable "
                        "(unverifiable in general)")

    p = add("oracle", cmd_oracle,
            help="brute-force per-length maximum distances")
    p.add_argument("-m", "--metric", required=True, choices=METRIC_CHOICES)
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-len", type=int, default=8)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        _emit(args, {"command": args.command, "result": "UNKNOWN",
                     "reason": str(exc)}, f"UNKNOWN ({exc})")
        return EXIT_UNKNOWN
    except TransdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
