"""Distances between word-to-word transductions beyond equivalence.

The library decides closeness and k-closeness of functional finite-state
transducers under seven word metrics, computes their exact distances, and
computes diameters of rational relations and indices in composition closures
of distance relations.

The package exports those operations, the machine, metric and verdict
types they take and return, and file I/O.  Everything else is reached by
its module path (`transdist.automata`, `transdist.pairauto`, ...), and the
brute-force references that the tests check against are in
`transdist.oracles`.
"""

from .words import (Alphabet, ExtendedNat, INF, Metric, parse_metric,
                    word_distance)
from .automata import Nfa
from .pairauto import PairAutomaton, enumerate_pairs
from .transducers import Transducer, evaluate, same_domain
from .kapprox import close_verdict, distance, kclose
from .relations import (DistanceRelation, compose, diameter, index,
                        make_distance_relation, power)
from .verdicts import (Close, DomainCertificate, GrowthCertificate,
                       InfiniteWordCertificate, LoopCertificate, NotClose,
                       PairCertificate, Unknown)
from .fileio import (load_machine, parse_machine, relation_to_text,
                     transducer_to_text)
from .oracles import oracle_distance
from . import errors

__all__ = [
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
    "errors",
]
__version__ = "0.1.0"
