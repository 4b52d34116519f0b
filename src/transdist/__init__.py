"""Distances between word-to-word transductions beyond equivalence.

The library decides closeness and k-closeness of functional finite-state
transducers under seven word metrics, computes their exact distances, and
computes diameters of rational relations and indices in composition closures
of distance relations.
"""

from .words import (Alphabet, ExtendedNat, INF, Metric, OverBudget,
                    alphabetic_vector, metric_order_check, oracle_distance,
                    oracle_distances_from, parse_metric, word_distance)
from .automata import (Nfa, determinize, enumerate_words, equiv_unambiguous,
                       is_unambiguous, language_difference_witness,
                       scc_decomposition, trim)
from .pairauto import (PairAutomaton, bounded_delay, delay_range,
                       enumerate_pairs, is_identity_relation,
                       is_length_preserving, identity_witness,
                       pair_length_diameter, synchronize)
from .transducers import (Transducer, domain_words, evaluate, joint_product,
                          length_close, nivat_split, same_domain)
from .conjugacy import (Atom, Cat, Empty, PairExpr, Star, Sum, Witness,
                        WitnessFamily, close_conjugacy, common_witness,
                        pair_witnesses, state_elimination, sumfree_decompose,
                        to_pair_automaton, verify_witness)
from .substitution import distance_subst, interior, lborder, rborder
from .kapprox import (DistanceAutomaton, build_kapprox, close_verdict,
                      distance, kclose, min_weight_on, min_weight_table)
from .relations import (DistanceRelation, compose, diameter,
                        identity_relation, index, make_distance_relation,
                        power, power_upto, relation_included)
from .verdicts import (Close, DomainCertificate, GrowthCertificate,
                       InfiniteWordCertificate, LoopCertificate, NotClose,
                       PairCertificate, Unknown)
from .fileio import (load_machine, parse_machine, relation_to_text,
                     transducer_to_text)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
