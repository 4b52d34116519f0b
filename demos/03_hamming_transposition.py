"""Hamming and transposition closeness from one delay walk per component
of the pair automaton.

A border-shifted pair: T_a maps a^n to b a^n while T_b maps a^n to a^n b.
Substitutions fix the two ends (Hamming distance 2 forever), but adjacent
swaps must carry the b across the whole word, so the transposition distance
grows without bound.  The decider exhibits a pumpable loop as certificate.
Both deciders walk each component of the pair automaton once, from the
one buffer its loops can settle into, so no verdict depends on the delays.
The exact distance of a close pair is one longest path over the
synchronization of the whole pair automaton.
"""

from transdist import Alphabet, Metric, Nfa, Transducer, close_verdict, \
    distance, evaluate, word_distance

A = Alphabet("a")
AB = Alphabet("ab")


def seq(triples, fout=None):
    nfa = Nfa(2, [0], [1], [(s, a, d) for s, a, _, d in triples])
    return Transducer(nfa, [o for _, _, o, _ in triples], fout or {}, A, AB)


t_a = seq([(0, "a", "ba", 1), (1, "a", "a", 1)])
t_b = seq([(0, "a", "a", 1), (1, "a", "a", 1)], fout={1: "b"})

print("== outputs ==")
for n in (1, 2, 4):
    print(f"  T_a(a^{n}) = {evaluate(t_a, 'a' * n)!r}"
          f"   T_b(a^{n}) = {evaluate(t_b, 'a' * n)!r}")

print("\n== Hamming: close, exact distance from one longest path ==")
print("  verdict:", close_verdict(Metric.HAMMING, t_a, t_b))
print("  distance(hamming) =", distance(Metric.HAMMING, t_a, t_b))

print("\n== transposition: not close, with a pumpable certificate ==")
verdict = close_verdict(Metric.TRANSPOSITION, t_a, t_b)
cert = verdict.certificate
print("  verdict:", type(verdict).__name__)
print(f"  loop certificate: prefix={cert.prefix!r} loop={cert.loop!r} "
      f"suffix={cert.suffix!r}")
for i in cert.pumps:
    w = cert.word(i)
    d = word_distance(Metric.TRANSPOSITION, evaluate(t_a, w), evaluate(t_b, w))
    print(f"  pump {i}: input {w!r} -> d_t = {d}")
