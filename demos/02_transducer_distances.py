"""Distances between transducers: the worked example machines.

T1 copies the letters at odd positions, T2 those at even positions, and T3
erases b's.  T4 compresses blocks of equal letters to one letter; T5 does
the same but complements.  Their pairwise distances separate the metrics.
"""

from transdist import Alphabet, Metric, Nfa, Transducer, distance, evaluate, \
    kclose

AB = Alphabet("ab")
B01 = Alphabet("01")


def seq(n, initials, finals, triples, fout=None, alph_in=AB, alph_out=AB):
    nfa = Nfa(n, initials, finals, [(s, a, d) for s, a, _, d in triples])
    return Transducer(nfa, [o for _, _, o, _ in triples], fout or {},
                      alph_in, alph_out)


t1 = seq(2, [0], [0, 1], [(0, "a", "a", 1), (0, "b", "b", 1),
                          (1, "a", "", 0), (1, "b", "", 0)])
t2 = seq(2, [0], [0, 1], [(0, "a", "", 1), (0, "b", "", 1),
                          (1, "a", "a", 0), (1, "b", "b", 0)])
t3 = seq(1, [0], [0], [(0, "a", "a", 0), (0, "b", "", 0)])

print("== T1 (odd positions) vs T2 (even positions) vs T3 (erase b) ==")
for w in ("abab", "babab", "bb"):
    print(f"  T1({w}) = {evaluate(t1, w)!r}   T2({w}) = {evaluate(t2, w)!r}"
          f"   T3({w}) = {evaluate(t3, w)!r}")

# Output lengths of T1 and T2 differ by at most one letter, but making the
# outputs equal letter-by-letter needs unboundedly many edits.
print("\n  d_len(T1, T2) =", distance(Metric.LENGTH, t1, t2))
print("  d_h(T1, T2)   =", distance(Metric.HAMMING, t1, t2))
print("  d_l(T1, T2)   =", distance(Metric.LEVENSHTEIN, t1, t2))
print("  d_len(T1, T3) =", distance(Metric.LENGTH, t1, t3))


def block(out0, out1):
    return seq(3, [0], [1, 2], [
        (0, "0", out0, 1), (0, "1", out1, 2),
        (1, "0", "", 1), (1, "1", out1, 2),
        (2, "1", "", 2), (2, "0", out0, 1),
    ], alph_in=B01, alph_out=B01)


t4 = block("0", "1")
t5 = block("1", "0")

print("\n== T4 (block compressor) vs T5 (complementing compressor) ==")
print(f"  T4(00110) = {evaluate(t4, '00110')!r}, T5(00110) = {evaluate(t5, '00110')!r}")
# complementary outputs: every position differs, but a deletion at the front
# and an insertion at the back realign them
print("  d_h(T4, T5) =", distance(Metric.HAMMING, t4, t5))
print("  d_l(T4, T5) =", distance(Metric.LEVENSHTEIN, t4, t5))
print("  2-close w.r.t. d_l:", kclose(Metric.LEVENSHTEIN, t4, t5, 2))
print("  1-close w.r.t. d_l:", kclose(Metric.LEVENSHTEIN, t4, t5, 1))
