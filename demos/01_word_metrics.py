"""Word metrics and their brute-force oracle.

Seven integer-valued distances on words, each with its own edit operations:
substitutions (Hamming), adjacent swaps (transposition), cyclic shifts
(conjugacy), the Levenshtein family, the length pseudo-metric, and the
discrete metric.
"""

from transdist import Alphabet, Metric, word_distance
from transdist.oracles import metric_order_check, oracle_distance

AB = Alphabet("01")

print("== the same pair under different metrics ==")
for m in Metric:
    print(f"  d_{m}(1001, 0101) = {word_distance(m, '1001', '0101', AB)}")

# The metrics are genuinely incomparable: rotations are cheap for the
# conjugacy distance but expensive position-wise, and vice versa.
print("\n== incomparability families ==")
for k in (1, 2, 3, 4):
    u, v = "01" * k, "10" * k
    print(f"  d_c({u},{v}) = {word_distance(Metric.CONJUGACY, u, v)},"
          f"  d_h = {word_distance(Metric.HAMMING, u, v)}")
for k in (2, 3, 4):
    u, v = "1" + "0" * k + "1", "01" + "0" * (k - 1) + "1"
    print(f"  d_t({u},{v}) = {word_distance(Metric.TRANSPOSITION, u, v)},"
          f"  d_h = {word_distance(Metric.HAMMING, u, v)},"
          f"  d_c = {word_distance(Metric.CONJUGACY, u, v)}")

# Each kernel is validated against breadth-first search over its edit graph.
print("\n== BFS oracle spot checks ==")
print("  oracle d_c(aaab, aaba) =", oracle_distance(Metric.CONJUGACY,
                                                    "aaab", "aaba", 4))
print("  oracle d_l(0110, 1001) =", oracle_distance(Metric.LEVENSHTEIN,
                                                    "0110", "1001", 6, AB))

# And the order relations between the metrics hold on every sample.
words = ["", "0", "1", "01", "10", "0011", "0101", "111000"]
pairs = [(u, v) for u in words for v in words]
print("\n== metric order check on", len(pairs), "pairs ==")
print("  violations:", metric_order_check(pairs, AB))
