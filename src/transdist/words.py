"""Words over finite alphabets, extended naturals and the word-distance kernels.

Words are plain Python strings of single-character symbols.  All distance
values live in N ∪ {∞}, represented by :class:`ExtendedNat` with a dedicated
infinity sentinel and saturating addition.  Every metric comes with an
independent brute-force oracle (`oracle_distance`) that searches the
configuration graph of the metric's edit operations.
"""

from __future__ import annotations

import functools
from collections import deque
from enum import Enum
from typing import Iterable

from .errors import InputError


class ExtendedNat:
    """A value in N ∪ {∞} with saturating addition and total order."""

    __slots__ = ("_v",)

    def __init__(self, value: int | None):
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"ExtendedNat needs an int or None, got {value!r}")
            if value < 0:
                raise InputError(f"ExtendedNat cannot be negative: {value}")
        self._v = value

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def is_finite(self) -> bool:
        return self._v is not None

    def value(self) -> int:
        """The finite value; raises on ∞."""
        if self._v is None:
            raise InputError("infinite ExtendedNat has no finite value")
        return self._v

    @staticmethod
    def _coerce(other) -> "ExtendedNat":
        if isinstance(other, ExtendedNat):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return ExtendedNat(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._v is None or o._v is None:
            return INF
        return ExtendedNat(self._v + o._v)

    __radd__ = __add__

    def __mul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        if self._v is None:
            return INF
        return ExtendedNat(self._v * scalar)

    __rmul__ = __mul__

    def _key(self):
        return (1, 0) if self._v is None else (0, self._v)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._key() == o._key()

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._key() < o._key()

    def __le__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._key() <= o._key()

    def __gt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._key() > o._key()

    def __ge__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._key() >= o._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ExtendedNat(inf)" if self._v is None else f"ExtendedNat({self._v})"

    def __str__(self):
        return "inf" if self._v is None else str(self._v)


INF = ExtendedNat(None)
ZERO = ExtendedNat(0)


class Metric(Enum):
    """The word metrics handled by this package; values are the CLI names."""

    HAMMING = "hamming"
    TRANSPOSITION = "transposition"
    CONJUGACY = "conjugacy"
    LEVENSHTEIN = "levenshtein"
    LCS = "lcs"
    DAMERAU_LEVENSHTEIN = "damerau"
    LENGTH = "length"
    DISCRETE = "discrete"

    def __str__(self):
        return self.value


_METRIC_ALIASES = {m.value: m for m in Metric}
_METRIC_ALIASES["damerau_levenshtein"] = Metric.DAMERAU_LEVENSHTEIN


def parse_metric(name: str) -> Metric:
    try:
        return _METRIC_ALIASES[name.lower()]
    except KeyError:
        raise InputError(f"unknown metric {name!r}; choose from "
                         + "|".join(m.value for m in Metric)) from None


EDIT_METRICS = frozenset({
    Metric.HAMMING, Metric.TRANSPOSITION, Metric.CONJUGACY,
    Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN,
})
LEVENSHTEIN_FAMILY = frozenset({Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN})


class Alphabet:
    """An ordered finite set of single-character symbols with dense ids."""

    __slots__ = ("letters", "index")

    def __init__(self, letters: Iterable[str]):
        seq = tuple(letters)
        if not all(isinstance(c, str) and len(c) == 1 for c in seq):
            raise InputError(f"alphabet symbols must be single characters: {seq!r}")
        if len(set(seq)) != len(seq):
            raise InputError(f"duplicate symbols in alphabet: {seq!r}")
        self.letters = seq
        self.index = {c: i for i, c in enumerate(seq)}

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, c):
        return c in self.index

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Alphabet({''.join(self.letters)!r})"

    def validate(self, word: str, what: str = "word") -> str:
        for c in word:
            if c not in self.index:
                raise InputError(f"{what} {word!r} uses {c!r} outside alphabet "
                                 f"{''.join(self.letters)!r}")
        return word


def alphabetic_vector(word: str, alphabet: Alphabet) -> tuple[int, ...]:
    """Occurrence counts of each alphabet letter, in alphabet order."""
    counts = [0] * len(alphabet)
    for c in word:
        counts[alphabet.index[c]] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# distance kernels
# ---------------------------------------------------------------------------

def _hamming(u: str, v: str) -> ExtendedNat:
    if len(u) != len(v):
        return INF
    return ExtendedNat(sum(1 for a, b in zip(u, v) if a != b))


def _count_inversions(seq: list[int]) -> int:
    """Number of inversions, by merge sort."""
    if len(seq) <= 1:
        return 0
    mid = len(seq) // 2
    left, right = seq[:mid], seq[mid:]
    inv = _count_inversions(left) + _count_inversions(right)
    merged, i, j = [], 0, 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inv += len(left) - i
            j += 1
    seq[:] = merged + left[i:] + right[j:]
    return inv


def _transposition(u: str, v: str) -> ExtendedNat:
    """Minimum number of adjacent swaps turning u into v.

    Pairs the i-th occurrence of each letter in u with the i-th occurrence in
    v (stable pairing) and counts inversions of the induced permutation; the
    stable pairing is optimal for the adjacent-swap distance.
    """
    if len(u) != len(v) or sorted(u) != sorted(v):
        return INF
    positions: dict[str, deque[int]] = {}
    for i, c in enumerate(v):
        positions.setdefault(c, deque()).append(i)
    targets = [positions[c].popleft() for c in u]
    return ExtendedNat(_count_inversions(targets))


def _conjugacy(u: str, v: str) -> ExtendedNat:
    """Minimum number of cyclic shifts (left or right) turning u into v.

    Mixing shift directions never beats a pure rotation, so the value is the
    minimum of min(k, n-k) over rotation offsets k with rot_left^k(u) = v.
    """
    n = len(u)
    if n != len(v):
        return INF
    if n == 0:
        return ZERO
    best = None
    for k in range(n):
        if u[k:] + u[:k] == v:
            cost = min(k, n - k)
            best = cost if best is None else min(best, cost)
    return INF if best is None else ExtendedNat(best)


def _levenshtein(u: str, v: str) -> ExtendedNat:
    if len(u) < len(v):
        u, v = v, u
    prev = list(range(len(v) + 1))
    for i, a in enumerate(u, start=1):
        cur = [i]
        for j, b in enumerate(v, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (a != b)))
        prev = cur
    return ExtendedNat(prev[-1])


def _lcs_distance(u: str, v: str) -> ExtendedNat:
    """Insertion/deletion distance: |u| + |v| - 2·|lcs(u, v)|."""
    if len(u) < len(v):
        u, v = v, u
    prev = [0] * (len(v) + 1)
    for a in u:
        cur = [0]
        for j, b in enumerate(v, start=1):
            cur.append(prev[j - 1] + 1 if a == b else max(prev[j], cur[-1]))
        prev = cur
    return ExtendedNat(len(u) + len(v) - 2 * prev[-1])


def _damerau_levenshtein(u: str, v: str) -> ExtendedNat:
    """Unrestricted Damerau-Levenshtein distance (Lowrance-Wagner).

    Counts insertions, deletions, substitutions and adjacent transpositions,
    with edits allowed to touch previously edited regions; exact for unit
    costs.
    """
    n, m = len(u), len(v)
    maxdist = n + m
    d = [[maxdist] * (m + 2) for _ in range(n + 2)]
    for i in range(n + 1):
        d[i + 1][1] = i
    for j in range(m + 1):
        d[1][j + 1] = j
    last_row: dict[str, int] = {}
    for i in range(1, n + 1):
        last_col = 0
        for j in range(1, m + 1):
            row = last_row.get(v[j - 1], 0)
            col = last_col
            if u[i - 1] == v[j - 1]:
                cost = 0
                last_col = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,                                  # subst / match
                d[i + 1][j] + 1,                                 # insert
                d[i][j + 1] + 1,                                 # delete
                d[row][col] + (i - row - 1) + 1 + (j - col - 1)  # transpose
            )
        last_row[u[i - 1]] = i
    return ExtendedNat(d[n + 1][m + 1])


def _length(u: str, v: str) -> ExtendedNat:
    return ExtendedNat(abs(len(u) - len(v)))


def _discrete(u: str, v: str) -> ExtendedNat:
    return ZERO if u == v else INF


_KERNELS = {
    Metric.HAMMING: _hamming,
    Metric.TRANSPOSITION: _transposition,
    Metric.CONJUGACY: _conjugacy,
    Metric.LEVENSHTEIN: _levenshtein,
    Metric.LCS: _lcs_distance,
    Metric.DAMERAU_LEVENSHTEIN: _damerau_levenshtein,
    Metric.LENGTH: _length,
    Metric.DISCRETE: _discrete,
}


def word_distance(metric: Metric, u: str, v: str,
                  alphabet: Alphabet | None = None) -> ExtendedNat:
    """Exact distance between two words under the given metric.

    Returns ∞ when no edit sequence exists (Hamming on unequal lengths,
    transposition on non-permutations, conjugacy on non-conjugates, ...).
    """
    if alphabet is not None:
        alphabet.validate(u, "left word")
        alphabet.validate(v, "right word")
    return _KERNELS[metric](u, v)


# ---------------------------------------------------------------------------
# brute-force oracle: BFS over the configuration graph of the edit operations
# ---------------------------------------------------------------------------

class OverBudget:
    """Oracle answer "distance exceeds the search budget"."""

    __slots__ = ("budget",)

    def __init__(self, budget: int):
        self.budget = budget

    def __eq__(self, other):
        return isinstance(other, OverBudget) and other.budget == self.budget

    def __repr__(self):
        return f"OverBudget(>{self.budget})"


def _successors(metric: Metric, w: str, letters: tuple[str, ...]) -> list[str]:
    out = []
    n = len(w)
    if metric in (Metric.HAMMING, Metric.LEVENSHTEIN, Metric.DAMERAU_LEVENSHTEIN):
        for i in range(n):
            for c in letters:
                if c != w[i]:
                    out.append(w[:i] + c + w[i + 1:])
    if metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
        for i in range(n):
            out.append(w[:i] + w[i + 1:])
        for i in range(n + 1):
            for c in letters:
                out.append(w[:i] + c + w[i:])
    if metric in (Metric.TRANSPOSITION, Metric.DAMERAU_LEVENSHTEIN):
        for i in range(n - 1):
            if w[i] != w[i + 1]:
                out.append(w[:i] + w[i + 1] + w[i] + w[i + 2:])
    if metric is Metric.CONJUGACY and n > 0:
        out.append(w[1:] + w[0])   # left shift
        out.append(w[-1] + w[:-1])  # right shift
    return out


def oracle_distance(metric: Metric, u: str, v: str, budget: int,
                    alphabet: Alphabet | None = None) -> ExtendedNat | OverBudget:
    """Breadth-first search over the metric's edit graph from u towards v.

    Returns the exact distance when it is at most `budget`; returns
    `OverBudget` when the search exhausts the budget first; returns ∞ when
    the reachable component is fully explored without meeting v.
    """
    if budget < 0:
        raise InputError("oracle budget must be nonnegative")
    if alphabet is None:
        alphabet = Alphabet(sorted(set(u) | set(v)))
    else:
        alphabet.validate(u, "left word")
        alphabet.validate(v, "right word")
    if metric is Metric.DISCRETE:
        return ZERO if u == v else INF
    if metric is Metric.LENGTH:
        # configuration graph on word lengths, steps of ±1
        frontier, target, visited = {len(u)}, len(v), {len(u)}
        for depth in range(budget + 1):
            if target in frontier:
                return ExtendedNat(depth)
            nxt = set()
            for k in frontier:
                for k2 in (k - 1, k + 1):
                    if k2 >= 0 and k2 not in visited:
                        visited.add(k2)
                        nxt.add(k2)
            frontier = nxt
        return OverBudget(budget)

    letters = alphabet.letters
    length_varies = metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN)
    visited = {u}
    frontier = [u]
    for depth in range(budget + 1):
        for w in frontier:
            if w == v:
                return ExtendedNat(depth)
        if depth == budget:
            break
        nxt = []
        remaining = budget - depth - 1
        for w in frontier:
            for w2 in _successors(metric, w, letters):
                if w2 in visited:
                    continue
                # each edit changes length by at most 1, so prune states that
                # cannot reach v's length within the remaining budget
                if length_varies and abs(len(w2) - len(v)) > remaining:
                    continue
                visited.add(w2)
                nxt.append(w2)
        if not nxt:
            return INF  # component exhausted without reaching v
        frontier = nxt
    return OverBudget(budget)


# Bulk oracle used by the exhaustive validation suites: one BFS per source
# word, distances to every word of length <= max_target_len.  Binary
# alphabets go through a scipy.sparse shortest-path over a precomputed edit
# graph; other alphabets fall back to plain BFS.

def _word_to_id(w: str, index: dict[str, int]) -> int:
    code = 1
    for c in w:
        code = (code << 1) | index[c]
    return code


@functools.lru_cache(maxsize=16)
def _binary_edit_graph(metric: Metric, letters: tuple[str, ...], max_len: int):
    """Sparse adjacency over all binary words of length <= max_len."""
    import numpy as np
    from scipy import sparse

    n_nodes = 1 << (max_len + 1)
    srcs, dsts = [], []

    def emit(a, b):
        srcs.append(a)
        dsts.append(b)

    for n in range(max_len + 1):
        base = 1 << n
        ids = np.arange(base, base << 1, dtype=np.int64)
        if metric in (Metric.HAMMING, Metric.LEVENSHTEIN, Metric.DAMERAU_LEVENSHTEIN):
            for i in range(n):
                emit(ids, ids ^ (1 << i))
        if metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN):
            for i in range(n):  # delete the letter i positions from the right
                high = (ids >> (i + 1)) << i
                low = ids & ((1 << i) - 1)
                emit(ids, high | low)
            if n < max_len:
                for i in range(n + 1):  # insert at i positions from the right
                    high = (ids >> i) << (i + 1)
                    low = ids & ((1 << i) - 1)
                    emit(ids, high | low)
                    emit(ids, high | (1 << i) | low)
        if metric in (Metric.TRANSPOSITION, Metric.DAMERAU_LEVENSHTEIN):
            for i in range(n - 1):
                bits = (ids >> i) ^ (ids >> (i + 1))
                swap = ids ^ (((bits & 1) << i) | ((bits & 1) << (i + 1)))
                emit(ids, swap)
        if metric is Metric.CONJUGACY and n > 0:
            top = (ids >> (n - 1)) & 1
            left = ((ids & ((1 << (n - 1)) - 1)) << 1) | top | (1 << n)
            emit(ids, left)
            bottom = ids & 1
            right = (1 << n) | ((ids & ((1 << n) - 1)) >> 1) | (bottom << (n - 1))
            emit(ids, right)

    if srcs:
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        keep = src != dst
        src, dst = src[keep], dst[keep]
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    data = np.ones(len(src), dtype=np.int8)
    return sparse.csr_matrix((data, (src, dst)), shape=(n_nodes, n_nodes))


def oracle_distances_from(metric: Metric, u: str, budget: int, alphabet: Alphabet,
                          max_target_len: int) -> dict[str, ExtendedNat | OverBudget]:
    """Oracle distances from u to every word of length <= max_target_len.

    Values are exact distances <= budget, OverBudget, or ∞ when the
    component was exhausted.
    """
    if metric in (Metric.DISCRETE, Metric.LENGTH):
        words = _all_words(alphabet, max_target_len)
        return {w: oracle_distance(metric, u, w, budget, alphabet) for w in words}

    if len(alphabet) == 2:
        return _oracle_map_binary(metric, u, budget, alphabet, max_target_len)
    return _oracle_map_bfs(metric, u, budget, alphabet, max_target_len)


def _all_words(alphabet: Alphabet, max_len: int) -> list[str]:
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in alphabet.letters]
        words.extend(frontier)
    return words


def _oracle_map_binary(metric, u, budget, alphabet, max_target_len):
    return oracle_distance_table(metric, [u], budget, alphabet,
                                 max_target_len)[u]


def oracle_distance_table(metric: Metric, sources: list[str], budget: int,
                          alphabet: Alphabet, max_target_len: int,
                          ) -> dict[str, dict[str, ExtendedNat | OverBudget]]:
    """Batched oracle over a binary alphabet: {source: {target: value}}.

    One shortest-path sweep per batch of sources over a shared edit graph.
    """
    import numpy as np
    from scipy.sparse.csgraph import dijkstra

    if len(alphabet) != 2:
        return {u: _oracle_map_bfs(metric, u, budget, alphabet, max_target_len)
                for u in sources}
    length_varies = metric in (Metric.LEVENSHTEIN, Metric.LCS,
                               Metric.DAMERAU_LEVENSHTEIN)
    graph_len = max([max_target_len] + [len(u) for u in sources]) \
        + (budget if length_varies else 0)
    graph = _binary_edit_graph(metric, alphabet.letters, graph_len)
    targets = _all_words(alphabet, max_target_len)
    target_ids = np.array([_word_to_id(w, alphabet.index) for w in targets])
    out: dict[str, dict[str, ExtendedNat | OverBudget]] = {}
    batch = 64
    for lo in range(0, len(sources), batch):
        chunk = sources[lo:lo + batch]
        ids = [_word_to_id(u, alphabet.index) for u in chunk]
        dist = dijkstra(graph, directed=True, indices=ids, unweighted=True,
                        limit=budget)
        for row, u in enumerate(chunk):
            d = dist[row]
            exhausted = bool(np.all(np.isinf(d) | (d < budget)))
            table: dict[str, ExtendedNat | OverBudget] = {}
            vals = d[target_ids]
            for w, val in zip(targets, vals):
                if np.isinf(val):
                    table[w] = INF if exhausted else OverBudget(budget)
                else:
                    table[w] = ExtendedNat(int(val))
            out[u] = table
    return out


def _oracle_map_bfs(metric, u, budget, alphabet, max_target_len):
    length_varies = metric in (Metric.LEVENSHTEIN, Metric.LCS, Metric.DAMERAU_LEVENSHTEIN)
    letters = alphabet.letters
    dist = {u: 0}
    frontier = [u]
    exhausted = False
    for depth in range(budget):
        nxt = []
        remaining = budget - depth - 1
        for w in frontier:
            for w2 in _successors(metric, w, letters):
                if w2 in dist:
                    continue
                if length_varies and len(w2) - max_target_len > remaining:
                    continue
                dist[w2] = depth + 1
                nxt.append(w2)
        if not nxt:
            exhausted = True
            break
        frontier = nxt
    result: dict[str, ExtendedNat | OverBudget] = {}
    for w in _all_words(alphabet, max_target_len):
        if w in dist:
            result[w] = ExtendedNat(dist[w])
        else:
            result[w] = INF if exhausted else OverBudget(budget)
    return result


# ---------------------------------------------------------------------------
# Metric-order report
# ---------------------------------------------------------------------------

_ORDER_CHECKS = (
    ("d_len <= d_h", Metric.LENGTH, 1, Metric.HAMMING, 1),
    ("d_len <= d_t", Metric.LENGTH, 1, Metric.TRANSPOSITION, 1),
    ("d_len <= d_c", Metric.LENGTH, 1, Metric.CONJUGACY, 1),
    ("d_len <= d_l", Metric.LENGTH, 1, Metric.LEVENSHTEIN, 1),
    ("d_len <= d_lcs", Metric.LENGTH, 1, Metric.LCS, 1),
    ("d_len <= d_dl", Metric.LENGTH, 1, Metric.DAMERAU_LEVENSHTEIN, 1),
    ("d_h <= d_inf", Metric.HAMMING, 1, Metric.DISCRETE, 1),
    ("d_t <= d_inf", Metric.TRANSPOSITION, 1, Metric.DISCRETE, 1),
    ("d_c <= d_inf", Metric.CONJUGACY, 1, Metric.DISCRETE, 1),
    ("d_l <= d_inf", Metric.LEVENSHTEIN, 1, Metric.DISCRETE, 1),
    ("d_lcs <= d_inf", Metric.LCS, 1, Metric.DISCRETE, 1),
    ("d_dl <= d_inf", Metric.DAMERAU_LEVENSHTEIN, 1, Metric.DISCRETE, 1),
    ("d_l <= d_lcs", Metric.LEVENSHTEIN, 1, Metric.LCS, 1),
    ("d_lcs <= 2*d_l", Metric.LCS, 1, Metric.LEVENSHTEIN, 2),
    ("d_dl <= d_l", Metric.DAMERAU_LEVENSHTEIN, 1, Metric.LEVENSHTEIN, 1),
    ("d_l <= 2*d_dl", Metric.LEVENSHTEIN, 1, Metric.DAMERAU_LEVENSHTEIN, 2),
    ("d_l <= d_h", Metric.LEVENSHTEIN, 1, Metric.HAMMING, 1),
    ("d_h <= 2*d_t", Metric.HAMMING, 1, Metric.TRANSPOSITION, 2),
    ("d_l <= 2*d_c", Metric.LEVENSHTEIN, 1, Metric.CONJUGACY, 2),
)


def metric_order_check(samples: Iterable[tuple[str, str]],
                       alphabet: Alphabet | None = None):
    """Check the metric-order inequalities on every sample pair.

    Returns None when all inequalities hold, otherwise a tuple
    (inequality name, (u, v), lhs, rhs) for the first violation.
    """
    for u, v in samples:
        values = {m: word_distance(m, u, v, alphabet) for m in Metric}
        for name, lhs_m, lhs_scale, rhs_m, rhs_scale in _ORDER_CHECKS:
            lhs = values[lhs_m] * lhs_scale
            rhs = values[rhs_m] * rhs_scale
            if not lhs <= rhs:
                return (name, (u, v), lhs, rhs)
    return None
