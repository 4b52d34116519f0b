"""Words over finite alphabets, extended naturals and the word-distance kernels.

Words are plain Python strings of single-character symbols.  All distance
values live in N ∪ {∞}, represented by :class:`ExtendedNat` with a dedicated
infinity sentinel and saturating addition.

The Levenshtein, LCS and Damerau-Levenshtein distances have one recurrence
each, which appends rows to a prefix-distance table of a word pair
(d(u[:i], v[:j]) for every i and j, as plain ints).  `prefix_table` fills a
whole table with it and `word_distance` reads the corner; `extend_table`
grows the table of (u, v) into that of (u + x, v + y) for letters x and y,
appending y's column by the same recurrence read along a column.
The k-approximation reads the cost of every cut point of an output chunk
from one such table, grown from the table of its node's residuals.
"""

from __future__ import annotations

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


def _levenshtein_rows(t: list, u: str, v: str, i0: int) -> None:
    """Append the rows of u[i0:] to t, the table of (u[:i0], v).

    Wagner-Fischer: substitutions, insertions and deletions.
    """
    prev = t[-1]
    for i in range(i0 + 1, len(u) + 1):
        a = u[i - 1]
        cur = [i]
        for j, b in enumerate(v):
            cost = prev[j] + (a != b)
            if prev[j + 1] + 1 < cost:
                cost = prev[j + 1] + 1
            if cur[j] + 1 < cost:
                cost = cur[j] + 1
            cur.append(cost)
        t.append(cur)
        prev = cur


def _lcs_rows(t: list, u: str, v: str, i0: int) -> None:
    """Append the rows of u[i0:] to t, the table of (u[:i0], v).

    Insertion/deletion distance |u| + |v| - 2·|lcs(u, v)|, cell by cell.
    """
    prev = t[-1]
    for i in range(i0 + 1, len(u) + 1):
        a = u[i - 1]
        cur = [i]
        for j, b in enumerate(v):
            if a == b:
                cur.append(prev[j])
            else:
                cur.append(1 + (prev[j + 1] if prev[j + 1] < cur[j] else cur[j]))
        t.append(cur)
        prev = cur


def _damerau_rows(t: list, u: str, v: str, i0: int) -> None:
    """Append the rows of u[i0:] to t, the table of (u[:i0], v).

    Unrestricted Damerau-Levenshtein distance (Lowrance-Wagner): counts
    insertions, deletions, substitutions and adjacent transpositions, with
    edits allowed to touch previously edited regions; exact for unit costs.
    Cell (i, j) may pair v[j-1] with its last occurrence in u[:i-1] (row k)
    and u[i-1] with its last occurrence in v[:j-1] (column col) by one swap,
    deleting and inserting the letters between; it reads cell
    (k-1, col-1), so rows are appended to t in place.  With no such
    occurrence (k or col is 0) there is no swap.
    """
    last_row = {b: u.rfind(b, 0, i0) + 1 for b in set(v)}
    prev = t[-1]
    for i in range(i0 + 1, len(u) + 1):
        a = u[i - 1]
        cur = [i]
        last_col = 0
        for j, b in enumerate(v, start=1):
            k = last_row[b]
            col = last_col
            if a == b:
                cost = prev[j - 1]
                last_col = j
            else:
                cost = prev[j - 1] + 1
            if prev[j] + 1 < cost:
                cost = prev[j] + 1
            if cur[j - 1] + 1 < cost:
                cost = cur[j - 1] + 1
            if k and col:
                swap = t[k - 1][col - 1] + (i - k - 1) + 1 + (j - col - 1)
                if swap < cost:
                    cost = swap
            cur.append(cost)
        t.append(cur)
        prev = cur
        last_row[a] = i


def _levenshtein_column(t: list, u: str, v: str, y: str) -> list:
    """The table of (u, v + y), grown from t, the table of (u, v), by the
    recurrence of `_levenshtein_rows`."""
    prev = t[0] + [len(v) + 1]
    grown = [prev]
    for i in range(1, len(t)):
        row = t[i]
        cost = prev[-2] + (u[i - 1] != y)
        if prev[-1] + 1 < cost:
            cost = prev[-1] + 1
        if row[-1] + 1 < cost:
            cost = row[-1] + 1
        prev = row + [cost]
        grown.append(prev)
    return grown


def _lcs_column(t: list, u: str, v: str, y: str) -> list:
    """The table of (u, v + y), grown from t, the table of (u, v), by the
    recurrence of `_lcs_rows`."""
    prev = t[0] + [len(v) + 1]
    grown = [prev]
    for i in range(1, len(t)):
        row = t[i]
        if u[i - 1] == y:
            cost = prev[-2]
        else:
            cost = 1 + (prev[-1] if prev[-1] < row[-1] else row[-1])
        prev = row + [cost]
        grown.append(prev)
    return grown


def _damerau_column(t: list, u: str, v: str, y: str) -> list:
    """The table of (u, v + y), grown from t, the table of (u, v), by the
    recurrence of `_damerau_rows`.

    Cell (i, m + 1), m = |v|, may pair y with its last occurrence in
    u[:i-1] (row k) and u[i-1] with its last occurrence in v (column col) by
    one swap, reading cell (k-1, col-1) of t.
    """
    m = len(v)
    prev = t[0] + [m + 1]
    grown = [prev]
    k = 0
    for i in range(1, len(t)):
        row = t[i]
        a = u[i - 1]
        cost = prev[-2] + (a != y)
        if prev[-1] + 1 < cost:
            cost = prev[-1] + 1
        if row[-1] + 1 < cost:
            cost = row[-1] + 1
        if k:
            col = v.rfind(a) + 1
            if col:
                swap = t[k - 1][col - 1] + (i - k) + (m - col)
                if swap < cost:
                    cost = swap
        if a == y:
            k = i
        prev = row + [cost]
        grown.append(prev)
    return grown


def _length(u: str, v: str) -> ExtendedNat:
    return ExtendedNat(abs(len(u) - len(v)))


def _discrete(u: str, v: str) -> ExtendedNat:
    return ZERO if u == v else INF


_ROWS = {
    Metric.LEVENSHTEIN: _levenshtein_rows,
    Metric.LCS: _lcs_rows,
    Metric.DAMERAU_LEVENSHTEIN: _damerau_rows,
}
_COLUMNS = {
    Metric.LEVENSHTEIN: _levenshtein_column,
    Metric.LCS: _lcs_column,
    Metric.DAMERAU_LEVENSHTEIN: _damerau_column,
}


def _table_corner(metric):
    def kernel(u: str, v: str) -> ExtendedNat:
        return ExtendedNat(prefix_table(metric, u, v)[-1][-1])
    return kernel


_KERNELS = {
    Metric.HAMMING: _hamming,
    Metric.TRANSPOSITION: _transposition,
    Metric.CONJUGACY: _conjugacy,
    Metric.LENGTH: _length,
    Metric.DISCRETE: _discrete,
    **{metric: _table_corner(metric) for metric in _ROWS},
}


def prefix_table(metric: Metric, u: str, v: str) -> list[list[int]]:
    """Every prefix distance d(u[:i], v[:j]) of a Levenshtein-family metric
    as a plain int.

    Rows run over i, columns over j: the rows of u, one recurrence step per
    row, appended to the row of the empty prefix.
    """
    table = [list(range(len(v) + 1))]
    _ROWS[metric](table, u, v, 0)
    return table


def extend_table(metric: Metric, table: list[list[int]], u: str, v: str,
                 x: str, y: str) -> list[list[int]]:
    """The prefix table of (u + x, v + y), grown from `table`, that of (u, v).

    x and y have at most one letter each, and `table` is left as it is.
    The rows are copied with the cell of y's column appended, by the
    metric's recurrence read along a column, then one row for x is appended
    by the same recurrence as `prefix_table`.
    """
    table = _COLUMNS[metric](table, u, v, y) if y else table[:]
    if x:
        _ROWS[metric](table, u + x, v + y, len(u))
    return table


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
