"""Answer checking, run after the timed region.

Every answer is checked against what the inputs guarantee: a closed form
where the generator recorded one, brute-force input enumeration through
``evaluate`` and ``word_distance`` otherwise, replay of the certificate of
every NotClose, and diameter = index for bounded relations.  A wrong answer
raises ``WrongAnswer``; an undecided one is only counted.
"""

from __future__ import annotations

import itertools


class WrongAnswer(Exception):
    """The library returned a verdict or value that the check refutes."""


def nat(x):
    """An ExtendedNat as an int, or "inf"."""
    return x.value() if x.is_finite else "inf"


def summarize(td, res):
    """A hashable, comparable digest of one call's result."""
    if isinstance(res, td.Unknown):
        return ("unknown", res.reason)
    if isinstance(res, td.Close):
        return ("close", None if res.bound is None else nat(res.bound))
    if isinstance(res, td.NotClose):
        return ("notclose", repr(res.certificate))
    if isinstance(res, td.ExtendedNat):
        return ("nat", nat(res))
    raise WrongAnswer(f"unexpected result type {type(res).__name__}")


def decided(digest) -> bool:
    return digest[0] != "unknown"


def _le(a, b) -> bool:
    """a <= b on ints extended with "inf"."""
    return b == "inf" or (a != "inf" and a <= b)


class Checker:
    """Checks results; memoizes the brute-force tables it builds."""

    def __init__(self, td, max_len: int):
        self.td = td
        self.max_len = max_len
        self._dist: dict[tuple, object] = {}
        self._outputs: dict[int, list[tuple[str, str]]] = {}

    def word_distance(self, metric, u: str, v: str):
        key = (metric, u, v)
        if key not in self._dist:
            self._dist[key] = nat(self.td.word_distance(metric, u, v))
        return self._dist[key]

    def output_pairs(self, t1, t2) -> list[tuple[str, str]]:
        """(T1(w), T2(w)) for every input w up to max_len that T1 accepts."""
        key = (id(t1), id(t2))
        if key not in self._outputs:
            ev = self.td.evaluate
            letters = t1.input_alphabet.letters
            pairs = []
            for n in range(self.max_len + 1):
                for w in map("".join, itertools.product(letters, repeat=n)):
                    o1 = ev(t1, w)
                    if o1 is not None:
                        o2 = ev(t2, w)
                        if o2 is None:
                            raise WrongAnswer(f"domains differ on {w!r}")
                        pairs.append((o1, o2))
            self._outputs[key] = pairs
        return self._outputs[key]

    def enumerated_max(self, metric, t1, t2):
        best = 0
        for o1, o2 in self.output_pairs(t1, t2):
            d = self.word_distance(metric, o1, o2)
            if d == "inf":
                return d
            best = max(best, d)
        return best

    # -- certificates -------------------------------------------------------

    def certificate_holds(self, metric, cert, t1, t2) -> bool:
        """Replays a NotClose certificate on the two transducers."""
        td = self.td
        ev = td.evaluate

        def growing(words):
            values = [self.word_distance(metric, ev(t1, w), ev(t2, w))
                      for w in words]
            if values[-1] == "inf":
                return True
            return len(values) >= 2 and all(
                b != "inf" and b > a for a, b in zip(values, values[1:]))

        if cert is None:
            return False
        if isinstance(cert, td.DomainCertificate):
            return (ev(t1, cert.word) is None) != (ev(t2, cert.word) is None)
        if isinstance(cert, td.InfiniteWordCertificate):
            o1, o2 = ev(t1, cert.word), ev(t2, cert.word)
            return (o1 is not None and o2 is not None
                    and self.word_distance(metric, o1, o2) == "inf")
        if isinstance(cert, td.LoopCertificate):
            return growing([cert.word(i) for i in cert.pumps])
        if isinstance(cert, td.GrowthCertificate):
            return growing(list(cert.words))
        if isinstance(cert, td.PairCertificate):
            return self.word_distance(metric, *cert.pair) == "inf"
        return False

    # -- per-call checks ------------------------------------------------------

    def check_verdict(self, metric, res, t1, t2, upper=None):
        """A Close bound must cover the enumerated maximum (and ``upper``)."""
        td = self.td
        if isinstance(res, td.Unknown):
            return
        if isinstance(res, td.NotClose):
            if upper is not None:
                raise WrongAnswer(f"NotClose under {metric} for a pair at "
                                  f"distance at most {upper}")
            if not self.certificate_holds(metric, res.certificate, t1, t2):
                raise WrongAnswer(f"certificate {res.certificate!r} under "
                                  f"{metric} does not replay")
            return
        if not isinstance(res, td.Close):
            raise WrongAnswer(f"not a verdict: {res!r}")
        worst = self.enumerated_max(metric, t1, t2)
        if upper is not None and not _le(worst, upper):
            raise WrongAnswer(f"generator broke its closed form: enumerated "
                              f"{worst} > {upper} under {metric}")
        if res.bound is None:
            if worst == "inf":
                raise WrongAnswer(f"Close under {metric} but an input "
                                  f"reaches distance inf")
            return
        if not _le(worst, nat(res.bound)):
            raise WrongAnswer(f"Close bound {res.bound} under {metric} is "
                              f"below the enumerated {worst}")
