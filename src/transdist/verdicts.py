"""Closeness verdicts and the certificates that back them."""

from __future__ import annotations

from dataclasses import dataclass

from .words import ExtendedNat


@dataclass(frozen=True)
class DomainCertificate:
    """A word accepted by exactly one of the two domains."""
    word: str


@dataclass(frozen=True)
class InfiniteWordCertificate:
    """A single input whose two outputs are at infinite distance."""
    word: str
    outputs: tuple[str, str]


@dataclass(frozen=True)
class LoopCertificate:
    """Inputs prefix·loop^i·suffix whose output distance grows with i."""
    prefix: str
    loop: str
    suffix: str
    pumps: tuple[int, ...]

    def word(self, i: int) -> str:
        return self.prefix + self.loop * i + self.suffix


@dataclass(frozen=True)
class GrowthCertificate:
    """Explicit input words with strictly increasing output distance.

    No decider returns it any more (pumped loops are LoopCertificates); it
    stays for callers that still check for it.
    """
    words: tuple[str, ...]
    pumps: tuple[int, ...]


@dataclass(frozen=True)
class PairCertificate:
    """A generated output pair at infinite distance (relation level)."""
    pair: tuple[str, str]


Certificate = (DomainCertificate | InfiniteWordCertificate
               | LoopCertificate | GrowthCertificate | PairCertificate)


@dataclass(frozen=True)
class Close:
    bound: ExtendedNat | None = None

    def __bool__(self):
        return True


@dataclass(frozen=True)
class NotClose:
    certificate: Certificate | None = None

    def __bool__(self):
        return False


@dataclass(frozen=True)
class Unknown:
    reason: str
    cutoff: int | None = None
    detail: object = None

    def __bool__(self):
        raise TypeError("Unknown verdict must not be coerced to a boolean")


Verdict = Close | NotClose | Unknown
