"""Desk-scale BB84 run driven end to end by the generator.

Alice's stream supplies interleaved (bit, basis) pairs: stream bit 2i is
photon i's bit, stream bit 2i+1 its basis (0 rectilinear, 1 diagonal).
Bob's stream supplies his n basis guesses first, then one result bit per
wrong-basis measurement in photon order; an intercept-resend eavesdropper
consumes her own stream the same way.  The channel is noiseless, so with no
adversary the error rate over sifted positions is exactly zero.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IdenticalSeeds, check_int
from .sampling import EntropyInput
from .stream import Generator

ADVERSARIES = (None, "intercept_resend")


@dataclass
class QkdSession:
    n_photons: int
    adversary: Optional[str]
    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    bob_results: np.ndarray

    @property
    def sifted_alice(self) -> np.ndarray:
        return self.alice_bits[self.alice_bases == self.bob_bases]

    @property
    def sifted_bob(self) -> np.ndarray:
        return self.bob_results[self.alice_bases == self.bob_bases]

    @property
    def qber(self) -> float:
        """The error rate over the sifted positions; 0.0 when none are sifted."""
        errors = self.sifted_alice != self.sifted_bob
        return float(errors.mean()) if errors.size else 0.0

    @property
    def sift_fraction(self) -> float:
        return self.sifted_alice.size / self.n_photons

    def _fields(self) -> dict:
        return dict(photons=self.n_photons, adversary=self.adversary or "none",
                    sifted=int(self.sifted_alice.size), sift_fraction=self.sift_fraction,
                    qber=self.qber)

    def summary(self) -> str:
        return " ".join(f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in self._fields().items())

    def to_json(self) -> str:
        """The summary line's fields as one strict JSON object."""
        return json.dumps(self._fields(), allow_nan=False)

    def csv_row(self) -> str:
        return (
            f"{self.n_photons},{self.sift_fraction:.6f},"
            f"{self.qber:.6f},{self.adversary or 'none'}"
        )


def _draw_bits(gen: Generator, count: int) -> np.ndarray:
    data = gen.next_bytes((count + 7) // 8)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")[:count]


def _measure(gen: Generator, bases, sent_bits, sent_bases) -> np.ndarray:
    """Measure each sent photon in `bases`: the sent bit where the bases
    match, else a fresh bit from the measurer's own stream, in photon order."""
    results = sent_bits.copy()
    wrong = bases != sent_bases
    results[wrong] = _draw_bits(gen, int(wrong.sum()))
    return results


def run_session(
    ent_alice: EntropyInput,
    ent_bob: EntropyInput,
    n_photons: int,
    adversary: Optional[str] = None,
    ent_eve: Optional[EntropyInput] = None,
) -> QkdSession:
    """One full session: preparation, channel, measurement, sifting, QBER.

    Matching-basis measurements read the incoming bit exactly; a
    wrong-basis measurement yields a fresh bit from the measurer's own
    generator.  The session is a pure function of the entropy inputs.
    n_photons must be an int >= 1 (a bool is not one) and no two parties
    may share an entropy input.
    """
    check_int("n_photons", n_photons, 1)
    if adversary not in ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}")
    if ent_alice == ent_bob:
        raise IdenticalSeeds("Alice and Bob must seed independent generators")
    if adversary == "intercept_resend" and ent_eve is None:
        raise ValueError("intercept_resend needs its own entropy input")
    # an eavesdropper seeded as Bob measures in Bob's bases: it never
    # disturbs a sifted photon and the QBER reads 0
    if adversary and ent_eve in (ent_alice, ent_bob):
        raise IdenticalSeeds("the eavesdropper must seed its own generator")

    pairs = _draw_bits(Generator(ent_alice), 2 * n_photons)
    alice_bits = pairs[0::2]
    alice_bases = pairs[1::2]

    gen_bob = Generator(ent_bob)
    bob_bases = _draw_bits(gen_bob, n_photons)

    sent_bits, sent_bases = alice_bits, alice_bases
    if adversary == "intercept_resend":
        gen_eve = Generator(ent_eve)
        sent_bases = _draw_bits(gen_eve, n_photons)  # Eve's bases
        sent_bits = _measure(gen_eve, sent_bases, alice_bits, alice_bases)

    bob_results = _measure(gen_bob, bob_bases, sent_bits, sent_bases)
    return QkdSession(n_photons, adversary, alice_bits, alice_bases, bob_bases, bob_results)
