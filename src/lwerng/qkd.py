"""Desk-scale BB84 run driven end to end by the generator.

Alice's stream supplies interleaved (bit, basis) pairs: stream bit 2i is
photon i's bit, stream bit 2i+1 its basis (0 rectilinear, 1 diagonal).
Bob's stream supplies his n basis guesses first, then one result bit per
wrong-basis measurement in photon order; an intercept-resend eavesdropper
consumes her own stream the same way.  The channel is noiseless, so with no
adversary the error rate over sifted positions is exactly zero.
"""

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import IdenticalSeeds
from .params import Params
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
    sifted_alice: np.ndarray = field(repr=False, default=None)
    sifted_bob: np.ndarray = field(repr=False, default=None)
    qber: float = 0.0

    @property
    def sift_fraction(self) -> float:
        return self.sifted_alice.size / self.n_photons

    def summary(self) -> str:
        return (
            f"photons={self.n_photons} adversary={self.adversary or 'none'} "
            f"sifted={self.sifted_alice.size} "
            f"sift_fraction={self.sift_fraction:.6f} qber={self.qber:.6f}"
        )

    def to_json(self) -> str:
        """The summary line's fields as one strict JSON object."""
        return json.dumps({"photons": self.n_photons,
                           "adversary": self.adversary or "none",
                           "sifted": int(self.sifted_alice.size),
                           "sift_fraction": self.sift_fraction,
                           "qber": self.qber}, allow_nan=False)

    def csv_row(self) -> str:
        return (
            f"{self.n_photons},{self.sift_fraction:.6f},"
            f"{self.qber:.6f},{self.adversary or 'none'}"
        )


def _draw_bits(gen: Generator, count: int) -> np.ndarray:
    data = gen.next_bytes((count + 7) // 8)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")[:count]


def run_session(
    ent_alice: EntropyInput,
    ent_bob: EntropyInput,
    n_photons: int,
    adversary: Optional[str] = None,
    ent_eve: Optional[EntropyInput] = None,
    params: Params = None,
) -> QkdSession:
    """One full session: preparation, channel, measurement, sifting, QBER.

    Matching-basis measurements read the incoming bit exactly; a
    wrong-basis measurement yields a fresh bit from the measurer's own
    generator.  The session is a pure function of the entropy inputs.
    """
    if n_photons < 1:
        raise ValueError("n_photons must be >= 1")
    if adversary not in ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}")
    if ent_alice == ent_bob:
        raise IdenticalSeeds("Alice and Bob must seed independent generators")
    if adversary == "intercept_resend" and ent_eve is None:
        raise ValueError("intercept_resend needs its own entropy input")

    gen_alice = Generator(ent_alice, params)
    gen_bob = Generator(ent_bob, params)

    pairs = _draw_bits(gen_alice, 2 * n_photons)
    alice_bits = pairs[0::2]
    alice_bases = pairs[1::2]

    bob_bases = _draw_bits(gen_bob, n_photons)

    if adversary == "intercept_resend":
        gen_eve = Generator(ent_eve, params)
        eve_bases = _draw_bits(gen_eve, n_photons)
        eve_results = alice_bits.copy()
        wrong = eve_bases != alice_bases
        eve_results[wrong] = _draw_bits(gen_eve, int(wrong.sum()))
        sent_bits, sent_bases = eve_results, eve_bases
    else:
        sent_bits, sent_bases = alice_bits, alice_bases

    bob_results = sent_bits.copy()
    wrong = bob_bases != sent_bases
    bob_results[wrong] = _draw_bits(gen_bob, int(wrong.sum()))

    sift = alice_bases == bob_bases
    sifted_alice = alice_bits[sift]
    sifted_bob = bob_results[sift]
    qber = float((sifted_alice != sifted_bob).mean()) if sifted_alice.size else 0.0

    return QkdSession(
        n_photons=n_photons,
        adversary=adversary,
        alice_bits=alice_bits,
        alice_bases=alice_bases,
        bob_bases=bob_bases,
        bob_results=bob_results,
        sifted_alice=sifted_alice,
        sifted_bob=sifted_bob,
        qber=qber,
    )
