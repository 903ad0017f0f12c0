import numpy as np
import pytest

from lwerng.errors import IdenticalSeeds
from lwerng.lwe_hiding import distinguishing_experiment
from lwerng.qkd import QkdSession, run_session
from lwerng.stream import Generator

from conftest import fixed_ent

ALICE = fixed_ent(1)
BOB = fixed_ent(2)
EVE = fixed_ent(3)


def test_identical_seeds_rejected():
    with pytest.raises(IdenticalSeeds):
        run_session(ALICE, ALICE, 100)


@pytest.mark.parametrize("shared", [ALICE, BOB], ids=["alice", "bob"])
def test_eavesdropper_sharing_a_seed_rejected(shared):
    # with Bob's seed Eve's bases are Bob's, so a sifted photon always reaches
    # Bob in Alice's basis with Alice's bit and the QBER reads 0
    with pytest.raises(IdenticalSeeds):
        run_session(ALICE, BOB, 1000, adversary="intercept_resend", ent_eve=shared)


@pytest.mark.parametrize("call", [
    lambda: run_session(ALICE, BOB, True),
    lambda: run_session(ALICE, BOB, 10.5),
    lambda: distinguishing_experiment(True),
    lambda: distinguishing_experiment(1000.5),
    lambda: distinguishing_experiment(1000, seed=True),
    lambda: distinguishing_experiment(1000, seed=1.5),
], ids=["photons_bool", "photons_float", "trials_bool", "trials_float",
        "seed_bool", "seed_float"])
def test_bool_and_non_int_counts_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_adversary_needs_own_entropy():
    with pytest.raises(ValueError):
        run_session(ALICE, BOB, 100, adversary="intercept_resend")
    with pytest.raises(ValueError):
        run_session(ALICE, BOB, 100, adversary="mitm")
    with pytest.raises(ValueError):
        run_session(ALICE, BOB, 0)


def test_noiseless_session_qber_zero():
    session = run_session(ALICE, BOB, 100_000)
    assert session.qber == 0.0
    assert np.array_equal(session.sifted_alice, session.sifted_bob)
    assert 0.47 <= session.sift_fraction <= 0.53


def test_sift_positions_are_matching_bases():
    session = run_session(ALICE, BOB, 10_000)
    matches = int((session.alice_bases == session.bob_bases).sum())
    assert session.sifted_alice.size == matches


def test_intercept_resend_qber():
    session = run_session(ALICE, BOB, 200_000, adversary="intercept_resend", ent_eve=EVE)
    assert abs(session.qber - 0.25) < 0.01
    assert not np.array_equal(session.sifted_alice, session.sifted_bob)


def test_single_photon_forced_equal_bases():
    # Bob seeds are tried in a fixed order until one draws Alice's basis
    # and one draws the other basis; both single-photon outcomes occur
    sessions = {}
    for tag in range(100, 140):
        session = run_session(ALICE, fixed_ent(tag), 1)
        sessions.setdefault(int(session.sifted_alice.size), session)
        if len(sessions) == 2:
            break
    equal, unequal = sessions[1], sessions[0]
    assert equal.bob_bases[0] == equal.alice_bases[0]
    assert equal.bob_results[0] == equal.alice_bits[0]
    assert equal.qber == 0.0
    assert unequal.bob_bases[0] != unequal.alice_bases[0]
    assert unequal.qber == 0.0


def test_session_deterministic():
    a = run_session(ALICE, BOB, 5000, adversary="intercept_resend", ent_eve=EVE)
    b = run_session(ALICE, BOB, 5000, adversary="intercept_resend", ent_eve=EVE)
    assert np.array_equal(a.bob_results, b.bob_results)
    assert a.qber == b.qber


def test_sift_fraction_concentration():
    for n in (10_000, 40_000):
        session = run_session(ALICE, BOB, n)
        assert abs(session.sift_fraction - 0.5) <= 4 * (0.25 / n) ** 0.5


def test_summary_and_csv():
    session = run_session(ALICE, BOB, 1000)
    assert "sift_fraction=" in session.summary()
    assert "qber=" in session.summary()
    row = session.csv_row()
    fields = row.split(",")
    assert fields[0] == "1000" and fields[3] == "none"
    eve_session = run_session(ALICE, BOB, 1000, adversary="intercept_resend", ent_eve=EVE)
    assert eve_session.csv_row().endswith("intercept_resend")


def test_wrong_basis_results_from_bob_generator():
    # Bob's stream holds his n bases, then one result bit per wrong-basis
    # photon in photon order; matching-basis photons read Alice's bit
    n = 50_000  # a whole number of bytes, so the result bits start at bit n
    session = run_session(ALICE, BOB, n)
    wrong = session.bob_bases != session.alice_bases
    stream = np.unpackbits(
        np.frombuffer(Generator(BOB).next_bytes(2 * n // 8), dtype=np.uint8),
        bitorder="little",
    )
    assert np.array_equal(session.bob_bases, stream[:n])
    assert np.array_equal(session.bob_results[wrong], stream[n : n + wrong.sum()])
    assert np.array_equal(session.bob_results[~wrong], session.alice_bits[~wrong])
