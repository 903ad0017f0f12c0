"""The integer-argument rule (`errors.check_int`) at every public entry point
that takes a count, size, seed or register value.

A bool, a float, a string or a negative value raises ValueError (`Params`
its documented classes) before any side effect: an entry point that holds
state leaves the bank, the generator's counters and the sink as they were.
The message starts `name=value`, with a placeholder for an int too wide to
format.
The same holds for a parameter set that is neither a `Params` nor None, and
for an entropy input that is not an `EntropyInput`.
"""

import dataclasses
import re

import pytest

from lwerng.errors import InconsistentLayout, InvalidModulus
from lwerng.lfsr import LfsrBank
from lwerng.lwe_hiding import distinguishing_experiment, hide
from lwerng.params import Params
from lwerng.qkd import run_session
from lwerng.sampling import EntropyInput, derive_reseed_entropy
from lwerng.stats import dump_raw, run_battery, scatter_indexes
from lwerng.stream import Generator

ENT = EntropyInput(bytes(32))
OTHER = EntropyInput(bytes(range(32)))


def _raises(error, call):
    """A case for an entry point that holds no state."""
    def case(value, tmp_path, start):
        with pytest.raises(error, match=start):
            call(value)
    return case


def _bank_field(field):
    """LfsrBank built from a generator's bank state with one field replaced."""
    def case(value, tmp_path, start):
        bank = Generator(ENT).bank
        before = bank.state()
        if field == "regs":
            bad = dataclasses.replace(before, regs=(value, *before.regs[1:]))
        else:
            bad = dataclasses.replace(before, **{field: value})
        with pytest.raises(ValueError, match=start):
            LfsrBank(bank.params, bad)
        assert bank.state() == before
    return case


def _emit_bits(value, tmp_path, start):
    bank = Generator(ENT).bank
    bank.emit_bits(5)  # leave pending bits in the state compared
    before = bank.state()
    with pytest.raises(ValueError, match=start):
        bank.emit_bits(value)
    assert bank.state() == before


def _next_bytes(value, tmp_path, start):
    gen = Generator(ENT, reseed_interval=1024)
    gen.next_bytes(200)  # one reseed in, mid-epoch
    before = gen.bank.state(), gen.generation, gen.bits_emitted
    with pytest.raises(ValueError, match=start):
        gen.next_bytes(value)
    assert (gen.bank.state(), gen.generation, gen.bits_emitted) == before


def _dump_raw(value, tmp_path, start):
    path = tmp_path / "kept.bin"
    path.write_bytes(b"7 bytes")
    gen = Generator(ENT)
    before = gen.bank.state()
    with pytest.raises(ValueError, match=start):
        dump_raw(gen, value, str(path))
    assert path.read_bytes() == b"7 bytes" and gen.bank.state() == before


# the name a message starts with, where it is not the entry's suffix
MESSAGE_NAMES = {"LfsrBank.regs": "L1", "LfsrBank.emit_bits": "nbits",
                 "Generator.next_bytes": "nbytes", "distinguishing_experiment.p": "params"}


def _start(entry, value):
    """A regex for the message's start: the argument's name, then its value."""
    name = MESSAGE_NAMES.get(entry, entry.rsplit(".", 1)[1])
    shown = f"<{value.bit_length()}-bit int>" if isinstance(value, int) and value.bit_length() > 64 \
        else repr(value)
    return "^" + re.escape(f"{name}={shown} ")


ENTRY_POINTS = {
    "Params.q": _raises(InvalidModulus, lambda v: Params(q=v)),
    "Params.degree": _raises(InvalidModulus, lambda v: Params(degree=v)),
    "Params.n": _raises(InconsistentLayout, lambda v: Params(n=v)),
    "Params.eta": _raises(InconsistentLayout, lambda v: Params(eta=v)),
    "Generator.reseed_interval": _raises(
        ValueError, lambda v: Generator(ENT, reseed_interval=v)),
    "distinguishing_experiment.trials": _raises(
        ValueError, lambda v: distinguishing_experiment(v)),
    # numpy's default_rng rejects a negative seed too, without naming it
    "distinguishing_experiment.seed": _raises(
        ValueError, lambda v: distinguishing_experiment(1000, seed=v)),
    "run_session.n_photons": _raises(ValueError, lambda v: run_session(ENT, OTHER, v)),
    "run_battery.nbits": _raises(ValueError, lambda v: run_battery(bytes(1 << 18), v)),
    "scatter_indexes.count": _raises(ValueError, lambda v: scatter_indexes(bytes(64), v)),
    "LfsrBank.regs": _bank_field("regs"),
    "LfsrBank.mask": _bank_field("mask"),
    "LfsrBank.coeff_cursor": _bank_field("coeff_cursor"),
    "LfsrBank.mask_cursor": _bank_field("mask_cursor"),
    "LfsrBank.emit_bits": _emit_bits,
    "Generator.next_bytes": _next_bytes,
    "dump_raw.nbytes": _dump_raw,
    "Generator.params": _raises(ValueError, lambda v: Generator(ENT, v)),
    "distinguishing_experiment.p": _raises(
        ValueError, lambda v: distinguishing_experiment(1000, v)),
}


@pytest.mark.parametrize("value", [True, 2.5, "8"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_int_argument_rejected_before_any_side_effect(entry, value, tmp_path):
    ENTRY_POINTS[entry](value, tmp_path, _start(entry, value))


@pytest.mark.parametrize("value", [-1, -(2**20000)], ids=["minus_one", "huge"])
@pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if e not in (
    "distinguishing_experiment.trials", "run_battery.nbits")])
def test_negative_argument_rejected_before_any_side_effect(entry, value, tmp_path):
    # -1 is below every lower bound, the experiment seed's 0 included; too
    # few trials or battery bits raise their own classes instead.  -(2^20000)
    # has too many digits for str(), so its message shows its width instead
    ENTRY_POINTS[entry](value, tmp_path, _start(entry, value))


@pytest.mark.parametrize("value", [0, 5, "default"], ids=["zero", "five", "str"])
@pytest.mark.parametrize("entry", ["Generator.params", "distinguishing_experiment.p"])
def test_params_is_a_params_or_none(entry, value, tmp_path):
    # a falsy non-Params does not fall back to the default set, and a truthy
    # one fails as ValueError, not as an AttributeError deep in the call
    ENTRY_POINTS[entry](value, tmp_path, _start(entry, value))


# the entropy-input rule, checked where an entropy input is read
# (`sampling._xof`): anything but an EntropyInput, its raw bytes included,
# raises ValueError
ENTROPY_ENTRY_POINTS = {
    "Generator": lambda v: Generator(v),
    "hide": lambda v: hide(v, Params()),
    "run_session": lambda v: run_session(v, OTHER, 8),
    "derive_reseed_entropy": lambda v: derive_reseed_entropy(v, 1),
}


@pytest.mark.parametrize("value", [bytes(32), bytearray(32), "00" * 32],
                         ids=["bytes", "bytearray", "hex"])
@pytest.mark.parametrize("entry", ENTROPY_ENTRY_POINTS)
def test_entropy_input_must_be_an_entropy_input(entry, value):
    with pytest.raises(ValueError):
        ENTROPY_ENTRY_POINTS[entry](value)


def test_params_none_is_the_default_set():
    assert Generator(ENT, None).next_bytes(16) == Generator(ENT, Params()).next_bytes(16)
