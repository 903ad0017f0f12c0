"""The lwerng calls the benchmark harness under perfbench/ makes, with the same
argument shapes, so a change that breaks the harness fails here first.

The harness's workloads, its layer probe and its recorder of expected outputs
call only what is exercised below.  Its tracer wraps the functions named in
TRACED and skips a missing one without a word, which would read as a layer
that costs nothing.
"""

import importlib
import sys

import lwerng

TRACED = [
    ("sampling", "expand_matrix"), ("sampling", "sample_secret"),
    ("sampling", "sample_error"), ("sampling", "seed_payload"),
    ("sampling", "derive_reseed_entropy"), ("polyring", "mat_vec_mul"),
    ("polyring", "ntt"), ("polyring", "inv_ntt"), ("lwe_hiding", "hide"),
    ("lwe_hiding", "distinguishing_experiment"), ("lfsr", "initialize"),
    ("stats", "run_battery"),
]


def test_traced_functions_exist():
    for module, name in TRACED:
        assert callable(getattr(importlib.import_module(f"lwerng.{module}"), name)), name
    assert "emit_bits" in vars(lwerng.LfsrBank)
    assert "next_bytes" in vars(lwerng.Generator)


HIDE_LAYERS = [
    ("sampling", "expand_matrix"), ("sampling", "sample_secret"),
    ("sampling", "sample_error"), ("sampling", "seed_payload"),
    ("polyring", "mat_vec_mul"), ("polyring", "ntt"), ("polyring", "inv_ntt"),
]


def test_hide_reaches_the_traced_ring_and_matrix(monkeypatch):
    # wrapped as the tracer wraps them, in every lwerng module that binds
    # them: a hide that went round one would leave its span or count at 0
    reached = set()
    modules = [m for k, m in sys.modules.items() if k == "lwerng" or k.startswith("lwerng.")]
    for module, name in HIDE_LAYERS:
        orig = getattr(importlib.import_module(f"lwerng.{module}"), name)

        def wrapped(*args, _orig=orig, _name=name, **kwargs):
            reached.add(_name)
            return _orig(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, wrapped)
    lwerng.hide(lwerng.EntropyInput(bytes(32)), lwerng.default_params())
    assert reached == {name for _, name in HIDE_LAYERS}


def test_step_probe_from_injected_state():
    # the probe copies an initialized bank, cursors included, positionally
    # and times step() on the copy
    p = lwerng.default_params()
    ent = lwerng.EntropyInput(bytes(range(32)))
    bank = lwerng.initialize(lwerng.hide(ent, p))
    bank.emit_bits(100)
    assert bank.coeff_cursor and bank.mask_cursor
    copies = [lwerng.LfsrBank.from_state(bank.params, bank.regs, bank.mask,
                                         bank.coeff_cursor, bank.mask_cursor)
              for _ in range(2)]
    steps = []
    for copy in copies:
        out = []
        for _ in range(16):
            w = copy.regs[3] >> (32 * copy.coeff_cursor) & 0xFFFFFFFF
            value, nbits = copy.step()
            assert nbits == 3 * sum(k + 1 for k in range(32) if w >> k & 1) + w.bit_count()
            assert 0 <= value < 1 << nbits
            out.append((value, nbits))
        steps.append(out)
    assert steps[0] == steps[1]
    assert isinstance(lwerng.sampling.derive_reseed_entropy(ent, 1), lwerng.EntropyInput)


def test_workload_calls():
    p = lwerng.default_params()
    ent = lwerng.EntropyInput(bytes(32))
    gen = lwerng.Generator(ent, p, lwerng.DEFAULT_RESEED_INTERVAL)
    assert len(gen.next_bytes(4096)) == 4096 and gen.generation >= 0
    assert len(lwerng.Generator(ent, p).next_bytes(32)) == 32
    buf = lwerng.Generator(ent, p, 0).next_bytes(1 << 17)
    assert all(0 <= t.p_value <= 1 for t in lwerng.run_battery(buf, 8 * len(buf)))
    report = lwerng.distinguishing_experiment(1000, p, mode="hiding_vs_uniform", seed=3)
    assert report.trials == 1000 and report.results
    for r in report.results:
        assert round(r.hit_rate_a * report.trials) == r.hits_a
        assert round(r.hit_rate_b * report.trials) == r.hits_b
