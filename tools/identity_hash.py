"""Print one SHA-256 over outputs that a bit-identical change must keep.

Usage: python tools/identity_hash.py

It imports lwerng from the `src/` next to this file and hashes, in order:

1. the `to_json()` of `distinguishing_experiment(trials, p, mode=m, seed=s)`
   for p in (default, eta = 2, q = 257 / n = 2 / degree = 64), m in `MODES`
   order and (s, trials) in ((0, 1000), (7, 5000));
2. `repr(hide(ent, default_params()).b.tolist())` for the 200 entropies
   SHAKE-256(t as 2 big-endian bytes), t = 0..199: the values of b as a
   list of ints, whatever container `HiddenSeed` holds them in;
3. `ntt(x).tobytes()` and `inv_ntt(x).tobytes()` of 37 random rows in
   (-q, q) at the default ring and at q = 257 / n = 2 / degree = 64, drawn
   in that order from one `default_rng(9)`;
4. 256 KiB of stream from `Generator(bytes([t + 1]) * 32)`, t = 0..3;
5. for reseed interval 0 and then 1001 bits, one `Generator(bytes([9]) * 32)`
   read in pieces of 1, 7, 4099 and 65536 bytes, that cycle three times, so
   the reads end mid-step and, at 1001, cross reseeds in mid-byte;
6. `run_session` at 4099 photons with no adversary and then with
   `intercept_resend`, Alice, Bob and Eve seeded with SHAKE-256 of b"alice",
   b"bob" and b"eve": the bytes of the session's four bit arrays, in field
   order;
7. `scatter_indexes(Generator(SHAKE-256(b"scatter")), 10001)` as bytes.

The counts in 6 and 7 end mid-byte.  Two trees that print the same digest
produce the same experiment hit counts, concealed seeds, transforms, stream
bytes, BB84 sessions and scatter indexes on these inputs.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lwerng import Generator  # noqa: E402
from lwerng.lwe_hiding import MODES, distinguishing_experiment, hide  # noqa: E402
from lwerng.params import Params, default_params  # noqa: E402
from lwerng.polyring import inv_ntt, ntt  # noqa: E402
from lwerng.qkd import ADVERSARIES, run_session  # noqa: E402
from lwerng.sampling import EntropyInput  # noqa: E402
from lwerng.stats import scatter_indexes  # noqa: E402


def _ent(label: bytes) -> EntropyInput:
    return EntropyInput(hashlib.shake_256(label).digest(32))


def main() -> None:
    h = hashlib.sha256()
    small = Params(q=257, n=2, degree=64)
    for p in (default_params(), Params(eta=2), small):
        for mode in MODES:
            for seed, trials in ((0, 1000), (7, 5000)):
                report = distinguishing_experiment(trials, p, mode=mode, seed=seed)
                h.update(report.to_json().encode())
    for t in range(200):
        ent = EntropyInput(hashlib.shake_256(t.to_bytes(2, "big")).digest(32))
        h.update(repr(hide(ent, default_params()).b.tolist()).encode())
    rng = np.random.default_rng(9)
    for p in (default_params(), small):
        x = rng.integers(-(p.q - 1), p.q, size=(37, p.degree))
        h.update(ntt(x, p).tobytes())
        h.update(inv_ntt(x, p).tobytes())
    for t in range(4):
        h.update(Generator(EntropyInput(bytes([t + 1]) * 32)).next_bytes(262144))
    for interval in (0, 1001):
        gen = Generator(EntropyInput(bytes([9]) * 32), reseed_interval=interval)
        for size in (1, 7, 4099, 65536) * 3:
            h.update(gen.next_bytes(size))
    for adversary in ADVERSARIES:
        s = run_session(_ent(b"alice"), _ent(b"bob"), 4099, adversary, _ent(b"eve"))
        for bits in (s.alice_bits, s.alice_bases, s.bob_bases, s.bob_results):
            h.update(bits.tobytes())
    h.update(scatter_indexes(Generator(_ent(b"scatter")), 10001).tobytes())
    print(h.hexdigest())


if __name__ == "__main__":
    main()
