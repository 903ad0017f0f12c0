import os
import subprocess
import sys
from pathlib import Path

import lwerng

# a key, a battery pass and a CLI call in a fresh interpreter, which then
# lists the scipy modules it holds
_RUNTIME_USE = """
import sys

from lwerng import cli
from lwerng.sampling import EntropyInput
from lwerng.stats import run_battery
from lwerng.stream import Generator

gen = Generator(EntropyInput(bytes(32)))
assert len(gen.next_bytes(32)) == 32
assert len(run_battery(gen, 1_000_000)) == 6
assert cli.main(["generate", "--seed-hex", "00" * 32, "--bytes", "32",
                 "--out", sys.argv[1]]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_every_exported_name_resolves():
    assert all(hasattr(lwerng, name) for name in lwerng.__all__)


def test_runtime_imports_no_scipy(tmp_path):
    # numpy is the one runtime dependency; scipy is only the tests' reference
    src = str(Path(lwerng.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    key = tmp_path / "key.bin"
    out = subprocess.run([sys.executable, "-c", _RUNTIME_USE, str(key)],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    assert key.stat().st_size == 32


def test_python_dash_m_runs_the_cli():
    # `python -m lwerng` is the console script: generate writes the library's bytes
    seed = bytes(range(32)).hex()
    src = str(Path(lwerng.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "lwerng", "generate", "--bytes", "16",
                          "--seed-hex", seed],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == lwerng.Generator(lwerng.EntropyInput.from_hex(seed)).next_bytes(16)
