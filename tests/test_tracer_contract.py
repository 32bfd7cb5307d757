"""The benchmark's outside-in tracer (`bench/tracer.py`) still binds every
span it names.  Internals move between modules; a span the tracer can no
longer wrap would otherwise surface only when the benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer

tracer = Tracer()
tracer.install()
import flatcert as fc

R = fc.ring("x,y,z,u,v", defining=("x*y - z^2",))
J = fc.ideal(R, "x - u", "z - u*v", "y - u*v^2")
I = fc.ideal(R, "x", "y", "z")
fc.tor(1, J, I)
print(json.dumps({
    "unwrapped": tracer.unwrapped_bindings(),
    "rank_in": tracer.extra["modules.syzygy.rank_in"],
}))
"""


def test_tracer_binds_every_span():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["unwrapped"] == []
    # The syzygy hook binds `syzygy_entries`' nrows and columns by name.
    assert result["rank_in"] > 0
