"""The benchmark's outside-in tracer (`bench/tracer.py`) still binds every
span it names.  Internals move between modules; a span the tracer can no
longer wrap would otherwise surface only when the benchmark runs.  The
package loads `homology`, `flatness` and `script` names on first use, so
a name read before `install()` and one read after must both come out
wrapped."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import flatcert as fc
from tracer import Tracer

fc.tor  # read before install: the package holds the original until then
tracer = Tracer()
tracer.install()

R = fc.ring("x,y,z,u,v", defining=("x*y - z^2",))
J = fc.ideal(R, "x - u", "z - u*v", "y - u*v^2")
I = fc.ideal(R, "x", "y", "z")
fc.tor(1, J, I)
wrapped = sorted(
    name
    for name, module, span in (
        ("tor", "flatcert.homology", "homology.tor"),
        ("flat_at_point", "flatcert.flatness", "flatness.flat"),
        ("parse_script", "flatcert.script", "parse.script"),
        ("tensor_with_renaming", "flatcert.flatness", "flatness.tensor"),
    )
    if getattr(fc, name) is getattr(sys.modules[module], name)
    and getattr(fc, name).__wrapped__ is tracer.originals[span]
)
print(json.dumps({
    "unwrapped": tracer.unwrapped_bindings(),
    "wrapped": wrapped,
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
    # The package's lazily loaded names are the wrappers in their defining
    # modules, whether read before or after `install()`.
    assert result["wrapped"] == [
        "flat_at_point", "parse_script", "tensor_with_renaming", "tor"
    ]
    # The syzygy hook binds `syzygy_entries`' nrows and columns by name.
    assert result["rank_in"] > 0
