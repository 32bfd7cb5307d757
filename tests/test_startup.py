"""Start-up cost: importing the package loads no standard-library module
that only some paths use, and the command line still reads the same.

Each check runs a fresh interpreter with `-S`, so that no site hook has
loaded these modules before flatcert is imported."""

import os
import subprocess
import sys
from pathlib import Path

import flatcert

SRC = str(Path(flatcert.__file__).resolve().parent.parent)
UNUSED_AT_IMPORT = ("dataclasses", "inspect", "argparse", "importlib.resources", "typing")

HELP = """\
usage: flatcert [-h] {run,repro,gb,tor} ...

flatness certification for ideals over affine rings

positional arguments:
  {run,repro,gb,tor}
    run               execute a .fc script
    repro             run the bundled verification suite
    gb                print the reduced Groebner basis of an ideal
    tor               print a Tor verdict with witnesses

options:
  -h, --help          show this help message and exit
"""


def _python(code):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_importing_the_cli_loads_no_path_specific_stdlib():
    probe = (
        "import flatcert.cli, sys; "
        f"print(*[m for m in {UNUSED_AT_IMPORT!r} if m in sys.modules])"
    )
    done = _python(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_help_text_is_unchanged():
    done = _python("import sys, flatcert.cli; sys.exit(flatcert.cli.main(['--help']))")
    assert done.returncode == 0, done.stderr
    # Python 3.10's argparse titles the options section differently.
    assert done.stdout.replace("optional arguments:", "options:") == HELP
