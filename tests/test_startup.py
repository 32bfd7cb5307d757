"""Start-up cost: importing the package loads only the Groebner core and
no standard-library module that only some paths use, every public name
still resolves, and the command line still reads the same.

Each check runs a fresh interpreter with `-S`, so that no site hook has
loaded these modules before flatcert is imported."""

import json
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


CORE = [
    "flatcert.groebner", "flatcert.modules", "flatcert.parse", "flatcert.poly", "flatcert.record",
]

# Where each public name is defined: the package's own constructors, the
# core's names, and the names that load with their submodule on first use.
DEFINED_IN = {
    "flatcert": ("ideal", "poly", "ring"),
    "flatcert.poly": (
        "AlgebraError", "ArgumentError", "BLOCK", "DimensionError", "GREVLEX",
        "LEX", "Monomial", "Polynomial", "PresentedRing", "RingSignature",
        "compare_monomials", "fresh_name", "mono_degree", "mono_divides",
        "mono_lcm", "mono_mul", "mono_quotient", "transplant",
    ),
    "flatcert.parse": ("ParseError", "parse_polynomial"),
    "flatcert.groebner": (
        "IdealHandle", "RingMap", "divide", "eliminate", "map_kernel", "reduced_basis",
    ),
    "flatcert.modules": (
        "MembershipBasis", "ModuleElement", "PolyMatrix", "SubmodulePresentation",
        "kernel_generators", "module_reduced_gb", "syzygy_matrix",
    ),
    "flatcert.homology": (
        "ChainComplex", "PresentedModule", "TorReport", "as_presented_module",
        "free_resolution", "homology_witnesses", "koszul", "tor",
    ),
    "flatcert.flatness": (
        "AffineMorphism", "FlatnessVerdict", "PointSpec", "fibered_product_ideal",
        "flat_at_point", "graph_ideal", "invariant_presentation",
        "tensor_with_renaming", "trim_generators",
    ),
    "flatcert.script": ("ScriptReport", "parse_script", "pretty_script", "run_script"),
}


def _probe(code):
    """Run `code` after `import flatcert` in a fresh interpreter; return
    what it prints as JSON."""
    done = _python(f"import json, sys, flatcert\n{code}")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_only_the_groebner_core():
    loaded = _probe(
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('flatcert.'))))"
    )
    assert loaded == CORE


def test_every_public_name_resolves_to_its_defining_modules_object():
    names = sorted(n for group in DEFINED_IN.values() for n in group)
    resolved = _probe(
        f"""
from importlib import import_module
values = {{name: getattr(flatcert, name) for name in flatcert.__all__}}
print(json.dumps({{
    "all": flatcert.__all__,
    "same": sorted(
        name
        for module, group in {DEFINED_IN!r}.items()
        for name in group
        if values[name] is vars(import_module(module))[name]
    ),
    "poly": type(flatcert.poly).__name__,
}}))
"""
    )
    assert resolved["all"] == names and len(names) == 57
    assert resolved["same"] == names
    # After every submodule has loaded, `flatcert.poly` is still the
    # constructor, not the submodule it shares a name with.
    assert resolved["poly"] == "function"


def test_dir_and_star_import_see_every_public_name_before_it_loads():
    seen = _probe(
        """
listed = dir(flatcert)
loaded = sorted(m for m in sys.modules if m.startswith('flatcert.'))
namespace = {}
exec("from flatcert import *", namespace)
print(json.dumps({
    "missing_from_dir": sorted(set(flatcert.__all__) - set(listed)),
    "loaded_by_dir": loaded,
    "missing_from_star": sorted(set(flatcert.__all__) - set(namespace)),
    "star_extra": sorted(set(namespace) - set(flatcert.__all__) - {"__builtins__"}),
}))
"""
    )
    assert seen == {
        "missing_from_dir": [],
        "loaded_by_dir": CORE,
        "missing_from_star": [],
        "star_extra": [],
    }


def test_an_unknown_name_raises_the_standard_attribute_error():
    raised = _probe(
        """
import types
def failure(module):
    try:
        module.no_such_name
    except AttributeError as exc:
        return [type(exc).__name__, str(exc), exc.name]
print(json.dumps([failure(flatcert), failure(types.ModuleType("flatcert")),
                  hasattr(flatcert, "no_such_name")]))
"""
    )
    package, plain, present = raised
    assert package == plain == [
        "AttributeError", "module 'flatcert' has no attribute 'no_such_name'", "no_such_name"
    ]
    assert present is False


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
