"""Outside-in tracer: spans around flatcert's layer entry points, installed
from the benchmark's own files.

`Tracer.install()` replaces each function in SPANS with a timing wrapper at
every place a flatcert module binds it by name (for example `tor` in
`homology`, `flatness`, `script`, `cli` and the package itself), and each
method in SPANS on its class.  Every span records its parent span, so
counts such as S-pairs reduced come from parentage: a `divide` whose
parent is `buchberger` reduced an S-polynomial.

A span's self time is its duration minus the durations of its direct
child spans.  The wrappers cost about a microsecond per call, so
end-to-end metrics are never taken from a traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

# Submodules are imported by name: `flatcert.poly` as an attribute is the
# package's `poly()` constructor, which shadows the submodule.
MODULES = (
    "flatcert",
    "flatcert.poly",
    "flatcert.parse",
    "flatcert.groebner",
    "flatcert.modules",
    "flatcert.homology",
    "flatcert.flatness",
    "flatcert.script",
    "flatcert.cli",
)

# span name -> (defining module, function or Class.method)
SPANS = {
    "poly.reduce": ("flatcert.poly", "PresentedRing.reduce"),
    "poly.defining_basis": ("flatcert.poly", "PresentedRing.defining_basis"),
    "poly.mul": ("flatcert.poly", "Polynomial.__mul__"),
    "parse.script": ("flatcert.script", "parse_script"),
    "parse.polynomial": ("flatcert.parse", "parse_polynomial"),
    "parse.to_polynomial": ("flatcert.parse", "to_polynomial"),
    "groebner.divide": ("flatcert.groebner", "divide"),
    "groebner.buchberger": ("flatcert.groebner", "buchberger"),
    "groebner.reduced_basis": ("flatcert.groebner", "reduced_basis"),
    "groebner.ideal_basis": ("flatcert.groebner", "IdealHandle.groebner_basis"),
    "groebner.ring_map": ("flatcert.groebner", "RingMap.__init__"),
    "groebner.map_kernel": ("flatcert.groebner", "map_kernel"),
    "modules.syzygy": ("flatcert.modules", "syzygy_entries"),
    "modules.membership.build": ("flatcert.modules", "MembershipBasis.__init__"),
    "modules.membership.nf": ("flatcert.modules", "MembershipBasis.normal_form"),
    "homology.present": ("flatcert.homology", "as_presented_module"),
    "homology.resolution": ("flatcert.homology", "free_resolution"),
    "homology.tor": ("flatcert.homology", "tor"),
    "flatness.flat": ("flatcert.flatness", "flat_at_point"),
    "flatness.tensor": ("flatcert.flatness", "tensor_with_renaming"),
    "script.execute": ("flatcert.script", "Interpreter.execute"),
    "cli.repro": ("flatcert.cli", "repro_suite"),
}

PARSE_SPANS = frozenset(name for name in SPANS if name.startswith("parse."))


def _divide_hook(tracer, parent, call, result, elapsed):
    if parent == "groebner.buchberger" and not result[1].is_zero():
        tracer.extra["groebner.nonzero_reductions"] += 1


def _reduced_basis_hook(tracer, parent, call, result, elapsed):
    if result:
        tracer.extra[f"groebner.reduced_basis.{result[0].sig.order}_s"] += elapsed


def _syzygy_hook(tracer, parent, call, result, elapsed):
    args = call()
    tracer.extra["modules.syzygy.rank_in"] += args["nrows"] + len(args["columns"])
    tracer.extra["modules.syzygy.cols_out"] += len(result)


def _resolution_hook(tracer, parent, call, result, elapsed):
    tracer.extra["homology.resolution.rank_sum"] += sum(result.ranks)


def _tor_hook(tracer, parent, call, result, elapsed):
    tracer.extra["homology.tor.witnesses"] += len(result.witness_generators)


def _execute_hook(tracer, parent, call, result, elapsed):
    tracer.extra["script.assertions"] += len(result.assertions)


HOOKS = {
    "groebner.divide": _divide_hook,
    "groebner.reduced_basis": _reduced_basis_hook,
    "modules.syzygy": _syzygy_hook,
    "homology.resolution": _resolution_hook,
    "homology.tor": _tor_hook,
    "script.execute": _execute_hook,
}


class Tracer:
    """Per-span calls, total and self seconds; (parent, span) call counts;
    and counters filled by the hooks above."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()
        self.extra: Counter = Counter()
        self._stack: list[list] = []
        self.originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        stack = self._stack
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.edges[(parent, name)] += 1
            if hook is not None:
                hook(
                    self,
                    parent,
                    lambda: signature.bind(*args, **kwargs).arguments,
                    result,
                    elapsed,
                )
            return result

        return traced

    def install(self) -> None:
        """Wrap every span at every binding site; call once per process."""
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (module_name, qualname) in SPANS.items():
            owner = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original)
                setattr(cls, attr, wrapper)
            else:
                original = getattr(owner, qualname)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
            self.originals[name] = original

    def unwrapped_bindings(self) -> list[str]:
        """Binding sites in flatcert modules that still hold an original."""
        originals = {id(fn) for fn in self.originals.values()}
        missed = []
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for key, value in vars(module).items():
                if id(value) in originals:
                    missed.append(f"{module_name}.{key}")
                if isinstance(value, type) and value.__module__.startswith("flatcert"):
                    for attr, member in vars(value).items():
                        if id(member) in originals:
                            missed.append(f"{module_name}.{key}.{attr}")
        return missed

    def counts(self) -> dict:
        """Everything the tracer counted, as JSON-ready data.  These must
        repeat exactly across processes and hash seeds."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "edges": sorted(
                [parent or "", name, n] for (parent, name), n in self.edges.items()
            ),
            "extra": {
                k: v for k, v in sorted(self.extra.items()) if not k.endswith("_s")
            },
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced sample."""
        calls, self_s, total_s, edges, extra = (
            self.calls,
            self.self_s,
            self.total_s,
            self.edges,
            self.extra,
        )
        spairs = edges[("groebner.buchberger", "groebner.divide")]
        return {
            "poly.reduce.calls": calls["poly.reduce"],
            "poly.reduce.self_s": self_s["poly.reduce"],
            "poly.mul.calls": calls["poly.mul"],
            "parse.calls": sum(
                n
                for (parent, name), n in edges.items()
                if name in PARSE_SPANS and parent not in PARSE_SPANS
            ),
            "parse.self_s": sum(self_s[name] for name in PARSE_SPANS),
            "groebner.divide.calls": calls["groebner.divide"],
            "groebner.divide.self_s": self_s["groebner.divide"],
            "groebner.buchberger.self_s": self_s["groebner.buchberger"],
            "groebner.spairs_reduced": spairs,
            "groebner.spair_yield": (
                extra["groebner.nonzero_reductions"] / spairs if spairs else 0.0
            ),
            "groebner.interreduce_divides": edges[
                ("groebner.reduced_basis", "groebner.divide")
            ],
            "groebner.reduced_basis.grevlex_s": extra["groebner.reduced_basis.grevlex_s"],
            "groebner.reduced_basis.lex_s": extra["groebner.reduced_basis.lex_s"],
            "groebner.map_kernel.self_s": self_s["groebner.map_kernel"],
            "modules.syzygy.calls": calls["modules.syzygy"],
            "modules.syzygy.self_s": self_s["modules.syzygy"],
            "modules.syzygy.rank_in": extra["modules.syzygy.rank_in"],
            "modules.syzygy.cols_out": extra["modules.syzygy.cols_out"],
            "modules.membership.builds": calls["modules.membership.build"],
            "modules.membership.build_s": total_s["modules.membership.build"],
            "modules.membership.nf_calls": calls["modules.membership.nf"],
            "modules.membership.nf_s": total_s["modules.membership.nf"],
            "homology.resolution.self_s": self_s["homology.resolution"],
            "homology.resolution.rank_sum": extra["homology.resolution.rank_sum"],
            "homology.tor.calls": calls["homology.tor"],
            "homology.tor.self_s": self_s["homology.tor"],
            "homology.tor.witnesses": extra["homology.tor.witnesses"],
            "flatness.flat.calls": calls["flatness.flat"],
            "flatness.flat.self_s": self_s["flatness.flat"],
            "script.execute.self_s": self_s["script.execute"],
            "script.assertions": extra["script.assertions"],
            "cli.repro.self_s": self_s["cli.repro"],
        }
