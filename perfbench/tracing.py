"""Per-layer measurement for the traced run.

The library has no instrumentation of its own, so the benchmark wraps, from
outside, every public function of the layer modules (``linalg``,
``root_system``, ``apartment``, ``paths``, ``model``, ``galleries``,
``cli``) and every public method of ``RootGeneratingSystem``.  A wrapper is
installed under every name the function is looked up by: modules bind
functions of other modules at import (``model`` binds ``try_operator``,
``galleries`` binds ``is_hecke``, ...), and ``cli.COMMANDS`` holds the
command functions.  Wrappers record only while an operation executes.

Each wrapped call is a span (name, start, end, parent span, operation id),
kept in arrays in memory and written out at the end.  A layer's self time
is the sum over its spans of duration minus the duration of child spans,
so time in unwrapped code (private helpers, ``fractions``) goes to the
nearest wrapped caller.  A separate ``cProfile`` pass gives each module's
share of ``tottime``, which is how the cost of ``fractions`` shows.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import FunctionType

from workloads import LAYERS

# Busy time (outermost calls only) is reported for these groups of functions.
GROUPS = {
    "paths.chain_search": (
        "paths.is_hecke",
        "paths.is_ls",
        "paths.find_chain",
        "paths.chain_targets",
        "paths.all_chains",
    ),
    "paths.stats": ("paths.stats",),
    "model.generate_ls_paths": ("model.generate_ls_paths",),
    "model.freudenthal_multiplicity": ("model.freudenthal_multiplicity",),
    "model.enumerate_hecke": ("model.enumerate_hecke",),
}


def _system_key(tracer, system):
    # keep the system alive so that its id is not reused during the trace
    tracer.systems[id(system)] = system
    return id(system)


# Argument keys whose distinct count bounds what memoizing the call can save.
REUSE_KEYS = {
    "root_system.act": lambda t, a: (_system_key(t, a[0]), a[1].word, tuple(a[2])),
    "root_system.normalize_word": lambda t, a: (_system_key(t, a[0]), tuple(a[1])),
    "paths.chain_targets": lambda t, a: (_system_key(t, a[0]), tuple(a[1]), tuple(a[2]), tuple(a[3]), a[4]),
}


class Tracer:
    def __init__(self):
        self.names = []  # name id -> "layer.function"
        self.layer_of = []  # name id -> layer
        self.calls = []  # name id -> call count
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.name_ids = array("l")
        self.op_ids = array("l")
        self.stack = []  # [span id, time covered by child spans]
        self.self_time = Counter()
        self.group_depth = Counter()
        self.busy = Counter()
        self.reuse = {name: set() for name in REUSE_KEYS}
        self.systems = {}
        self.operator_defined = 0
        self.enumerated_paths = 0
        self.active = False
        self.op = -1

    # hooks of the cycle runner
    def start(self, op: int):
        self.op = op
        self.active = True

    def stop(self):
        self.active = False

    def wrap(self, func, layer: str):
        tracer = self
        name = f"{layer}.{func.__name__}"
        k = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        groups = [g for g, members in GROUPS.items() if name in members]
        key_of = REUSE_KEYS.get(name)
        seen = self.reuse.get(name)
        starts, ends, parents, name_ids, op_ids = (
            self.starts, self.ends, self.parents, self.name_ids, self.op_ids
        )
        stack, self_time, group_depth, busy = self.stack, self.self_time, self.group_depth, self.busy

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            tracer.calls[k] += 1
            if key_of is not None:
                seen.add(hash(key_of(tracer, args)))
            for g in groups:
                group_depth[g] += 1
            frame = [len(starts), 0.0]
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(k)
            op_ids.append(tracer.op)
            ends.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                ends[frame[0]] = t1
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                for g in groups:
                    group_depth[g] -= 1
                    if not group_depth[g]:
                        busy[g] += dur
            if name == "paths.try_operator":
                tracer.operator_defined += result is not None
            elif name == "model.enumerate_hecke":
                tracer.enumerated_paths += len(result)
            return result

        return wrapper

    def install(self, lib):
        """Wrap the library in place; returns a function that undoes it."""
        undo = []
        wrapped = {}  # id(original) -> wrapper
        modules = [getattr(lib, layer) for layer in LAYERS]
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if isinstance(obj, FunctionType) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(obj, layer)
        for mod in [lib.package] + modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and isinstance(obj, FunctionType):
                    undo.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])
        commands = lib.cli.COMMANDS
        saved = dict(commands)
        commands.update({k: wrapped.get(id(f), f) for k, f in commands.items()})
        cls = lib.root_system.RootGeneratingSystem
        for name, obj in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, FunctionType):
                new = self.wrap(obj, "root_system")
            elif isinstance(obj, classmethod):
                new = classmethod(self.wrap(obj.__func__, "root_system"))
            else:
                continue
            undo.append((cls, name, obj))
            setattr(cls, name, new)

        def restore():
            for owner, name, obj in reversed(undo):
                setattr(owner, name, obj)
            commands.update(saved)

        return restore

    def count(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def metrics(self) -> dict:
        out = {f"{layer}.self_s": self.self_time[layer] for layer in LAYERS}
        for fn in ("pairing", "act", "orbit_unwind", "coset_of_vector", "normalize_word", "inversion_set"):
            out[f"root_system.{fn}.calls"] = self.count(f"root_system.{fn}")
        for name, seen in self.reuse.items():
            calls = self.count(name)
            out[f"{name}.reuse_ratio"] = 1 - len(seen) / calls if calls else 0.0
        attempts = self.count("paths.try_operator")
        out["paths.root_operator.calls"] = self.count("paths.root_operator")
        out["paths.root_operator.defined_ratio"] = self.operator_defined / attempts if attempts else 0.0
        out["paths.from_segments.calls"] = self.count("paths.from_segments")
        out["paths.chain_targets.calls"] = self.count("paths.chain_targets")
        for group in GROUPS:
            out[f"{group}.s"] = self.busy[group]
        out["model.freudenthal_multiplicity.calls"] = self.count("model.freudenthal_multiplicity")
        out["model.enumerate_hecke.paths"] = self.enumerated_paths
        for fn in ("decorate_with_max_chains", "codim_tilde", "parameter_pattern"):
            out[f"galleries.{fn}.calls"] = self.count(f"galleries.{fn}")
        out["linalg.solve_linear.calls"] = self.count("linalg.solve_linear")
        out["apartment.calls"] = sum(c for layer, c in zip(self.layer_of, self.calls) if layer == "apartment")
        return out

    def call_counts(self) -> dict:
        return {n: c for n, c in sorted(zip(self.names, self.calls)) if c}

    def write(self, directory: Path):
        """Spans as raw arrays (one file per field) plus names.json."""
        directory.mkdir(parents=True, exist_ok=True)
        for field, arr in (
            ("start", self.starts),
            ("end", self.ends),
            ("parent", self.parents),
            ("name", self.name_ids),
            ("op", self.op_ids),
        ):
            with open(directory / f"{field}.{arr.typecode}", "wb") as f:
                arr.tofile(f)
        (directory / "names.json").write_text(
            json.dumps({"names": self.names, "layers": self.layer_of, "spans": len(self.starts)}),
            encoding="utf-8",
        )


class Profiler:
    """cProfile switched on only while an operation executes."""

    def __init__(self):
        self.prof = cProfile.Profile()

    def start(self, op: int):
        self.prof.enable()

    def stop(self):
        self.prof.disable()

    def shares(self) -> dict:
        per_module = Counter()
        for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(self.prof).stats.items():
            path = Path(filename)
            if path.parent.name == "heckepaths":
                per_module[path.stem] += tottime
            elif path.name == "fractions.py":
                per_module["fractions"] += tottime
            else:
                per_module["other"] += tottime
        total = sum(per_module.values()) or 1.0
        return {f"{m}.share": per_module[m] / total for m in ("fractions",) + LAYERS}
