"""The benchmark's workloads: crystal, recognize and enumerate.

A workload turns a seed into one cycle of operations.  Every operation has
three parts:

* ``prepare`` builds fresh library objects for it, untimed.  Each operation
  gets its own ``RootGeneratingSystem``, so per-system caches start cold, as
  they do for one ``hpl`` invocation;
* ``execute`` is the timed call into the library;
* ``check`` compares the output with the golden record, untimed.

The golden record (``golden.json``) was taken with ``record.py`` and holds,
per possible input, a digest of the deterministic output.  The seed only
chooses among recorded inputs, so every run can check every output.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SYSTEMS_DIR = HERE / "systems"
GOLDEN_FILE = HERE / "golden.json"

LAYERS = ("linalg", "root_system", "apartment", "paths", "model", "galleries", "cli")


def import_library() -> SimpleNamespace:
    """Import heckepaths afresh and return its layer modules.

    Earlier imports are dropped first, so the import cost is paid again on
    every set-up repetition.
    """
    for name in [m for m in sys.modules if m == "heckepaths" or m.startswith("heckepaths.")]:
        del sys.modules[name]
    pkg = importlib.import_module("heckepaths")
    mods = {name: importlib.import_module(f"heckepaths.{name}") for name in LAYERS}
    return SimpleNamespace(package=pkg, **mods)


def load_system_data() -> dict:
    return {
        p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(SYSTEMS_DIR.glob("*.json"))
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def digest(obj) -> str:
    """Short sha256 of bytes, or of an object's canonical JSON."""
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()[:16]


def fracs(values) -> tuple:
    return tuple(Fraction(v) for v in values)


@dataclass
class Check:
    """The verdict on one operation's output."""

    work: int  # units of the workload's throughput: nodes, checks or queries
    attempted: int = 1
    failures: list = field(default_factory=list)  # messages, known defects included
    known: int = 0  # how many of the failures the golden record lists as known defects
    counts: dict = field(default_factory=dict)


# -- crystal ------------------------------------------------------------------


# (system, shape in the coroot basis, depth cap).  The two partial crystals
# are capped; a cap counts successful f-applications.
CRYSTAL_SHAPES = (
    ("A3", (3, 4, 3), 10000),
    ("G2", (10, 6), 10000),
    ("A1aff", (0, 0, 1), 150),
    ("twisted", (0, 0, 0, 1), 150),
)


def crystal_key(system: str, shape) -> str:
    return f"{system}:{','.join(str(x) for x in shape)}"


def crystal_generate(lib, system, lam, cap):
    """Generate the crystal and run the Freudenthal oracle on every weight
    of its completed depth, with one shared cache, as ``hpl mult`` would."""
    graph = lib.model.generate_ls_paths(system, lam, cap)
    counts = graph.endpoint_counts()
    cache = {}
    oracle = {}
    for mu in sorted(counts):
        depth = sum(lib.root_system.dominance_difference(system, lam, mu))
        if graph.partial and depth > graph.completed_depth:
            continue
        try:
            oracle[mu] = lib.model.freudenthal_multiplicity(system, lam, mu, cache=cache)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check, reported below
            oracle[mu] = exc
    return graph, counts, oracle


class Crystal:
    name = "crystal"
    unit = "nodes"
    tail = "max"  # a cycle has four operations, too few for a percentile
    report_names = ("nodes_per_s", "crystal_p50_ms", "crystal_max_ms")  # throughput, p50_ms, tail_ms

    def __init__(self, lib, seed: int, golden: dict, systems: dict):
        self.lib = lib
        self.golden = golden["crystal"]
        self.systems = systems
        ops = list(CRYSTAL_SHAPES)
        random.Random(seed).shuffle(ops)
        self.ops = ops
        # warm-up: one small complete crystal with its oracle
        a2 = lib.root_system.RootGeneratingSystem.from_json_dict(systems["A2"])
        crystal_generate(lib, a2, fracs((1, 1)), 10000)

    def prepare(self, op):
        name, shape, cap = op
        system = self.lib.root_system.RootGeneratingSystem.from_json_dict(self.systems[name])
        return system, fracs(shape), cap

    def execute(self, state):
        return crystal_generate(self.lib, *state)

    def check(self, op, raw) -> Check:
        name, shape, _ = op
        graph, counts, oracle = raw
        expect = self.golden[crystal_key(name, shape)]
        known = set(expect["known_oracle_failures"])
        chk = Check(work=len(graph.nodes), attempted=1 + len(oracle))
        if digest(graph.to_json_dict()) != expect["digest"]:
            chk.failures.append(f"crystal {crystal_key(name, shape)}: digest differs from golden")
        oracle_failures = 0
        for mu, got in oracle.items():
            mu_key = ",".join(self.lib.linalg.format_vector(mu))
            if isinstance(got, Exception):
                msg = f"oracle raised {type(got).__name__}"
            elif got != counts[mu]:
                msg = f"oracle says {got}, crystal says {counts[mu]}"
            else:
                continue
            oracle_failures += 1
            chk.failures.append(f"crystal {crystal_key(name, shape)} mu=({mu_key}): {msg}")
            chk.known += mu_key in known
        chk.counts = {
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
            "weights_checked": len(oracle),
            "oracle_failures": oracle_failures,
        }
        return chk


# -- recognize ----------------------------------------------------------------

# How many times one cycle checks each pool path, each time from its own
# seeded start point.  Every cycle holds the whole pool, so the cost mix is
# the same for every seed.
RECOGNIZE_REPEATS = 4


def recognize_run(lib, path):
    """The pipeline of ``hpl check-hecke``, then for Hecke paths ``check-ls``,
    ``stats``, ``gallery`` and ``pattern``."""
    paths, galleries = lib.paths, lib.galleries
    hecke = paths.is_hecke(path)
    if not hecke.ok:
        return (hecke,)
    ls = paths.is_ls(path)
    st = paths.stats(path)
    ct = galleries.codim_tilde(galleries.decorate_with_max_chains(path))
    return hecke, ls, st, ct, galleries.parameter_pattern(path)


def recognize_record(raw) -> dict:
    """The deterministic part of a recognize output, with the shape and the
    start point left out (the outputs do not change under translation by Y)."""
    hecke = raw[0]
    out = {"hecke": hecke.ok, "reason": hecke.reason}
    if hecke.ok:
        _, ls, st, ct, pattern = raw
        tallies = [
            sorted([list(beta.coeffs), n] for beta, n in d.items())
            for d in (st.pos, st.neg, st.pos_reverse, st.neg_reverse)
        ]
        out.update(
            ls=ls.ok,
            ls_reason=ls.reason,
            ddim=st.ddim,
            codim=st.codim,
            dim=st.dim,
            tallies=tallies,
            codim_tilde=ct,
            pattern=pattern.to_json_dict(),
        )
    return out


def recognize_verdict(raw) -> str:
    if not raw[0].ok:
        return "not_hecke"
    return "ls" if raw[1].ok else "hecke_not_ls"


class Recognize:
    name = "recognize"
    unit = "checks"
    tail = "p99"
    report_names = ("checks_per_s", "check_p50_ms", "check_p99_ms")  # throughput, p50_ms, tail_ms

    def __init__(self, lib, seed: int, golden: dict, systems: dict):
        self.lib = lib
        self.systems = systems
        self.pool = golden["recognize"]["pool"]
        rng = random.Random(seed)
        ops = [
            (k, tuple(rng.randint(-1, 1) for _ in item["shape"]))
            for k, item in enumerate(self.pool)
            for _ in range(RECOGNIZE_REPEATS)
        ]
        rng.shuffle(ops)
        self.ops = ops
        for k in range(5):  # warm-up on fixed inputs, so that set-up time does not depend on the seed
            recognize_run(lib, self.prepare((k, (0,) * len(self.pool[k]["shape"]))))

    def prepare(self, op):
        item = self.pool[op[0]]
        system = self.lib.root_system.RootGeneratingSystem.from_json_dict(self.systems[item["system"]])
        return self.lib.paths.make_path(
            system, item["shape"], op[1], item["words"], [Fraction(b) for b in item["breakpoints"]]
        )

    def execute(self, path):
        return recognize_run(self.lib, path)

    def check(self, op, raw) -> Check:
        chk = Check(work=1, counts={recognize_verdict(raw): 1})
        if digest(recognize_record(raw)) != self.pool[op[0]]["digest"]:
            chk.failures.append(f"recognize pool[{op[0]}] start={op[1]}: output differs from golden")
        return chk


# -- enumerate ----------------------------------------------------------------

# The recorded queries come in classes by cost: finite-type boxes take
# 1-40 ms, the A1^(1) ones 1 ms to 2 s, growing with the depth of the
# endpoint.  A cycle runs every query except the 2-second ones (classes
# "affine_heavy_<shape>"), of which it draws one per shape, so the cost mix
# is the same for every seed.
HEAVY = "affine_heavy"


def enumerate_argv(query) -> list:
    # "--y1=-1,0": argparse reads a separate "-1,0" as an option
    return [
        "enumerate-hecke",
        f"--system={SYSTEMS_DIR / (query['system'] + '.json')}",
        f"--lambda={','.join(str(x) for x in query['lambda'])}",
        f"--y0={','.join('0' for _ in query['lambda'])}",
        f"--y1={','.join(str(x) for x in query['y1'])}",
        "--format=json",
    ]


def cli_run(lib, argv):
    """``hpl`` in-process: (exit status, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    return code, out.getvalue()


class Enumerate:
    name = "enumerate"
    unit = "queries"
    tail = "p90"
    report_names = ("queries_per_s", "query_p50_ms", "query_p90_ms")  # throughput, p50_ms, tail_ms

    def __init__(self, lib, seed: int, golden: dict, systems: dict):
        self.lib = lib
        self.queries = golden["enumerate"]["queries"]
        classes = {}
        for k, q in enumerate(self.queries):
            classes.setdefault(q["class"], []).append(k)
        rng = random.Random(seed)
        ops = []
        for cls, members in sorted(classes.items()):
            ops += [rng.choice(members)] if cls.startswith(HEAVY) else members
        rng.shuffle(ops)
        self.ops = ops
        self.execute(self.prepare(classes["finite"][0]))  # warm-up

    def prepare(self, op):
        return enumerate_argv(self.queries[op])

    def execute(self, argv):
        return cli_run(self.lib, argv)

    def check(self, op, raw) -> Check:
        code, text = raw
        query = self.queries[op]
        chk = Check(work=1)
        if digest(f"{code}\n{text}".encode()) != query["digest"]:
            chk.failures.append(f"enumerate query {op} ({query['system']}): CLI output differs from golden")
            return chk
        report = json.loads(text)
        chk.counts = {
            "witnesses": report["count"],
            "ls_witnesses": sum(p["ls"] for p in report["paths"]),
        }
        return chk


WORKLOADS = {w.name: w for w in (Crystal, Recognize, Enumerate)}
