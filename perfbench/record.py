"""Record golden.json: every input the workloads can draw, with the digest
of its output on the current library.

Run from the repository root, on the commit whose behaviour is the
reference:

    python3 perfbench/record.py

A later change that must keep behaviour (same crystal, same verdicts, same
CLI bytes) is checked against this file by every benchmark run; re-record
only when a change of output is intended, and say so.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import use_checkout_library  # noqa: E402

use_checkout_library()

import workloads as wl  # noqa: E402

# recognize: (system, shape, depth of the endpoint box)
RECOGNIZE_SHAPES = (
    ("A2", (1, 1), 4),
    ("A2", (2, 1), 5),
    ("A2", (2, 2), 6),
    ("B2", (1, 1), 4),
    ("B2", (1, 2), 5),
    ("B2", (2, 2), 6),
    ("G2", (2, 1), 5),
    ("G2", (3, 2), 6),
    ("A3", (1, 1, 1), 4),
    ("A3", (1, 2, 1), 4),
    ("A1aff", (0, 0, 1), 3),
    ("A1aff", (0, 1, 2), 2),
)

# enumerate: finite-type boxes (system, shape, depth)
ENUMERATE_FINITE = (
    ("A2", (1, 1), 3),
    ("A2", (1, 2), 3),
    ("A2", (2, 1), 3),
    ("A2", (2, 2), 3),
    ("A2", (2, 3), 3),
    ("A2", (3, 2), 3),
    ("B2", (1, 1), 3),
    ("B2", (1, 2), 3),
    ("B2", (2, 2), 3),
    ("B2", (2, 3), 3),
    ("G2", (2, 1), 3),
    ("G2", (3, 2), 3),
    ("A3", (1, 1, 1), 2),
    ("A3", (1, 2, 1), 2),
)
ENUMERATE_AFFINE = ((0, 0, 1), (0, 0, 2), (0, 1, 2))


def box(n: int, shape, depth: int):
    """Endpoints shape - sum c_i alpha_i^v with c >= 0 and sum c <= depth
    (the simple coroots of from_gcm are the first n unit vectors)."""
    for cs in itertools.product(range(depth + 1), repeat=n):
        if sum(cs) <= depth:
            yield cs, tuple(s - (cs[i] if i < n else 0) for i, s in enumerate(shape))


def affine_class(lam, gap: int) -> str:
    small = 2 if lam == (0, 0, 1) else 1
    if gap <= small:
        return "affine_small"
    if gap == small + 1:
        return "affine_mid"
    return f"{wl.HEAVY}_{''.join(str(x) for x in lam)}"


def record_crystal(lib, systems):
    out = {}
    for name, shape, cap in wl.CRYSTAL_SHAPES:
        system = lib.root_system.RootGeneratingSystem.from_json_dict(systems[name])
        graph, counts, oracle = wl.crystal_generate(lib, system, wl.fracs(shape), cap)
        failing = [
            ",".join(lib.linalg.format_vector(mu))
            for mu, got in oracle.items()
            if isinstance(got, Exception) or got != counts[mu]
        ]
        out[wl.crystal_key(name, shape)] = {
            "digest": wl.digest(graph.to_json_dict()),
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
            "weights_checked": len(oracle),
            "known_oracle_failures": failing,
        }
        print(f"crystal {name} {shape}: {len(graph.nodes)} nodes, {len(failing)} oracle failures", flush=True)
    return out


def near_misses(lib, path):
    """One moved breakpoint and one changed direction, where defined."""
    system = path.system
    words = [list(w.word) for w in path.directions]
    bps = list(path.breakpoints)
    out = []
    if path.r >= 2:
        moved = list(bps)
        moved[1] = (bps[0] + bps[1]) / 2
        out.append((words, moved))
    xi = path.direction_vector(path.r - 1)
    for i in range(system.n):
        img = system.simple_reflection(i, xi)
        if img != xi:
            word = system.coset_of_vector(img, path.shape).element.word
            out.append((words[:-1] + [list(word)], bps))
            break
    return out


def record_recognize(lib, systems):
    rng = random.Random(0)
    pool = []
    seen = set()

    def add(name, shape, words, bps, category):
        key = (name, tuple(shape), tuple(map(tuple, words)), tuple(bps))
        if key in seen:
            return
        seen.add(key)
        outputs = set()
        for start in [(0,) * len(shape)] + [tuple(rng.randint(-1, 1) for _ in shape) for _ in range(2)]:
            system = lib.root_system.RootGeneratingSystem.from_json_dict(systems[name])
            path = lib.paths.make_path(system, shape, start, words, bps)
            outputs.add(wl.digest(wl.recognize_record(wl.recognize_run(lib, path))))
        if len(outputs) != 1:
            raise SystemExit(f"recognize output of {key} changes under translation")
        pool.append(
            {
                "system": name,
                "shape": list(shape),
                "words": words,
                "breakpoints": [lib.linalg.format_rational(b) for b in bps],
                "category": category,
                "digest": outputs.pop(),
            }
        )

    for name, shape, depth in RECOGNIZE_SHAPES:
        system = lib.root_system.RootGeneratingSystem.from_json_dict(systems[name])
        lam = wl.fracs(shape)
        base = []
        for _, y1 in box(system.n, shape, depth):
            base += [w.path for w in lib.model.enumerate_hecke(system, lam, system.zero(), y1)]
        for path in base:
            category = "ls" if lib.paths.is_ls(path).ok else "hecke"
            add(name, shape, [list(w.word) for w in path.directions], list(path.breakpoints), category)
        for path in base:
            for words, bps in near_misses(lib, path):
                try:
                    lib.paths.make_path(system, shape, system.zero(), words, bps)
                except lib.package.HPLError:
                    continue
                add(name, shape, words, bps, "near")
        print(f"recognize {name} {shape}: {len(base)} Hecke paths, pool now {len(pool)}", flush=True)
    return {"pool": pool}


def record_enumerate(lib):
    specs = []
    for name, shape, depth in ENUMERATE_FINITE:
        n = len(shape)
        specs += [(name, shape, y1, "finite") for _, y1 in box(n, shape, depth)]
    for lam in ENUMERATE_AFFINE:
        specs += [("A1aff", lam, y1, affine_class(lam, sum(cs))) for cs, y1 in box(2, lam, 3)]
    queries = []
    for name, shape, y1, cls in specs:
        query = {"system": name, "lambda": list(shape), "y1": list(y1), "class": cls}
        code, text = wl.cli_run(lib, wl.enumerate_argv(query))
        if code != 0:
            raise SystemExit(f"enumerate query {query} exits {code}")
        query["digest"] = wl.digest(f"{code}\n{text}".encode())
        queries.append(query)
    print(f"enumerate: {len(queries)} queries", flush=True)
    return {"queries": queries}


def main():
    lib = wl.import_library()
    systems = wl.load_system_data()
    golden = {
        "crystal": record_crystal(lib, systems),
        "recognize": record_recognize(lib, systems),
        "enumerate": record_enumerate(lib),
    }
    text = json.dumps(golden, sort_keys=True, separators=(",", ":"))
    # one record per line, so that a re-recording shows as a readable diff
    wl.GOLDEN_FILE.write_text(text.replace('},{"', '},\n{"') + "\n", encoding="utf-8")
    print(f"wrote {wl.GOLDEN_FILE}")


if __name__ == "__main__":
    main()
