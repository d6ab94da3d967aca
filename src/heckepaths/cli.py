"""Command-line front end.

Exit status: 0 for success (and "yes" answers), 1 for a domain "no" (path
fails a check, with the failing condition named), 2 for malformed input or
internal errors.  All rational I/O uses "p/q" strings; JSON reports are
emitted with sorted keys so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import galleries, model, paths
from .errors import CapHit, CrossCheckMismatch, FormatError, HPLError
from .linalg import format_rational, format_vector, parse_rational
from .root_system import RootGeneratingSystem

DEFAULT_HEIGHT = 20
DEFAULT_DEPTH_CAP = 200


def _emit(report: dict, fmt: str, text_lines=None, dot: str | None = None):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    elif fmt == "dot":
        if dot is None:
            raise FormatError("dot output is only available for the crystal command")
        print(dot)
    else:
        for line in text_lines if text_lines is not None else [json.dumps(report, sort_keys=True)]:
            print(line)


def _parse_point(text: str, system: RootGeneratingSystem):
    coords = [parse_rational(p) for p in text.split(",")]
    if len(coords) != system.rank_x:
        raise FormatError(
            f"expected {system.rank_x} comma-separated coordinates, got {len(coords)}"
        )
    return tuple(coords)


def _load_system(args) -> RootGeneratingSystem:
    if not args.system:
        raise FormatError("--system FILE is required")
    return RootGeneratingSystem.load(args.system)


def _load_path(system, args):
    if not args.path:
        raise FormatError("--path FILE is required")
    return paths.load_path(system, args.path)


def _cert_dicts(certs):
    out = []
    for c in certs:
        out.append(
            {
                "t": format_rational(c.t),
                "kind": c.kind,
                "roots": [list(b.coeffs) for b in c.roots],
                "xis": [format_vector(x) for x in c.xis],
                "cosets": [[i + 1 for i in w.word] for w in c.cosets],
            }
        )
    return out


def cmd_validate(args):
    system = _load_system(args)
    report = {
        "ok": True,
        "type": system.classify_type(),
        "rank": system.n,
        "rank_x": system.rank_x,
        "symmetrizer": [format_rational(d) for d in system.symmetrizer],
        "system": system.to_json_dict(),
    }
    _emit(report, args.format, [f"valid {report['type']}-type system of rank {system.n}"])
    return 0


def cmd_check_hecke(args):
    system = _load_system(args)
    path = _load_path(system, args)
    res = paths.is_hecke(path, args.h)
    report = {
        "ok": res.ok,
        "check": "hecke",
        "reason": res.reason,
        "certificates": _cert_dicts(res.certificates),
        "path": paths.path_to_json_dict(path),
    }
    lines = [f"hecke: {'yes' if res.ok else 'no'}"]
    if res.reason:
        lines.append(res.reason)
    _emit(report, args.format, lines)
    return 0 if res.ok else 1


def cmd_check_ls(args):
    system = _load_system(args)
    path = _load_path(system, args)
    res = paths.is_ls(path, args.h)
    report = {
        "ok": res.ok,
        "check": "ls",
        "reason": res.reason,
        "certificates": _cert_dicts(res.certificates),
        "path": paths.path_to_json_dict(path),
    }
    if path.in_Y:
        st = paths.stats(path, args.h)
        hecke = paths.is_hecke(path, args.h).ok
        gap = system.rho_value(tuple(a - b for a, b in zip(path.shape, path.nu)))
        report["cross_check"] = {"ddim": st.ddim, "rho_gap": format_rational(gap), "hecke": hecke}
    lines = [f"ls: {'yes' if res.ok else 'no'}"]
    if res.reason:
        lines.append(res.reason)
    _emit(report, args.format, lines)
    return 0 if res.ok else 1


def cmd_stats(args):
    system = _load_system(args)
    path = _load_path(system, args)
    st = paths.stats(path, args.h)
    report = {
        "ddim": st.ddim,
        "codim": st.codim,
        "dim": st.dim,
        "pos": {repr(k): v for k, v in sorted(st.pos.items(), key=lambda kv: kv[0].coeffs)},
        "neg": {repr(k): v for k, v in sorted(st.neg.items(), key=lambda kv: kv[0].coeffs)},
        "pos_reverse": {
            repr(k): v for k, v in sorted(st.pos_reverse.items(), key=lambda kv: kv[0].coeffs)
        },
        "neg_reverse": {
            repr(k): v for k, v in sorted(st.neg_reverse.items(), key=lambda kv: kv[0].coeffs)
        },
        "path": paths.path_to_json_dict(path),
    }
    _emit(report, args.format, [f"ddim={st.ddim} codim={st.codim} dim={st.dim}"])
    return 0


def cmd_apply_op(args):
    system = _load_system(args)
    path = _load_path(system, args)
    out = paths.root_operator(args.kind, args.index - 1, path)
    report = {"ok": True, "result": paths.path_to_json_dict(out)}
    _emit(report, args.format, [json.dumps(report["result"], sort_keys=True)])
    return 0


def cmd_crystal(args):
    system = _load_system(args)
    lam = _parse_point(args.lam, system)
    graph = model.generate_ls_paths(system, lam, args.depth_cap)
    report = graph.to_json_dict()
    lines = [f"nodes={len(graph.nodes)} edges={len(graph.edges)} partial={graph.partial}"]
    _emit(report, args.format, lines, dot=graph.to_dot())
    return 0


def cmd_mult(args):
    system = _load_system(args)
    lam = _parse_point(args.lam, system)
    mu = _parse_point(args.mu, system)
    count = model.multiplicity(system, lam, mu, args.depth_cap)
    try:
        oracle = model.freudenthal_multiplicity(system, lam, mu)
        agree = oracle == count
    except CrossCheckMismatch:
        raise
    except HPLError:
        oracle = None
        agree = None
    report = {"multiplicity": count, "freudenthal": oracle, "agree": agree}
    lines = [str(count)]
    if oracle is not None:
        lines.append(f"oracle agreement: {'yes' if agree else 'NO'} (freudenthal={oracle})")
    _emit(report, args.format, lines)
    return 0 if agree in (True, None) else 2


def cmd_enumerate_hecke(args):
    system = _load_system(args)
    lam = _parse_point(args.lam, system)
    y0 = _parse_point(args.y0, system)
    y1 = _parse_point(args.y1, system)
    witnesses = model.enumerate_hecke(system, lam, y0, y1, args.h)
    report = {
        "count": len(witnesses),
        "paths": [
            {
                "path": paths.path_to_json_dict(w.path),
                "certificates": _cert_dicts(w.certificates),
                "ls": paths.is_ls(w.path, args.h).ok,
            }
            for w in witnesses
        ],
    }
    lines = [f"count={len(witnesses)}"] + [repr(w.path) for w in witnesses]
    _emit(report, args.format, lines)
    return 0


def cmd_gallery(args):
    system = _load_system(args)
    path = _load_path(system, args)
    decorated = galleries.decorate_with_max_chains(path, args.h)
    total = galleries.codim_tilde(decorated, args.h)
    report = {
        "codim_tilde": total,
        "codim": paths.stats(path, args.h).codim,
        "galleries": [
            {"t": format_rational(t), **g.to_json_dict()} for t, g in decorated.galleries
        ],
    }
    lines = [f"codim_tilde={total}"]
    for t, g in decorated.galleries:
        lines.append(
            f"t={format_rational(t)} type={[i + 1 for i in g.type_word]} folds={sorted(g.folds)} "
            f"true={list(g.trueness())} neg={galleries.neg_count(g)}"
        )
    _emit(report, args.format, lines)
    return 0


def cmd_pattern(args):
    system = _load_system(args)
    path = _load_path(system, args)
    pat = galleries.parameter_pattern(path, args.h)
    report = pat.to_json_dict()
    lines = [f"N={pat.length} factors={' '.join(pat.factors) if pat.factors else '(empty)'}"]
    _emit(report, args.format, lines)
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "check-hecke": cmd_check_hecke,
    "check-ls": cmd_check_ls,
    "stats": cmd_stats,
    "apply-op": cmd_apply_op,
    "crystal": cmd_crystal,
    "mult": cmd_mult,
    "enumerate-hecke": cmd_enumerate_hecke,
    "gallery": cmd_gallery,
    "pattern": cmd_pattern,
}


def _default_height() -> int:
    env_h = os.environ.get("HPL_HEIGHT_BOUND")
    try:
        return int(env_h) if env_h else DEFAULT_HEIGHT
    except ValueError as exc:
        raise FormatError(f"HPL_HEIGHT_BOUND must be an integer, got {env_h!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """A new parser whose --h defaults to HPL_HEIGHT_BOUND, else DEFAULT_HEIGHT."""
    return _new_parser(_default_height())


def _new_parser(default_h: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hpl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--system", required=False, help="system file (JSON)")
        p.add_argument("--h", type=int, default=default_h, help="root height bound")
        p.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP, dest="depth_cap")
        p.add_argument("--format", choices=("json", "text", "dot"), default="text")
        if name in ("check-hecke", "check-ls", "stats", "apply-op", "gallery", "pattern"):
            p.add_argument("--path", help="path file (JSON)")
        if name == "apply-op":
            p.add_argument("--kind", choices=("e", "f", "etilde"), required=True)
            p.add_argument("--index", type=int, required=True, help="1-based generator index")
        if name in ("crystal", "mult", "enumerate-hecke"):
            p.add_argument("--lambda", dest="lam", required=True, help="shape, comma-separated")
        if name == "mult":
            p.add_argument("--mu", required=True, help="target weight, comma-separated")
        if name == "enumerate-hecke":
            p.add_argument("--y0", required=True)
            p.add_argument("--y1", required=True)
    return parser


# main reads the variable on every call but builds the parser once per value;
# parse_args leaves the parser unchanged, so one instance serves every call
_cached_parser = functools.lru_cache(maxsize=1)(_new_parser)


def main(argv=None) -> int:
    try:
        args = _cached_parser(_default_height()).parse_args(argv)
        if args.h <= 0 or args.depth_cap <= 0:
            print("bounds must be positive", file=sys.stderr)
            return 2
        return COMMANDS[args.command](args)
    except CrossCheckMismatch as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, CapHit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HPLError as exc:
        print(f"no: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
