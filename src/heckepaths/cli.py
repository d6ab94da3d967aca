"""Command-line front end.

Exit status: 0 for success (and "yes" answers), 1 for a domain "no" (path
fails a check, with the failing condition named), 2 for malformed input or
internal errors.  All rational I/O uses "p/q" strings; JSON reports are
emitted with sorted keys so identical inputs give byte-identical output.

A command's own argparse parser reads its arguments.  The hpl parser reads
the command line only to print help, usage and errors: when the first word
is not a command, or the command's parser leaves arguments over.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import galleries, model, paths
from .errors import CapHit, CrossCheckMismatch, FormatError, HPLError
from .linalg import format_rational, format_vector, parse_rational
from .root_system import RootGeneratingSystem

DEFAULT_HEIGHT = 20
DEFAULT_DEPTH_CAP = 200


def _dumps(value, indent="\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for str keys, without the pure-Python
    encoder that an indent selects, whose nested functions make reference cycles."""
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return repr(value) if type(value) is int else json.dumps(value)


def _emit(report: dict, fmt: str, text_lines: list, dot: str | None = None):
    if fmt == "json":
        print(_dumps(report))
    elif fmt == "dot":
        if dot is None:
            raise FormatError("dot output is only available for the crystal command")
        print(dot)
    else:
        print("\n".join(text_lines))


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


def _load_path(args):
    """The --path file, over the --system file's system (path.system)."""
    system = _load_system(args)
    if not args.path:
        raise FormatError("--path FILE is required")
    return paths.load_path(system, args.path)


def _cert_dicts(certs):
    return [
        {
            "t": format_rational(c.t),
            "kind": c.kind,
            "roots": [list(b.coeffs) for b in c.roots],
            "xis": [format_vector(x) for x in c.xis],
            "cosets": [[i + 1 for i in w.word] for w in c.cosets],
        }
        for c in certs
    ]


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


def cmd_check(args):
    """check-hecke or check-ls; an LS check of a path in Y reports its cross-check."""
    kind = args.command.removeprefix("check-")
    path = _load_path(args)
    res = paths.is_hecke(path, args.h) if kind == "hecke" else paths.is_ls(path, args.h)
    report = {
        "ok": res.ok,
        "check": kind,
        "reason": res.reason,
        "certificates": _cert_dicts(res.certificates),
        "path": paths.path_to_json_dict(path),
    }
    if kind == "ls" and path.in_Y:
        # ddim as is_ls read it: the roots of the path's ddim events
        ddim = sum(len(roots) for _, roots in paths.ddim_events(path, args.h))
        hecke = paths.is_hecke(path, args.h).ok
        gap = path.system.rho_value(tuple(a - b for a, b in zip(path.shape, path.nu)))
        report["cross_check"] = {"ddim": ddim, "rho_gap": format_rational(gap), "hecke": hecke}
    _emit(report, args.format, [f"{kind}: {'yes' if res.ok else 'no'}"] + ([res.reason] if res.reason else []))
    return 0 if res.ok else 1


def cmd_stats(args):
    path = _load_path(args)
    st = paths.stats(path, args.h)
    report = {"ddim": st.ddim, "codim": st.codim, "dim": st.dim, "path": paths.path_to_json_dict(path)}
    for name in ("pos", "neg", "pos_reverse", "neg_reverse"):
        report[name] = {repr(k): v for k, v in sorted(getattr(st, name).items(), key=lambda kv: kv[0].coeffs)}
    _emit(report, args.format, [f"ddim={st.ddim} codim={st.codim} dim={st.dim}"])
    return 0


def cmd_apply_op(args):
    path = _load_path(args)
    if not 1 <= args.index <= path.system.n:
        raise FormatError(f"generator index {args.index} out of range 1..{path.system.n}")
    out = paths.root_operator(args.kind, args.index - 1, path)
    report = {"ok": True, "result": paths.path_to_json_dict(out)}
    _emit(report, args.format, [json.dumps(report["result"], sort_keys=True)])
    return 0


def cmd_crystal(args):
    system = _load_system(args)
    lam = _parse_point(args.lam, system)
    graph = model.generate_ls_paths(system, lam, args.depth_cap)
    lines = [f"nodes={len(graph.nodes)} edges={len(graph.edges)} partial={graph.partial}"]
    _emit(graph.to_json_dict(), args.format, lines, dot=graph.to_dot() if args.format == "dot" else None)
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
        oracle = agree = None
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
    lines = [f"count={len(witnesses)}"]
    if args.format == "text":  # each repr builds the path's vertices
        lines += [repr(w.path) for w in witnesses]
    _emit(report, args.format, lines)
    return 0


def cmd_gallery(args):
    path = _load_path(args)
    decorated = galleries.decorate_with_max_chains(path, args.h)
    total = galleries.codim_tilde(decorated, args.h)
    report = {
        "codim_tilde": total,
        "codim": paths.stats(path, args.h).codim,
        "galleries": [{"t": format_rational(t), **g.to_json_dict()} for t, g in decorated.galleries],
    }
    lines = [f"codim_tilde={total}"] + [
        f"t={format_rational(t)} type={[i + 1 for i in g.type_word]} folds={sorted(g.folds)} "
        f"true={list(g.trueness())} neg={galleries.neg_count(g)}"
        for t, g in decorated.galleries
    ]
    _emit(report, args.format, lines)
    return 0


def cmd_pattern(args):
    path = _load_path(args)
    pat = galleries.parameter_pattern(path, args.h)
    lines = [f"N={pat.length} factors={' '.join(pat.factors) if pat.factors else '(empty)'}"]
    _emit(pat.to_json_dict(), args.format, lines)
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "check-hecke": cmd_check,
    "check-ls": cmd_check,
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
    return _new_parser(_default_height())[0]


def _new_parser(default_h: int):
    """The hpl parser, whose help shows the first two paragraphs of the module
    docstring, and its command parsers by name."""
    parser = argparse.ArgumentParser(prog="hpl", description="\n\n".join(__doc__.split("\n\n")[:2]))
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
    return parser, sub.choices


# main reads the variable on every call but builds the parsers once per value;
# parsing leaves a parser unchanged, so one instance serves every call
_cached_parser = functools.lru_cache(maxsize=1)(_new_parser)


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        parser, commands = _cached_parser(_default_height())
        # the command's parser reads what the hpl parser would hand it; see the module docstring
        args, rest = None, argv
        if argv and argv[0] in commands:
            args, rest = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if args is None or rest:
            args = parser.parse_args(argv)
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
