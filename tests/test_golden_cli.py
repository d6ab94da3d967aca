"""Byte-exact CLI outputs on a fixed set of path files.

`tests/golden_cli.json` holds, for each path over A2, B2, G2 and A1^(1), the
exit status, standard output and standard error of `hpl check-hecke`,
`check-ls`, `stats`, `gallery` and `pattern` with `--format json`, and of
`check-hecke`, `check-ls`, `gallery` and `pattern` again with `--h=2` and
`--h=3`.  At these height bounds many runs end in `HeightBoundTooSmall`,
so the order in which breakpoints and chains are walked is pinned too.  The set
mixes LS paths, Hecke paths that are not LS (some with several chains to
choose from at a breakpoint) and non-Hecke paths, so the certificates the
chain search returns, the walls it tallies and the galleries it folds are
all pinned.

It also pins `hpl validate --format json` on A2, B2, G2, A3, A1^(1), the
twisted affine matrix [[2,-1,0],[-1,2,-1],[0,-3,2]], an indefinite matrix
and a B2 realization on non-integral roots and coroots, and `hpl mult
--format json` on shapes of A2, B2, G2, A3 and A1^(1) (`system_runs`), so
the realization, the symmetrizer, the type, the coroot coordinates and rho
each system is built with are pinned through their outputs.

The file also pins the argument parser: the exact output and exit status of
`hpl --help`, of `hpl <command> --help` for every command and of the usage
errors (no arguments, an unknown command, an unrecognized option after a
complete command line, an invalid choice, an invalid integer, a negative
value given as a separate argument, and an argument after `--`), at a
terminal width of 80 columns (argparse formats help by `COLUMNS`, and its
layout differs between Python versions).  An abbreviated option
(`--lam`) is pinned among the system runs.

After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden_cli.py

which keeps the inputs in the file and rewrites every recorded run.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from heckepaths.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
COMMANDS = ("check-hecke", "check-ls", "stats", "gallery", "pattern")
SMALL_H = (2, 3)
SMALL_H_COMMANDS = ("check-hecke", "check-ls", "gallery", "pattern")


def _run(system: dict, path: dict, command: str, workdir: Path, extra=()) -> dict:
    sys_file = workdir / "system.json"
    path_file = workdir / "path.json"
    sys_file.write_text(json.dumps(system))
    path_file.write_text(json.dumps(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([command, f"--system={sys_file}", f"--path={path_file}", "--format=json", *extra])
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_system(system: dict, argv, workdir: Path) -> dict:
    """argv[0] on the given system file, with the rest of argv after it."""
    sys_file = workdir / "system.json"
    sys_file.write_text(json.dumps(system))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([argv[0], f"--system={sys_file}", *argv[1:]])
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_argv(argv) -> dict:
    """main(argv) at 80 columns with HPL_HEIGHT_BOUND unset; argparse ends
    --help and usage errors with SystemExit, whose code is the exit status."""
    env = {k: v for k, v in os.environ.items() if k != "HPL_HEIGHT_BOUND"}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {**env, "COLUMNS": "80"}, clear=True):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(list(argv))
            except SystemExit as exc:
                status = exc.code
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cases():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [
        pytest.param(data["systems"][case["system"]], case, command, id=f"{case['name']}-{command}")
        for case in data["cases"]
        for command in COMMANDS
    ]


def _small_h_cases():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [
        pytest.param(data["systems"][case["system"]], case, h, command, id=f"{case['name']}-h{h}-{command}")
        for case in data["cases"]
        for h in SMALL_H
        for command in SMALL_H_COMMANDS
    ]


@pytest.mark.parametrize("system, case, command", _cases())
def test_golden_cli(system, case, command, tmp_path):
    assert _run(system, case["path"], command, tmp_path) == case["runs"][command]


@pytest.mark.parametrize("system, case, h, command", _small_h_cases())
def test_golden_cli_small_h(system, case, h, command, tmp_path):
    run = _run(system, case["path"], command, tmp_path, [f"--h={h}"])
    assert run == case["runs_small_h"][str(h)][command]


def _system_runs():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [
        pytest.param(data["systems"][entry["system"]], entry, id=f"{entry['system']}-{' '.join(entry['argv'])}")
        for entry in data["system_runs"]
    ]


@pytest.mark.parametrize("system, entry", _system_runs())
def test_golden_system_run(system, entry, tmp_path):
    assert _run_system(system, entry["argv"], tmp_path) == entry["run"]


def test_golden_system_runs_cover_the_types():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = data["system_runs"]
    validated = {e["system"] for e in runs if e["argv"][0] == "validate"}
    assert validated == {"A2", "B2", "G2", "A3", "A1aff", "twisted", "indefinite", "B2rational"}
    types = {json.loads(e["run"]["stdout"])["type"] for e in runs if e["argv"][0] == "validate"}
    assert types == {"finite", "affine", "indefinite"}
    assert {e["system"] for e in runs if e["argv"][0] == "mult"} == {"A2", "B2", "G2", "A3", "A1aff"}


@pytest.mark.parametrize(
    "entry",
    json.loads(GOLDEN.read_text(encoding="utf-8"))["parser_runs"],
    ids=lambda entry: " ".join(entry["argv"]),
)
def test_golden_parser(entry):
    assert _run_argv(entry["argv"]) == entry["run"]


def test_golden_parser_covers_every_command():
    from heckepaths.cli import COMMANDS as CLI_COMMANDS

    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))["parser_runs"]
    argvs = [e["argv"] for e in entries]
    assert ["--help"] in argvs
    assert all([name, "--help"] in argvs for name in CLI_COMMANDS)
    assert any(e["run"]["exit"] == 2 and "usage: hpl" in e["run"]["stderr"] for e in entries)


def test_height_env_read_on_every_call(tmp_path, monkeypatch):
    """Two in-process runs on one path that needs a root of height 3: the
    variable set to 2 makes the first fail, and unset, the second passes."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    case = next(c for c in data["cases"] if c["name"] == "B2-pool104")
    system = data["systems"][case["system"]]
    monkeypatch.setenv("HPL_HEIGHT_BOUND", "2")
    first = _run(system, case["path"], "check-hecke", tmp_path)
    assert first["exit"] == 1 and "height bound 2 too small" in first["stderr"]
    assert first == case["runs_small_h"]["2"]["check-hecke"]
    monkeypatch.delenv("HPL_HEIGHT_BOUND")
    second = _run(system, case["path"], "check-hecke", tmp_path)
    assert second["exit"] == 0 and second == case["runs"]["check-hecke"]


def test_golden_set_covers_the_verdicts():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(data["cases"]) >= 20
    assert {c["system"] for c in data["cases"]} == {"A2", "B2", "G2", "A1aff"}
    verdicts = {(c["runs"]["check-hecke"]["exit"], c["runs"]["check-ls"]["exit"]) for c in data["cases"]}
    assert {(0, 0), (0, 1), (1, 1)} <= verdicts  # LS, Hecke but not LS, not Hecke
    for h in SMALL_H:
        runs = [c["runs_small_h"][str(h)][command] for c in data["cases"] for command in SMALL_H_COMMANDS]
        assert any("height bound" in r["stderr"] for r in runs)  # HeightBoundTooSmall


def record():
    import tempfile

    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for case in data["cases"]:
            system = data["systems"][case["system"]]
            case["runs"] = {c: _run(system, case["path"], c, Path(tmp)) for c in COMMANDS}
            case["runs_small_h"] = {
                str(h): {c: _run(system, case["path"], c, Path(tmp), [f"--h={h}"]) for c in SMALL_H_COMMANDS}
                for h in SMALL_H
            }
        for entry in data["system_runs"]:
            entry["run"] = _run_system(data["systems"][entry["system"]], entry["argv"], Path(tmp))
    for entry in data["parser_runs"]:
        entry["run"] = _run_argv(entry["argv"])
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
