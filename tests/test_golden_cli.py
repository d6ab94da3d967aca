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

After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden_cli.py

which keeps the inputs in the file and rewrites every recorded run.
"""

import contextlib
import io
import json
from pathlib import Path

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
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
