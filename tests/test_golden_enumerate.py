"""Byte-exact `hpl enumerate-hecke` runs on a fixed set of queries.

`tests/golden_enumerate.json` holds, for each query below at the default
height bound and at `--h` 2, 3 and 4, the exit status of the run and the
SHA-256 digests of its standard output and standard error (`--format json`).
The queries go from 0 to y1 over A2, B2, G2, A3 and A1^(1); at the small
height bounds many end in `HeightBoundTooSmall`, so the order in which the
enumeration walks fold points and chains is pinned too, and at the default
bound the witnesses, their order and their certificates are.

After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden_enumerate.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from heckepaths.cli import main

GOLDEN = Path(__file__).with_name("golden_enumerate.json")
SYSTEMS = {
    "A1aff": [[2, -2], [-2, 2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
}
HEIGHTS = (None, 2, 3, 4)  # None: the default bound

# (system, lambda, y1); every query starts at y0 = 0
QUERIES = [
    ("A2", (1, 1), (1, 1)),
    ("A2", (1, 1), (1, 0)),
    ("A2", (1, 1), (1, -1)),
    ("A2", (1, 1), (1, -2)),
    ("A2", (1, 1), (0, 1)),
    ("A2", (1, 1), (0, 0)),
    ("A2", (1, 1), (0, -1)),
    ("A2", (1, 1), (-1, 1)),
    ("A2", (1, 1), (-1, 0)),
    ("A2", (1, 1), (-2, 1)),
    ("A2", (1, 2), (1, 2)),
    ("A2", (1, 2), (1, 1)),
    ("A2", (1, 2), (1, 0)),
    ("A2", (1, 2), (1, -1)),
    ("A2", (1, 2), (0, 2)),
    ("A2", (1, 2), (0, 1)),
    ("A2", (1, 2), (0, 0)),
    ("A2", (1, 2), (-1, 2)),
    ("A2", (1, 2), (-1, 1)),
    ("A2", (1, 2), (-2, 2)),
    ("A2", (2, 1), (2, 1)),
    ("A2", (2, 1), (2, 0)),
    ("A2", (2, 1), (2, -1)),
    ("A2", (2, 1), (2, -2)),
    ("A2", (2, 1), (1, 1)),
    ("A2", (2, 1), (1, 0)),
    ("A2", (2, 1), (1, -1)),
    ("A2", (2, 1), (0, 1)),
    ("A2", (2, 1), (0, 0)),
    ("A2", (2, 1), (-1, 1)),
    ("A2", (2, 2), (2, 2)),
    ("A2", (2, 2), (2, 1)),
    ("A2", (2, 2), (2, 0)),
    ("A2", (2, 2), (2, -1)),
    ("A2", (2, 2), (1, 2)),
    ("A2", (2, 2), (1, 1)),
    ("A2", (2, 2), (1, 0)),
    ("A2", (2, 2), (0, 2)),
    ("A2", (2, 2), (0, 1)),
    ("A2", (2, 2), (-1, 2)),
    ("A2", (2, 3), (2, 3)),
    ("A2", (2, 3), (2, 2)),
    ("A2", (2, 3), (2, 1)),
    ("A2", (2, 3), (2, 0)),
    ("A2", (2, 3), (1, 3)),
    ("A2", (2, 3), (1, 2)),
    ("A2", (2, 3), (1, 1)),
    ("A2", (2, 3), (0, 3)),
    ("A2", (2, 3), (0, 2)),
    ("A2", (2, 3), (-1, 3)),
    ("A2", (3, 2), (3, 2)),
    ("A2", (3, 2), (3, 1)),
    ("A2", (3, 2), (3, 0)),
    ("A2", (3, 2), (3, -1)),
    ("A2", (3, 2), (2, 2)),
    ("A2", (3, 2), (2, 1)),
    ("A2", (3, 2), (2, 0)),
    ("A2", (3, 2), (1, 2)),
    ("A2", (3, 2), (1, 1)),
    ("A2", (3, 2), (0, 2)),
    ("B2", (1, 1), (1, 1)),
    ("B2", (1, 1), (1, 0)),
    ("B2", (1, 1), (1, -1)),
    ("B2", (1, 1), (1, -2)),
    ("B2", (1, 1), (0, 1)),
    ("B2", (1, 1), (0, 0)),
    ("B2", (1, 1), (0, -1)),
    ("B2", (1, 1), (-1, 1)),
    ("B2", (1, 1), (-1, 0)),
    ("B2", (1, 1), (-2, 1)),
    ("B2", (1, 2), (1, 2)),
    ("B2", (1, 2), (1, 1)),
    ("B2", (1, 2), (1, 0)),
    ("B2", (1, 2), (1, -1)),
    ("B2", (1, 2), (0, 2)),
    ("B2", (1, 2), (0, 1)),
    ("B2", (1, 2), (0, 0)),
    ("B2", (1, 2), (-1, 2)),
    ("B2", (1, 2), (-1, 1)),
    ("B2", (1, 2), (-2, 2)),
    ("B2", (2, 2), (2, 2)),
    ("B2", (2, 2), (2, 1)),
    ("B2", (2, 2), (2, 0)),
    ("B2", (2, 2), (2, -1)),
    ("B2", (2, 2), (1, 2)),
    ("B2", (2, 2), (1, 1)),
    ("B2", (2, 2), (1, 0)),
    ("B2", (2, 2), (0, 2)),
    ("B2", (2, 2), (0, 1)),
    ("B2", (2, 2), (-1, 2)),
    ("B2", (2, 3), (2, 3)),
    ("B2", (2, 3), (2, 2)),
    ("B2", (2, 3), (2, 1)),
    ("B2", (2, 3), (2, 0)),
    ("B2", (2, 3), (1, 3)),
    ("B2", (2, 3), (1, 2)),
    ("B2", (2, 3), (1, 1)),
    ("B2", (2, 3), (0, 3)),
    ("B2", (2, 3), (0, 2)),
    ("B2", (2, 3), (-1, 3)),
    ("G2", (2, 1), (2, 1)),
    ("G2", (2, 1), (2, 0)),
    ("G2", (2, 1), (2, -1)),
    ("G2", (2, 1), (2, -2)),
    ("G2", (2, 1), (1, 1)),
    ("G2", (2, 1), (1, 0)),
    ("G2", (2, 1), (1, -1)),
    ("G2", (2, 1), (0, 1)),
    ("G2", (2, 1), (0, 0)),
    ("G2", (2, 1), (-1, 1)),
    ("G2", (3, 2), (3, 2)),
    ("G2", (3, 2), (3, 1)),
    ("G2", (3, 2), (3, 0)),
    ("G2", (3, 2), (3, -1)),
    ("G2", (3, 2), (2, 2)),
    ("G2", (3, 2), (2, 1)),
    ("G2", (3, 2), (2, 0)),
    ("G2", (3, 2), (1, 2)),
    ("G2", (3, 2), (1, 1)),
    ("G2", (3, 2), (0, 2)),
    ("A3", (1, 1, 1), (1, 1, 1)),
    ("A3", (1, 1, 1), (1, 1, 0)),
    ("A3", (1, 1, 1), (1, 1, -1)),
    ("A3", (1, 1, 1), (1, 0, 1)),
    ("A3", (1, 1, 1), (1, 0, 0)),
    ("A3", (1, 1, 1), (1, -1, 1)),
    ("A3", (1, 1, 1), (0, 1, 1)),
    ("A3", (1, 1, 1), (0, 1, 0)),
    ("A3", (1, 1, 1), (0, 0, 1)),
    ("A3", (1, 1, 1), (-1, 1, 1)),
    ("A3", (1, 2, 1), (1, 2, 1)),
    ("A3", (1, 2, 1), (1, 2, 0)),
    ("A3", (1, 2, 1), (1, 2, -1)),
    ("A3", (1, 2, 1), (1, 1, 1)),
    ("A3", (1, 2, 1), (1, 1, 0)),
    ("A3", (1, 2, 1), (1, 0, 1)),
    ("A3", (1, 2, 1), (0, 2, 1)),
    ("A3", (1, 2, 1), (0, 2, 0)),
    ("A3", (1, 2, 1), (0, 1, 1)),
    ("A3", (1, 2, 1), (-1, 2, 1)),
    ("A1aff", (0, 0, 1), (0, 0, 1)),
    ("A1aff", (0, 0, 1), (0, -1, 1)),
    ("A1aff", (0, 0, 1), (0, -2, 1)),
    ("A1aff", (0, 0, 1), (0, -3, 1)),
    ("A1aff", (0, 0, 1), (-1, 0, 1)),
    ("A1aff", (0, 0, 1), (-1, -1, 1)),
    ("A1aff", (0, 0, 1), (-1, -2, 1)),
    ("A1aff", (0, 0, 1), (-2, 0, 1)),
    ("A1aff", (0, 0, 1), (-2, -1, 1)),
    ("A1aff", (0, 0, 1), (-3, 0, 1)),
    ("A1aff", (0, 0, 2), (0, 0, 2)),
    ("A1aff", (0, 0, 2), (0, -1, 2)),
    ("A1aff", (0, 0, 2), (0, -2, 2)),
    ("A1aff", (0, 0, 2), (0, -3, 2)),
    ("A1aff", (0, 0, 2), (-1, 0, 2)),
    ("A1aff", (0, 0, 2), (-1, -1, 2)),
    ("A1aff", (0, 0, 2), (-1, -2, 2)),
    ("A1aff", (0, 0, 2), (-2, 0, 2)),
    ("A1aff", (0, 0, 2), (-2, -1, 2)),
    ("A1aff", (0, 0, 2), (-3, 0, 2)),
    ("A1aff", (0, 1, 2), (0, 1, 2)),
    ("A1aff", (0, 1, 2), (0, 0, 2)),
    ("A1aff", (0, 1, 2), (0, -1, 2)),
    ("A1aff", (0, 1, 2), (0, -2, 2)),
    ("A1aff", (0, 1, 2), (-1, 1, 2)),
    ("A1aff", (0, 1, 2), (-1, 0, 2)),
    ("A1aff", (0, 1, 2), (-1, -1, 2)),
    ("A1aff", (0, 1, 2), (-2, 1, 2)),
    ("A1aff", (0, 1, 2), (-2, 0, 2)),
    ("A1aff", (0, 1, 2), (-3, 1, 2)),
]


def _csv(v) -> str:
    return ",".join(map(str, v))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key(k: int, h) -> str:
    system, lam, y1 = QUERIES[k]
    return f"{k}-{system}-{_csv(lam)}-to-{_csv(y1)}-h{h or 'default'}"


def _run(k: int, h, workdir: Path) -> dict:
    system, lam, y1 = QUERIES[k]
    sys_file = workdir / f"{system}.json"
    if not sys_file.exists():
        sys_file.write_text(json.dumps({"cartan_matrix": SYSTEMS[system]}))
    # "--y1=-1,0": argparse reads a separate "-1,0" as an option
    argv = [
        "enumerate-hecke", f"--system={sys_file}", f"--lambda={_csv(lam)}",
        f"--y0={_csv(0 for _ in lam)}", f"--y1={_csv(y1)}", "--format=json",
    ]
    if h is not None:
        argv.append(f"--h={h}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return {"exit": status, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("systems")


@pytest.mark.parametrize(
    "k, h", [pytest.param(k, h, id=_key(k, h)) for k in range(len(QUERIES)) for h in HEIGHTS]
)
def test_golden_enumerate(k, h, golden, workdir, monkeypatch):
    monkeypatch.delenv("HPL_HEIGHT_BOUND", raising=False)
    assert _run(k, h, workdir) == golden[_key(k, h)]


def test_golden_enumerate_covers_the_outcomes(golden):
    assert len(golden) == len(QUERIES) * len(HEIGHTS) == 680
    exits = {h: {golden[_key(k, h)]["exit"] for k in range(len(QUERIES))} for h in HEIGHTS}
    assert exits[None] == {0}
    assert all(exits[h] == {0, 1} for h in HEIGHTS[1:])  # 1: HeightBoundTooSmall


def record():
    import os
    import tempfile

    os.environ.pop("HPL_HEIGHT_BOUND", None)
    with tempfile.TemporaryDirectory() as tmp:
        runs = {_key(k, h): _run(k, h, Path(tmp)) for k in range(len(QUERIES)) for h in HEIGHTS}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
