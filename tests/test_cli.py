import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckepaths import cli
from heckepaths.cli import main
from heckepaths.paths import path_from_json_dict
from heckepaths.root_system import RootGeneratingSystem

from conftest import KERNEL_SYSTEMS


@pytest.fixture()
def files(tmp_path):
    a1 = tmp_path / "a1.json"
    a1.write_text(json.dumps({"cartan_matrix": [[2]], "names": ["a1"]}))
    a2 = tmp_path / "a2.json"
    a2.write_text(json.dumps({"cartan_matrix": [[2, -1], [-1, 2]], "names": ["a1", "a2"]}))
    fold = tmp_path / "fold.json"
    fold.write_text(
        json.dumps(
            {
                "lambda": ["1"],
                "start": ["0"],
                "directions": [[1], []],
                "breakpoints": ["0", "1/2", "1"],
            }
        )
    )
    ghost = tmp_path / "ghost.json"
    ghost.write_text(
        json.dumps(
            {
                "lambda": ["1"],
                "start": ["0"],
                "directions": [[1], []],
                "breakpoints": ["0", "3/8", "1"],
            }
        )
    )
    rise = tmp_path / "rise.json"  # climbs back in the Bruhat order: not Hecke, but in Y
    rise.write_text(
        json.dumps(
            {
                "lambda": ["1"],
                "start": ["0"],
                "directions": [[], [1]],
                "breakpoints": ["0", "1/2", "1"],
            }
        )
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    return {
        "a1": str(a1),
        "a2": str(a2),
        "fold": str(fold),
        "ghost": str(ghost),
        "rise": str(rise),
        "broken": str(broken),
    }


A2 = [[2, -1], [-1, 2]]
NONSYM = [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]
# system files of the exit-contract test, by the name its argv uses
SYSTEM_FILES = {
    "hyperbolic": {"cartan_matrix": [[2, -3], [-3, 2]]},
    "int-matrix": {"cartan_matrix": 5},
    "int-rows": {"cartan_matrix": [5, 6]},
    "top-level-int": 5,
    "int-names": {"cartan_matrix": A2, "names": 5},
    "string-names": {"cartan_matrix": A2, "names": "xyz"},
    "few-names": {"cartan_matrix": A2, "names": ["a"]},
    "int-roots": {"cartan_matrix": A2, "simple_roots": 5, "simple_coroots": [["1", "0"], ["0", "1"]]},
    "non-square": {"cartan_matrix": [[2, -1]]},
    "float-entry": {"cartan_matrix": [[2, 0.5], [-1, 2]]},
    "no-matrix": {"names": ["a"]},
    "roots-only": {"cartan_matrix": A2, "simple_roots": [["2", "-1"], ["-1", "2"]]},
    # not symmetrizable: a bad names list is refused before the symmetrizer, a bad rank_x after it
    "nonsym": {"cartan_matrix": NONSYM},
    "nonsym-few-names": {"cartan_matrix": NONSYM, "names": ["a"]},
    "nonsym-rank-x": {"cartan_matrix": NONSYM, "rank_x": 7},
}
# path files of the exit-contract test, on A1 unless named otherwise
PATH_FILES = {
    "mixed-signs-a2": {"lambda": ["1", "-1"], "start": ["0", "0"], "directions": [[]], "breakpoints": ["0", "1"]},
    "few-breakpoints": {"lambda": ["1"], "start": ["0"], "directions": [[1], []], "breakpoints": ["0", "1"]},
    "past-one": {"lambda": ["1"], "start": ["0"], "directions": [[1], []], "breakpoints": ["0", "1/2", "2"]},
    "decreasing": {
        "lambda": ["1"], "start": ["0"], "directions": [[1], [], [1]], "breakpoints": ["0", "1/2", "1/3", "1"]
    },
    "no-start": {"lambda": ["1"], "directions": [[1], []], "breakpoints": ["0", "1/2", "1"]},
    "antidominant": {"lambda": ["-1"], "start": ["0"], "directions": [[], [1]], "breakpoints": ["0", "1/2", "1"]},
}


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestStatuses:
    def test_check_ls_yes(self, files, capsys):
        status, out, _ = run(capsys, "check-ls", "--system", files["a1"], "--path", files["fold"])
        assert status == 0 and "ls: yes" in out

    def test_check_ls_reports_certificates(self, files, capsys):
        status, out, _ = run(
            capsys, "check-ls", "--system", files["a1"], "--path", files["fold"], "--format", "json"
        )
        report = json.loads(out)
        assert status == 0 and report["certificates"]
        assert report["cross_check"]["ddim"] == 1

    def test_check_hecke_ghost_fold(self, files, capsys):
        status, out, _ = run(capsys, "check-hecke", "--system", files["a1"], "--path", files["ghost"])
        assert status == 1
        assert "condition vii fails at t=3/8" in out

    def test_broken_file_is_status_2(self, files, capsys):
        status, _, err = run(capsys, "check-ls", "--system", files["a1"], "--path", files["broken"])
        assert status == 2 and "error" in err

    def test_fractional_generator_index_is_status_2(self, files, tmp_path, capsys):
        half = tmp_path / "half.json"
        half.write_text(
            json.dumps({"lambda": ["1"], "start": ["0"], "directions": [["3/2"], []], "breakpoints": ["0", "1/2", "1"]})
        )
        status, out, err = run(capsys, "check-hecke", "--system", files["a1"], "--path", str(half))
        assert (status, out) == (2, "")
        assert err == "error: generator indices in directions must be integers\n"

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"directions": [1, []]}, "expected a JSON array of rationals, got 1"),
            ([1, 2], "a path file holds a JSON object whose directions are a list of words"),
            ({"lambda": "1"}, "expected a JSON array of rationals, got '1'"),
            ({"directions": "12"}, "a path file holds a JSON object whose directions are a list of words"),
        ],
        ids=["int-direction", "top-level-list", "string-lambda", "string-directions"],
    )
    def test_mistyped_path_file_is_status_2(self, files, tmp_path, capsys, data, message):
        # each used to end in a TypeError traceback or be read as a sequence of characters
        if isinstance(data, dict):
            data = {"lambda": ["1"], "start": ["0"], "directions": [[1], []], "breakpoints": ["0", "1/2", "1"], **data}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        status, out, err = run(capsys, "check-hecke", "--system", files["a1"], "--path", str(bad))
        assert (status, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "roots, coroots, message",
        [
            ([["2", "-1"]], [["1", "0"], ["0", "1"]], "needs 2 simple roots and as many coroots"),
            ([["2", "-1"], ["-1", "2"]], [["1", "0"]], "needs 2 simple roots and as many coroots"),
            ([["2", "-1"], ["-1", "2"]], [["1", "0"], ["0", "1"], ["1", "1"]], "needs 2 simple roots and as many"),
            ([["2", "-1"], ["-1", "2", "0"]], [["1", "0"], ["0", "1"]], "must all have rank_x = 2 coordinates"),
            ([["2", "-1"], ["-1", "2"]], [["1", "0"], ["0", "1", "0"]], "must all have rank_x = 2 coordinates"),
        ],
        ids=["few-roots", "few-coroots", "many-coroots", "uneven-roots", "uneven-coroots"],
    )
    def test_malformed_realization_is_status_2(self, tmp_path, capsys, roots, coroots, message):
        sys_file = tmp_path / "system.json"
        sys_file.write_text(
            json.dumps({"cartan_matrix": [[2, -1], [-1, 2]], "simple_roots": roots, "simple_coroots": coroots})
        )
        status, _, err = run(capsys, "validate", "--system", str(sys_file))
        assert status == 2 and err.startswith("error: ") and message in err

    def test_pattern_factor_mismatch_is_internal_error(self, files, capsys, monkeypatch):
        # parameter_pattern checks its factor count against the ddim events;
        # an event that loses a root must surface as an internal error
        from heckepaths import galleries

        ddim_events = galleries.ddim_events

        def drop_one_root(path, h=20):
            events = ddim_events(path, h)
            t, roots = events[0]
            return [(t, roots[1:])] + events[1:]

        monkeypatch.setattr(galleries, "ddim_events", drop_one_root)
        status, _, err = run(capsys, "pattern", "--system", files["a1"], "--path", files["fold"])
        assert status == 2 and "internal error" in err

    def test_ls_cross_check_mismatch_is_internal_error(self, files, capsys, monkeypatch):
        # is_ls checks its chain search against Hecke + ddim on a path in Y; the fold
        # path is LS with ddim 1, so a ddim event that loses its root breaks the identity
        from heckepaths import paths

        ddim_walls = paths._ddim_walls

        def drop_one_root(path, h):
            big, events = ddim_walls(path, h)
            (n, roots), rest = events[0], events[1:]
            return big, [(n, roots[1:])] + rest

        monkeypatch.setattr(paths, "_ddim_walls", drop_one_root)
        status, _, err = run(capsys, "check-ls", "--system", files["a1"], "--path", files["fold"])
        assert status == 2
        assert err == "internal error: LS chain search says True, Hecke+ddim characterization says False\n"

    @pytest.mark.parametrize("name,ls", [("fold", True), ("rise", False)])
    def test_check_ls_walks_once(self, files, capsys, monkeypatch, name, ls):
        # check-ls reports the cross-check that is_ls computed, not a second run:
        # one Hecke breakpoint walk, and ddim read off the ddim events, not stats
        from heckepaths import paths

        calls = {"hecke": 0, "stats": 0}
        walk, tally = paths._breakpoint_chains, paths._tally

        def counted_walk(path, kind, h):
            calls["hecke"] += kind == "hecke"
            return walk(path, kind, h)

        def counted_tally(path, h):
            calls["stats"] += 1
            return tally(path, h)

        monkeypatch.setattr(paths, "_breakpoint_chains", counted_walk)
        monkeypatch.setattr(paths, "_tally", counted_tally)
        status, out, _ = run(
            capsys, "check-ls", "--system", files["a1"], "--path", files[name], "--format", "json"
        )
        assert status == (0 if ls else 1)
        assert json.loads(out)["cross_check"]["hecke"] is ls
        assert calls == {"hecke": 1, "stats": 0}

    def test_bad_bounds(self, files, capsys):
        status, _, err = run(capsys, "validate", "--system", files["a1"], "--h", "0")
        assert status == 2

    @pytest.mark.parametrize(
        "argv, status, expected",
        [
            (
                ["validate", "--system", "a2", "--format", "json"],
                0,
                {
                    "ok": True,
                    "type": "finite",
                    "rank": 2,
                    "rank_x": 2,
                    "symmetrizer": ["1", "1"],
                    "system": {
                        "cartan_matrix": [[2, -1], [-1, 2]],
                        "names": ["a1", "a2"],
                        "rank_x": 2,
                        "simple_coroots": [["1", "0"], ["0", "1"]],
                        "simple_roots": [["2", "-1"], ["-1", "2"]],
                    },
                },
            ),
            (["check-hecke", "--system", "a1"], 2, "error: --path FILE is required\n"),
            (
                ["mult", "--system", "a2", "--lambda", "1,1,0", "--mu", "0,0"],
                2,
                "error: expected 2 comma-separated coordinates, got 3\n",
            ),
            (
                ["validate", "--system", "a2", "--format", "dot"],
                2,
                "error: dot output is only available for the crystal command\n",
            ),
            (
                ["mult", "--system", "hyperbolic", "--lambda=-1,-1", "--mu=-1,-1", "--format", "json"],
                0,
                {"multiplicity": 1, "freudenthal": None, "agree": None},
            ),
            # malformed system files, each of which used to end in a TypeError
            # traceback or be read character by character
            (["validate", "--system", "int-matrix"], 2, "error: Cartan matrix must be a list of integer rows, got 5\n"),
            (
                ["validate", "--system", "int-rows"],
                2,
                "error: Cartan matrix must be a list of integer rows, got [5, 6]\n",
            ),
            (
                ["validate", "--system", "top-level-int"],
                2,
                "error: a system file holds a JSON object with a 'cartan_matrix' field\n",
            ),
            (["validate", "--system", "int-names"], 2, "error: names must be a list of 2 strings, got 5\n"),
            (["validate", "--system", "string-names"], 2, "error: names must be a list of 2 strings, got 'xyz'\n"),
            (["validate", "--system", "few-names"], 2, "error: names must be a list of 2 strings, got ['a']\n"),
            (
                ["validate", "--system", "int-roots"],
                2,
                "error: simple_roots and simple_coroots must be lists of covectors\n",
            ),
            (["validate"], 2, "error: --system FILE is required\n"),
            (["validate", "--system", "non-square"], 2, "error: Cartan matrix must be square\n"),
            (["validate", "--system", "float-entry"], 2, "error: Cartan matrix entries must be integers, got 0.5\n"),
            (["validate", "--system", "no-matrix"], 2, "error: system file needs a 'cartan_matrix' field\n"),
            (
                ["validate", "--system", "roots-only"],
                2,
                "error: simple_roots and simple_coroots must be supplied together\n",
            ),
            (["validate", "--system", "nonsym"], 1, "no: inconsistent symmetrizer constraints\n"),
            (["validate", "--system", "nonsym-few-names"], 2, "error: names must be a list of 3 strings, got ['a']\n"),
            (["validate", "--system", "nonsym-rank-x"], 1, "no: inconsistent symmetrizer constraints\n"),
            (
                ["validate", "--system", "no-such-system.json"],
                2,
                "error: cannot read system file no-such-system.json: [Errno 2] No such file or directory:"
                " 'no-such-system.json'\n",
            ),
            # a list is the text report's lines on stdout: the count, then one repr per witness
            (
                ["enumerate-hecke", "--system", "a2", "--lambda", "1,1", "--y0", "0,0", "--y1", "0,0"],
                0,
                [
                    "count=3",
                    "LambdaPath(('0', '0') -> ('-1/2', '0') -> ('0', '0'))",
                    "LambdaPath(('0', '0') -> ('-1/2', '-1/2') -> ('0', '0'))",
                    "LambdaPath(('0', '0') -> ('0', '-1/2') -> ('0', '0'))",
                ],
            ),
            (
                ["check-hecke", "--system", "a2", "--path", "mixed-signs-a2"],
                1,
                "no: path shape must be dominant (or antidominant)\n",
            ),
            (
                ["check-hecke", "--system", "a1", "--path", "few-breakpoints"],
                2,
                "error: breakpoints must run from 0 to 1 with one piece per direction\n",
            ),
            (
                ["check-hecke", "--system", "a1", "--path", "past-one"],
                2,
                "error: breakpoints must run from 0 to 1 with one piece per direction\n",
            ),
            (
                ["check-hecke", "--system", "a1", "--path", "decreasing"],
                2,
                "error: breakpoints must be strictly increasing\n",
            ),
            (["check-hecke", "--system", "a1", "--path", "no-start"], 2, "error: path file is missing field 'start'\n"),
            (
                ["check-hecke", "--system", "a1", "--path", "antidominant"],
                1,
                "no: Hecke recognition applies to dominant-shape paths\n",
            ),
            (
                ["check-ls", "--system", "a1", "--path", "antidominant"],
                1,
                "no: LS recognition applies to dominant-shape paths\n",
            ),
        ],
        ids=[
            "validate-json",
            "missing-path",
            "coordinate-count",
            "dot-outside-crystal",
            "mult-without-oracle",
            "int-matrix",
            "int-rows",
            "top-level-int",
            "int-names",
            "string-names",
            "few-names",
            "int-roots",
            "missing-system",
            "non-square",
            "float-entry",
            "no-matrix",
            "roots-only",
            "nonsym",
            "nonsym-few-names",
            "nonsym-rank-x",
            "unreadable-system",
            "enumerate-text",
            "mixed-signs",
            "few-breakpoints",
            "past-one",
            "decreasing",
            "no-start",
            "antidominant-hecke",
            "antidominant-ls",
        ],
    )
    def test_exit_contract(self, files, tmp_path, capsys, argv, status, expected):
        # a dict is the JSON report on stdout (these keys at least), a list the lines
        # of the whole stdout, a string the whole stderr
        named = dict(files)
        for name, data in {**SYSTEM_FILES, **PATH_FILES}.items():
            named[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        got, out, err = run(capsys, *(named.get(a, a) for a in argv))
        assert got == status
        if isinstance(expected, dict):
            report = json.loads(out)
            assert {k: report[k] for k in expected} == expected and err == ""
        elif isinstance(expected, list):
            assert (out.splitlines(), err) == (expected, "")
        else:
            assert (out, err) == ("", expected)


class TestMult:
    def test_a2_zero_weight(self, files, capsys):
        status, out, _ = run(
            capsys, "mult", "--system", files["a2"], "--lambda", "1,1", "--mu", "0,0"
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "2"
        assert "oracle agreement: yes" in lines[1]

    @pytest.mark.parametrize("mu", ["0,0", "-1,-1"])
    def test_non_dominant_shape_is_domain_no(self, files, capsys, mu):
        # the shape is refused whether or not mu lies below it
        status, _, err = run(
            capsys, "mult", "--system", files["a2"], "--lambda=-1,-1", f"--mu={mu}"
        )
        assert status == 1
        assert "crystal generation needs a dominant shape" in err

    def test_twisted_dual_oracle_failure_is_internal_error(self, tmp_path, capsys):
        # the Freudenthal oracle is wrong on this twisted affine matrix; the
        # inconsistency it trips over must surface as an internal error
        twisted = tmp_path / "twisted.json"
        twisted.write_text(json.dumps({"cartan_matrix": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]]}))
        status, _, err = run(
            capsys, "mult", "--system", str(twisted), "--lambda", "0,0,0,1", "--mu=-1,-2,-1,1"
        )
        assert status == 2 and "internal error" in err

    def test_non_integral_realization_has_no_oracle(self, tmp_path, capsys):
        # the Freudenthal oracle read 0 here, and the run exited 2 with "agree": false
        b2 = tmp_path / "b2rational.json"
        b2.write_text(json.dumps(KERNEL_SYSTEMS["B2rational"]))
        status, out, err = run(capsys, "mult", "--system", str(b2), "--lambda=3,-1", "--mu=0,0", "--format=json")
        assert (status, err) == (0, "")
        assert json.loads(out) == {"agree": None, "freudenthal": None, "multiplicity": 3}

    @pytest.mark.parametrize("mu", ["0,1,0", "1,0,0"])
    def test_affine_level_zero_weight_outside_tits_cone(self, tmp_path, capsys, mu):
        # lam = (1,1,0) is W-invariant in A1^(1), so V(lam) has the one weight
        # lam; mu has level 0 and a nonzero pairing, so it lies outside the Tits
        # cone, where the oracle must answer 0 without unwinding it
        a1aff = tmp_path / "a1aff.json"
        a1aff.write_text(json.dumps({"cartan_matrix": [[2, -2], [-2, 2]]}))
        status, out, err = run(
            capsys, "mult", "--system", str(a1aff), "--lambda", "1,1,0", "--mu", mu, "--format", "json"
        )
        assert status == 0 and err == ""
        assert json.loads(out) == {"agree": True, "freudenthal": 0, "multiplicity": 0}

    def test_affine_central_shape_is_decided_by_the_level_rule(self, tmp_path, capsys):
        # lam = N delta^v is central, and (1,0,0) has level 0 and a nonzero pairing, so it
        # lies outside the Tits cone: the gap-bounded unwind would take about N
        # reflections there, and the level rule answers at once, in the oracle and in
        # the reach test of the enumeration
        a1aff = tmp_path / "a1aff.json"
        a1aff.write_text(json.dumps({"cartan_matrix": [[2, -2], [-2, 2]]}))
        runs = [
            (["mult", "--mu=1,0,0"], {"agree": True, "freudenthal": 0, "multiplicity": 0}),
            (["enumerate-hecke", "--y0=0,0,0", "--y1=1,0,0"], {"count": 0, "paths": []}),
        ]
        for argv, expect in runs:
            start = time.perf_counter()
            status, out, err = run(capsys, argv[0], f"--system={a1aff}", "--lambda=10000000,10000000,0", *argv[1:], "--format=json")
            assert time.perf_counter() - start < 0.5
            assert status == 0 and err == "" and json.loads(out) == expect

    def test_affine_weight_of_tiny_level_off_y(self, tmp_path, capsys):
        # mu is in the Tits cone, at level 6/1000000007, and off Y, so not a weight of
        # V(lam); the oracle used to give up unwinding it (after 1.2 s) and print null
        a1aff = tmp_path / "a1aff.json"
        a1aff.write_text(json.dumps({"cartan_matrix": [[2, -2], [-2, 2]]}))
        argv = ["mult", f"--system={a1aff}", "--lambda=0,0,1", "--mu=4,0,6/1000000007", "--format=json"]
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            status, out, err = run(capsys, *argv)
            best = min(best, time.perf_counter() - start)
            assert status == 0 and err == ""
            assert json.loads(out) == {"agree": True, "freudenthal": 0, "multiplicity": 0}
        assert best < 0.01


class TestReports:
    def test_undefined_operator_is_domain_no(self, files, capsys):
        status, out, err = run(
            capsys, "apply-op", "--system", files["a1"], "--path", files["fold"],
            "--kind", "etilde", "--index", "1", "--format", "json",
        )
        assert status == 1  # etilde undefined on the LS path (never dips below Q)
        assert "undefined" in err

    def test_apply_op_round_trip(self, files, capsys):
        status, out, _ = run(
            capsys, "apply-op", "--system", files["a1"], "--path", files["fold"],
            "--kind", "e", "--index", "1", "--format", "json",
        )
        assert status == 0
        report = json.loads(out)
        system = RootGeneratingSystem.load(files["a1"])
        path = path_from_json_dict(system, report["result"])
        assert path.endpoint == (1,)

    @pytest.mark.parametrize("index", ["0", "2"])
    def test_apply_op_index_out_of_range_names_the_typed_index(self, files, capsys, index):
        status, out, err = run(
            capsys, "apply-op", "--system", files["a1"], "--path", files["fold"],
            "--kind", "e", "--index", index, "--format", "json",
        )
        assert status == 2 and out == ""
        assert f"generator index {index} out of range 1..1" in err

    @pytest.mark.parametrize("command", ["check-hecke", "stats", "pattern"])
    @pytest.mark.parametrize("index", [0, 3])
    def test_path_file_index_out_of_range_names_the_typed_index(self, files, capsys, tmp_path, command, index):
        path = tmp_path / "path.json"
        path.write_text(
            json.dumps({"lambda": ["1", "1"], "start": ["0", "0"], "directions": [[1, index]], "breakpoints": ["0", "1"]})
        )
        status, out, err = run(capsys, command, "--system", files["a2"], "--path", str(path))
        assert status == 2 and out == ""
        assert f"generator index {index} out of range 1..2" in err

    def test_crystal_json_round_trip(self, files, capsys):
        status, out, _ = run(
            capsys, "crystal", "--system", files["a2"], "--lambda", "1,1", "--format", "json"
        )
        assert status == 0
        report = json.loads(out)
        system = RootGeneratingSystem.load(files["a2"])
        nodes = [path_from_json_dict(system, n["path"]) for n in report["nodes"]]
        assert len(nodes) == 8

    def test_crystal_dot(self, files, capsys):
        status, out, _ = run(
            capsys, "crystal", "--system", files["a2"], "--lambda", "1,1", "--format", "dot"
        )
        assert status == 0 and out.startswith("digraph crystal {")

    def test_determinism(self, files, capsys):
        _, out1, _ = run(
            capsys, "enumerate-hecke", "--system", files["a2"], "--lambda", "1,1",
            "--y0", "0,0", "--y1", "0,0", "--format", "json",
        )
        _, out2, _ = run(
            capsys, "enumerate-hecke", "--system", files["a2"], "--lambda", "1,1",
            "--y0", "0,0", "--y1", "0,0", "--format", "json",
        )
        assert out1 == out2
        report = json.loads(out1)
        assert report["count"] == 3

    @pytest.mark.parametrize(
        "lam, y0, y1, status, message",
        [
            ("-1,0", "0,0", "0,0", 1, "no: enumerate_hecke needs a dominant shape"),
            ("1/2,1/2", "0,0", "0,0", 2, "error: enumerate_hecke endpoints and shape must lie in Y"),
            ("1,1", "0,0", "1/3,0", 2, "error: enumerate_hecke endpoints and shape must lie in Y"),
            ("-1/2,0", "1/2,0", "0,0", 1, "no: enumerate_hecke needs a dominant shape"),
        ],
        ids=["not-dominant", "shape-off-Y", "y1-off-Y", "both"],
    )
    def test_enumerate_entry_errors(self, files, capsys, lam, y0, y1, status, message):
        got = run(capsys, "enumerate-hecke", "--system", files["a2"], f"--lambda={lam}", f"--y0={y0}", f"--y1={y1}")
        assert got == (status, "", message + "\n")

    def test_enumerate_zero_shape_is_the_constant_path(self, files, capsys):
        status, out, _ = run(
            capsys, "enumerate-hecke", "--system", files["a2"], "--lambda", "0,0",
            "--y0=1,-2", "--y1=1,-2", "--format", "json",
        )
        assert status == 0 and json.loads(out) == {
            "count": 1,
            "paths": [
                {
                    "path": {"lambda": ["0", "0"], "start": ["1", "-2"], "directions": [[]], "breakpoints": ["0", "1"]},
                    "certificates": [],
                    "ls": True,
                }
            ],
        }

    def test_enumerate_affine_depth_four(self, tmp_path, capsys):
        # pinned on the code before the reachability prune (8.5 s there):
        # the exact JSON bytes of a level-2 A1^(1) query at endpoint depth 4
        a1aff = tmp_path / "a1aff.json"
        a1aff.write_text(json.dumps({"cartan_matrix": [[2, -2], [-2, 2]]}))
        status, out, _ = run(
            capsys, "enumerate-hecke", "--system", str(a1aff), "--lambda", "0,0,2",
            "--y0", "0,0,0", "--y1=-2,-2,2", "--format", "json",
        )
        assert status == 0 and json.loads(out)["count"] == 5
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "c007e4bb870092636f677d432991715c5dafb7ff698921da98dba48a4bca9ee1"

    def test_gallery_and_pattern(self, files, capsys):
        status, out, _ = run(capsys, "gallery", "--system", files["a1"], "--path", files["fold"])
        assert status == 0 and "codim_tilde=1" in out
        status, out, _ = run(capsys, "pattern", "--system", files["a1"], "--path", files["fold"])
        assert status == 0 and "N=1" in out and "kappa*" in out

    def test_gallery_pattern_json_round_trip(self, files, capsys):
        from heckepaths.galleries import ParameterPattern, gallery_from_json_dict, neg_count

        system = RootGeneratingSystem.load(files["a1"])
        status, out, _ = run(
            capsys, "gallery", "--system", files["a1"], "--path", files["fold"], "--format", "json"
        )
        report = json.loads(out)
        g = gallery_from_json_dict(system, report["galleries"][0])
        assert neg_count(g) == report["galleries"][0]["neg"]
        status, out, _ = run(
            capsys, "pattern", "--system", files["a1"], "--path", files["fold"], "--format", "json"
        )
        pat = ParameterPattern.from_json_dict(json.loads(out))
        assert pat.length == 1 and pat.factors == ("kappa*",)


class TestEnvOverride:
    def test_height_env(self, files, capsys, monkeypatch):
        monkeypatch.setenv("HPL_HEIGHT_BOUND", "33")
        from heckepaths.cli import build_parser

        args = build_parser().parse_args(["validate", "--system", files["a1"]])
        assert args.h == 33

    def test_height_env_not_an_integer(self, files, capsys, monkeypatch):
        monkeypatch.setenv("HPL_HEIGHT_BOUND", "abc")
        status, _, err = run(capsys, "validate", "--system", files["a1"])
        assert status == 2 and "HPL_HEIGHT_BOUND" in err


class TestOneShot:
    def test_fresh_interpreter_matches_in_process(self, files, capsys, monkeypatch):
        # every other test shares this process's parser; this one builds it fresh
        argv = [
            "enumerate-hecke", "--system", files["a2"], "--lambda", "1,1",
            "--y0", "0,0", "--y1", "0,0", "--format=json",
        ]
        monkeypatch.delenv("HPL_HEIGHT_BOUND", raising=False)
        env = {k: v for k, v in os.environ.items() if k != "HPL_HEIGHT_BOUND"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        fresh = subprocess.run(
            [sys.executable, "-m", "heckepaths.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        status, out, _ = run(capsys, *argv)
        assert (fresh.returncode, fresh.stdout) == (status, out)
        assert status == 0 and json.loads(out)["count"] == 3


class TestJsonWriter:
    """cli._dumps prints every JSON report; it must give the bytes of
    json.dumps(report, sort_keys=True, indent=2)."""

    @staticmethod
    def reference(report):
        return json.dumps(report, sort_keys=True, indent=2)

    def test_golden_cli_reports(self):
        data = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
        runs = [r for case in data["cases"] for r in case["runs"].values()]
        runs += [r for case in data["cases"] for by_h in case["runs_small_h"].values() for r in by_h.values()]
        runs += [e["run"] for e in data["system_runs"]]
        reports = [json.loads(r["stdout"]) for r in runs if r["stdout"].startswith("{")]
        assert len(reports) > 250
        for report in reports:
            assert cli._dumps(report) == self.reference(report)

    def test_bench_enumerate_reports(self):
        from test_enumerate_bench_golden import LIB, QUERIES, workloads

        for query in QUERIES:
            code, text = workloads.cli_run(LIB, workloads.enumerate_argv(query))
            report = json.loads(text)
            assert code == 0 and cli._dumps(report) + "\n" == text
            assert cli._dumps(report) == self.reference(report)

    @given(
        report=st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.integers(-(10**40), 10**40),
                st.text(),
                st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.lists(inner, max_size=4).map(tuple),
                st.dictionaries(st.text(), inner, max_size=4),
            ),
            max_leaves=20,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_nested_reports(self, report):
        assert cli._dumps(report) == self.reference(report)

    def test_json_reports_leave_no_cycles(self, files, capsys):
        argv = ["enumerate-hecke", "--system", files["a2"], "--lambda", "1,1", "--y0", "0,0", "--y1", "0,0"]
        argv.append("--format=json")
        assert main(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(20):
                assert main(argv) == 0
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        capsys.readouterr()
