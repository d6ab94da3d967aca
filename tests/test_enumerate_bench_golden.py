"""The enumerate queries of the benchmark's golden record, under pytest.

``perfbench/golden.json`` holds 170 ``hpl enumerate-hecke`` queries from 0
over A2, B2, G2, A3 and A1^(1), each with a digest of the exit status and
the exact JSON the CLI prints: the witnesses, their order, their
certificates and their LS verdicts.  Each query is run in-process through
the benchmark's own command line and digest, the heavy A1^(1) ones
included, which a benchmark cycle samples one per shape.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from heckepaths import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# the module already imported, not workloads.import_library(), which drops
# heckepaths from sys.modules and imports it afresh
LIB = SimpleNamespace(cli=cli)
QUERIES = workloads.load_golden()["enumerate"]["queries"]


@pytest.mark.parametrize("k", range(len(QUERIES)), ids=lambda k: f"{QUERIES[k]['system']}-{k}")
def test_enumerate_output_matches_the_golden_digest(k):
    code, text = workloads.cli_run(LIB, workloads.enumerate_argv(QUERIES[k]))
    assert workloads.digest(f"{code}\n{text}".encode()) == QUERIES[k]["digest"]


def test_queries_cover_every_class():
    assert len(QUERIES) == 170
    assert {q["class"] for q in QUERIES} == {
        "finite", "affine_small", "affine_mid", "affine_heavy_002", "affine_heavy_012"
    }
