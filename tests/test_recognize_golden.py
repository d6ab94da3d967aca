"""The recognize pool of the benchmark's golden record, under pytest.

``perfbench/golden.json`` holds 285 paths over five systems, each with a
digest of its recognize output: the Hecke and LS verdicts and reasons, ddim,
codim, dim, the four wall tallies, codim_tilde and the parameter pattern.
Each pool path is rebuilt from 0, as the benchmark's prepare step builds it,
and run through the benchmark's own pipeline and record.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from heckepaths import RootGeneratingSystem, galleries, paths

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# the modules already imported, not workloads.import_library(), which drops
# heckepaths from sys.modules and imports it afresh
LIB = SimpleNamespace(paths=paths, galleries=galleries)
POOL = workloads.load_golden()["recognize"]["pool"]
SYSTEMS = workloads.load_system_data()


def _run(item):
    system = RootGeneratingSystem.from_json_dict(SYSTEMS[item["system"]])
    start = (0,) * len(item["shape"])
    path = paths.make_path(system, item["shape"], start, item["words"], [Fraction(b) for b in item["breakpoints"]])
    return workloads.recognize_run(LIB, path)


@pytest.mark.parametrize("k", range(len(POOL)), ids=lambda k: f"{POOL[k]['system']}-{k}")
def test_recognize_output_matches_the_golden_digest(k):
    assert workloads.digest(workloads.recognize_record(_run(POOL[k]))) == POOL[k]["digest"]


def test_pool_covers_every_verdict():
    assert len(POOL) == 285
    verdicts = {workloads.recognize_verdict(_run(item)) for item in POOL}
    assert verdicts == {"ls", "hecke_not_ls", "not_hecke"}
