"""What the benchmark's recorder reads of the library, under pytest.

``perfbench/record.py`` re-records ``perfbench/golden.json``.  Beside each
recognize pool path it adds near misses: one with a moved breakpoint, and one
whose last direction is reflected by the first simple reflection that moves
it and read back as a coset rep.  That step calls
``RootGeneratingSystem.simple_reflection`` and ``coset_of_vector``; it runs
here on a small A2 path, so that a change to either shows in a test before
the golden record is recorded again.
"""

import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path

from heckepaths import RootGeneratingSystem
from heckepaths.paths import make_path

RECORD = Path(__file__).resolve().parent.parent / "perfbench" / "record.py"
_spec = importlib.util.spec_from_file_location("perfbench_record", RECORD)
record = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_near_misses_move_a_breakpoint_and_reflect_the_last_direction():
    a2 = RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])
    path = make_path(a2, (1, 1), (0, 0), [(0, 1), ()], [0, F(1, 2), 1])
    # r_1 moves the last direction lambda = (1, 1) to (0, 1), of coset rep s_1
    assert record.near_misses(None, path) == [
        ([[0, 1], []], [0, F(1, 4), 1]),
        ([[0, 1], [0]], [0, F(1, 2), 1]),
    ]
