"""Self-test of the benchmark's checks: a wrong value must count as a failure.

    python3 perfbench/selftest.py

For each workload, runs a short cycle against the golden record, then
corrupts one expected value (or, for the crystal, makes the oracle off by
one) and runs the cycle again.  Each case passes when failed_ratio rises and
the run stops being correct.  Exit status 0 when every case passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_library()

import workloads as wl  # noqa: E402


def flip(digest: str) -> str:
    return ("1" if digest[0] == "0" else "0") + digest[1:]


def crystal_digest(golden, workload):
    entry = golden["crystal"][wl.crystal_key("twisted", (0, 0, 0, 1))]
    entry["digest"] = flip(entry["digest"])


def crystal_oracle_off_by_one(golden, workload):
    oracle = workload.lib.model.freudenthal_multiplicity
    workload.lib.model.freudenthal_multiplicity = lambda *a, **k: oracle(*a, **k) + 1


def recognize_digest(golden, workload):
    item = golden["recognize"]["pool"][workload.ops[0][0]]
    item["digest"] = flip(item["digest"])


def enumerate_digest(golden, workload):
    query = golden["enumerate"]["queries"][workload.ops[0]]
    query["digest"] = flip(query["digest"])


# (workload, operations kept to make the cycle short, corruption)
CASES = (
    ("crystal", lambda w: [op for op in w.ops if op[0] == "twisted"], crystal_digest),
    ("crystal", lambda w: [op for op in w.ops if op[0] == "twisted"], crystal_oracle_off_by_one),
    ("recognize", lambda w: w.ops[:40], recognize_digest),
    ("enumerate", lambda w: [op for op in w.ops if w.queries[op]["class"] == "finite"][:10], enumerate_digest),
)


def main() -> int:
    systems = wl.load_system_data()
    failed_cases = 0
    for name, keep, corrupt in CASES:
        golden = wl.load_golden()
        workload = wl.WORKLOADS[name](wl.import_library(), 1, golden, systems)
        workload.ops = keep(workload)
        clean = run.summarize([run.run_cycle(workload)])
        corrupt(golden, workload)
        bad = run.summarize([run.run_cycle(workload)])
        bites = clean.correct and not bad.correct and bad.failed_ratio > clean.failed_ratio
        failed_cases += not bites
        print(
            f"{'PASS' if bites else 'FAIL'} {name} / {corrupt.__name__}: failed_ratio "
            f"{clean.failed_ratio:.4f} -> {bad.failed_ratio:.4f}, correct {clean.correct} -> {bad.correct}"
        )
    return 1 if failed_cases else 0


if __name__ == "__main__":
    sys.exit(main())
