#!/usr/bin/env python3
"""Record ``reference.json``: each workload's default-seed ``--no-timing``
CSV digest and text, and every non-timing ``RunMetrics`` field of each
cell, run at one worker (and checked byte-identical at the workload's own
worker count).

Run from the checkout root: ``python3 perfbench/record_reference.py``.
Re-record only when a change is meant to alter the simulated numbers.
"""

import json
import sys

import run
import workloads as wl


def main() -> int:
    run.load_asymloc(run.ROOT)
    refs = {}
    for name, workload in wl.WORKLOADS.items():
        session = run.Session(workload, None)
        try:
            res = session.check_reference()
        finally:
            session.close()
        if session.problems or session.aborted:
            print(f"{name}: {session.problems}, {session.aborted} aborted runs", file=sys.stderr)
            return 1
        refs[name] = wl.reference_entry(res)
        print(f"{name}: {res.digest}")
    (run.HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
