"""Write reference.json: the checked values of the deterministic tasks.

Run from the repository root after a deliberate change of results:

    python3 perfbench/make_reference.py

Seeded tasks are checked by invariants and have no stored values.
"""

import json
import os
import shutil
import tempfile

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    workloads.import_capbmo(os.path.dirname(BENCH_DIR))
    reference = {}
    for workload in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
        try:
            for task in workloads.build(workload, 0, workdir):
                values = task.check(task.run())
                if values is not None:
                    reference.setdefault(workload, {})[task.name] = values
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
