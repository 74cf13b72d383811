"""Record the golden outputs of every benchmark item into golden.json.

    python3 -m perfbench.record

Run from the repository root, only on a commit whose outputs are known to
be right: every later run is checked against what this writes.  Each
workload runs once in canonical order.  Recording also stores n, m and the
number of tangent directions of every verified packing, and checks each
oracle item's polyform count against the OEIS tables.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from . import golden, workloads
from .run import BUILD_DIR, import_sepack


def record_workload(sepack, workload: str) -> dict:
    items, inputs = {}, {}
    for chain in workloads.chains(workload):
        for argv in chain:
            item = workloads.item_id(argv)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = sepack.cli.main(list(argv))
            if rc != 0:
                raise SystemExit(f"{item} exited {rc}; nothing recorded")
            items[item] = golden.summarize(argv, rc, out.getvalue())
            if argv[0] == "verify":
                inputs[argv[1]] = golden.input_size(sepack, argv[1])
            if "--oracle" in argv:
                n, d = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--d") + 1])
                count = len(sepack.contact_numbers.enumerate_fixed_polyforms(n, d))
                if count != golden.OEIS_FIXED_POLYFORMS[d][n - 1]:
                    raise SystemExit(f"{item}: {count} fixed polyforms, OEIS says otherwise")
    return {"items": items, "inputs": inputs}


def main() -> int:
    sepack = import_sepack()
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    records = {}
    with tempfile.TemporaryDirectory(dir=BUILD_DIR, prefix="record-") as work:
        os.chdir(work)
        try:
            for workload in workloads.WORKLOADS:
                records[workload] = record_workload(sepack, workload)
                print(f"{workload}: {len(records[workload]['items'])} items", file=sys.stderr)
        finally:
            os.chdir(cwd)
    with open(golden.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"workloads": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
