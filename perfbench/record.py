"""Record the sha256 of every op's stdout into expected.json.

    python3 perfbench/record.py

Runs every op of every workload, all pool members included, once.  Run it
only at a commit whose outputs are known to be right: the benchmark treats
these digests as the correct outputs.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import workloads

    digests = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.job_list(workload, None):
            rc, stdout, stderr, wall, _ = run.call_main(op.argv)
            sha, _ = workloads.digest(stdout)
            problem = workloads.verdict(op, rc, stdout, stderr, sha, {op.op_id: sha})
            if op.known_failure is not None:
                print(f"{op.op_id}: not recorded ({problem or 'defect fixed'})")
                continue
            if problem is not None:
                print(f"{op.op_id}: {problem}", file=sys.stderr)
                return 1
            digests[op.op_id] = sha
            print(f"{op.op_id}: {wall:.2f} s")
    workloads.EXPECTED_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
