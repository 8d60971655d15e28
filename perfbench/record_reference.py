"""Record the reference each benchmark run at the default seed is checked against.

    python3 perfbench/record_reference.py

For the first ``OPS`` op indices of every workload it stores the digest of the
op's trial records (without ``elapsed_seconds``) and the oracle rows it drew.
Run it only on a commit whose trial records are known to be right: a later
change must reproduce them byte for byte.
"""

import json
import sys

import workloads

OPS = 256


def main() -> int:
    seed = workloads.DEFAULT_SEED
    ops = {}
    for name, workload in workloads.WORKLOADS.items():
        entries = []
        for i in range(OPS):
            result = workloads.run_op(workload, workloads.op_seed(seed, i))
            rows, reason = workloads.check_op(workload, result)
            if reason is not None:
                print(f"{name} op {i} failed: {reason}", file=sys.stderr)
                return 1
            entries.append([workloads.digest(result), rows])
        ops[name] = entries
        print(f"{name}: {OPS} ops recorded", file=sys.stderr)
    text = json.dumps({"seed": seed, "ops": ops}, separators=(",", ":"))
    workloads.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
