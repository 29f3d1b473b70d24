"""Record the reference outputs that acceptance-seed runs are checked against.

    python3 perfbench/record_refs.py

Makes one pass over each workload at the acceptance seeds, exactly as a
benchmark pass makes it, checks every operation's invariants and
writes the facts the checks compare to perfbench/refs/<workload>.json. Run it
only at a commit whose outputs are known good; the references pin them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import checks, worker  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def main() -> int:
    for name in WORKLOADS:
        out = os.path.join(ROOT, ".perfbench_out", "refs", name)
        cli, ops, paths = worker.setup(name, out)
        results = worker.run_pass(cli, ops, paths, out, None)["results"]
        for op_name, (code, _) in results.items():
            if code != 0:
                print(f"{name}/{op_name}: exit code {code}", file=sys.stderr)
                return 1
        refs = {op.name: checks.check(op, os.path.join(out, op.name))
                for op in ops}
        path = os.path.join(HERE, "refs", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
