"""One benchmark process: a set-up probe or one measured pass.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json request>'``
with the request keys ``workload``, ``seed``, ``spawned``, ``traced``,
``setup_only``, ``tiny`` and ``scratch``. Prints the pass record (see
:func:`workloads.run_pass`) as one JSON line on standard output, or
``{"error": <traceback>}`` and exit code 1 if the pass raised.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path


def main() -> int:
    request = json.loads(sys.argv[1])
    try:
        from workloads import WORKLOADS, run_pass

        workload = WORKLOADS[request["workload"]]
        if request["tiny"]:
            workload = workload.tiny()
        record = run_pass(
            workload,
            request["seed"],
            request["spawned"],
            traced=request["traced"],
            setup_only=request["setup_only"],
            scratch=Path(request["scratch"]),
        )
    except Exception:  # reported to the parent, which counts a failure
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
