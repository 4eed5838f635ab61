"""Set-up probe: a fresh interpreter imports specsweep.cli and runs one op.

Reads the op's scenario text on stdin and prints {"import_s": ...}; the
parent times the whole process as one set-up sample.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import specsweep.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workloads.WORKLOADS[sys.argv[1]].op(sys.stdin.read(), workloads.ReadCounter())
    print(json.dumps({"import_s": import_s}))
