#!/usr/bin/env python3
"""Run the acceptance battery and print one pass/fail line per criterion.

Exits nonzero if any criterion fails.
"""

import sys
import time

from shiftrank.acceptance import ALL_CRITERIA


def main() -> int:
    failed = []
    for cid, fn in ALL_CRITERIA:
        t0 = time.time()
        r = fn()
        print(f"[{time.time() - t0:6.1f}s] {r.line()}", flush=True)
        if not r.ok:
            failed.append(cid)
    print()
    if failed:
        print(f"FAILED criteria: {', '.join(failed)}")
        return 1
    print("all criteria passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
