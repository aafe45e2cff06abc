#!/usr/bin/env python3
"""TfxBench.ServerDeathIsCounted: SIGKILL tfx_serve during phase 2.

    python3 death_test.py path/to/tfx_bench

The run must fail (non-zero exit) within the server's 10 s ack timeout,
report the lost ops in its result line (failed > 0), and leave neither a
tfx_serve process nor its work directory behind.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ACK_TIMEOUT_S = 10


def processes_mentioning(text):
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if text.encode() in f.read():
                    found.append(int(pid))
        except OSError:
            pass
    return found


def main():
    tfx_bench = sys.argv[1]
    tmp = tempfile.mkdtemp(prefix="tfx_bench-death-", dir=os.getcwd())
    work_dir = os.path.join(tmp, "work")
    try:
        start = time.monotonic()
        run = subprocess.run(
            [tfx_bench, "--smoke", "--workload=serve-ingest", "--seconds=1",
             "--kill_server_in_phase2", f"--work_dir={work_dir}",
             f"--trace_dir={tmp}"],
            capture_output=True, text=True, timeout=120)
        elapsed = time.monotonic() - start
        print(run.stdout)
        failures = []
        if run.returncode == 0:
            failures.append("exit status 0 after the server was killed")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if result["correct"] or result["failed"] <= 0:
            failures.append(f"the lost ops were not counted: {result}")
        if result["failed"] > result["attempted"]:
            failures.append("more ops failed than were attempted")
        if elapsed > ACK_TIMEOUT_S + 5:
            failures.append(f"took {elapsed:.1f} s to notice the death")
        if os.path.exists(work_dir):
            failures.append(f"left {work_dir} behind")
        if processes_mentioning(work_dir):
            failures.append("left a tfx_serve process behind")
        for f in failures:
            print("FAIL:", f)
        return 1 if failures else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
