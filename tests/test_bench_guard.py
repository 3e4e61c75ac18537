"""Guard: one pass of the benchmark's ``fixture`` workload (improved_spanner
for k=2..6 on the corpus graphs with n <= 100, each verified) succeeds and
reproduces its pinned seed-0 digest, which covers every build's spanner
edges, rounds, messages, bits, edge load and violations.  The benchmark is
run as it ships, from ``bench/``, in a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIGEST = "fd5ebbf16187"


def test_fixture_bench_pass_keeps_its_digest():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixture", "--seed", "0",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == 85
    digests = [line.split("digest ", 1)[1] for line in lines
               if line.startswith("workload fixture seed 0:")]
    assert len(digests) == 1 and digests[0].startswith(FIXTURE_DIGEST), digests
