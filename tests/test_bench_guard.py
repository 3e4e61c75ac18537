"""Guard: one pass of each benchmark workload succeeds and reproduces its
pinned seed-0 digest, which covers every build's spanner edges, rounds,
messages, bits, edge load and violations.  ``fixture`` runs
improved_spanner for k=2..6 on the corpus graphs with n <= 100, each
verified; ``short-runs`` the Baswana-Sen comparator and the 3-spanners on
the corpus; ``cli-er2000`` two CLI builds on n=2000 ER graphs.  The
benchmark is run as it ships, from ``bench/``, in a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# workload -> (operations per pass, digest prefix at seed 0).  The
# fixture and cli-er2000 digests were re-pinned when one-vertex bipartite
# covers began to end at star formation; short-runs builds no bipartite
# cover, and its digest held.
WORKLOADS = {
    "fixture": (85, "814a9c463816"),
    "short-runs": (380, "a70e2189d152"),
    "cli-er2000": (2, "ae2038946f80"),
}


def _pass_keeps_its_digest(workload):
    attempted, digest = WORKLOADS[workload]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == attempted
    digests = [line.split("digest ", 1)[1] for line in lines
               if line.startswith(f"workload {workload} seed 0:")]
    assert len(digests) == 1 and digests[0].startswith(digest), digests


def test_fixture_bench_pass_keeps_its_digest():
    _pass_keeps_its_digest("fixture")


@pytest.mark.parametrize("workload", ["short-runs", "cli-er2000"])
def test_bench_pass_keeps_its_digest(workload):
    _pass_keeps_its_digest(workload)
