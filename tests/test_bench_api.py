"""The package API that the benchmark's workers call.

`python3 -m pytest bench` tests the benchmark's checkers without running
becnlo, so a name or signature that bench/worker.py relies on is checked
here: the first scenarios of one scan round go through `worker.scan_op` and
must pass `worker.check_scan`, and the traced oracle runs (`worker.py sweep`
and `worker.py cli`) must record each solve with its iteration count, which
bench/run.py divides by.
"""

import contextlib
import json
import os
import subprocess
import sys

import pytest

import becnlo
import becnlo.cli  # noqa: F401  (scan_op reads the CLI's grid defaults)
from conftest import REPO_ROOT

SOLVE = "gpe.solve_ground_state"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(REPO_ROOT / "bench"))
        import worker

        yield worker


def test_scan_op_runs_and_checks(worker):
    for p, amps in worker.make_scenarios(1)[:8]:
        out = worker.scan_op(becnlo, becnlo.config_from_dict(p), amps, contextlib.nullcontext())
        assert worker.check_scan(p, out) == []


def run_worker(tmp_path, *argv):
    """(stdout, spans) of `bench/worker.py MODE SPANS ARG...` run from this checkout's src/."""
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "worker.py"), argv[0], str(spans_path), *argv[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(spans_path.read_text(encoding="utf-8"))


def solves_within(spans, outer):
    """The solve spans that have `outer` among their ancestors."""
    parent_of = {span["id"]: span["parent"] for span in spans}

    def ancestors(span):
        parent = span["parent"]
        while parent is not None:
            yield parent
            parent = parent_of[parent]

    return [span for span in spans if span["name"] == SOLVE and outer["id"] in ancestors(span)]


def assert_counted(solves):
    assert solves
    for solve in solves:
        assert isinstance(solve["iterations"], int) and solve["iterations"] >= 1


def test_traced_sweep_counts_each_solve(worker, tmp_path):
    out, spans = run_worker(tmp_path, "sweep")
    sweeps = [span for span in spans if span["name"].startswith("sweep.n")]
    assert sorted(span["name"] for span in sweeps) == sorted(f"sweep.n{n}" for n in worker.SWEEP_POINTS)
    for outer in sweeps:
        assert_counted(solves_within(spans, outer))
    reports = json.loads(out)
    keys = set(becnlo.compare_tf_vs_gpe(becnlo.sodium_reference_config(), grid_points=512).to_dict())
    assert sorted(reports) == sorted(map(str, worker.SWEEP_POINTS))
    assert all(set(report) == keys for report in reports.values())


def test_traced_stored_oracle_counts_its_solve(tmp_path):
    out, spans = run_worker(tmp_path, "cli", "oracle", "--stored", "--idealized")
    (main,) = [span for span in spans if span["name"] == "cli.main"]
    assert_counted(solves_within(spans, main))
    assert isinstance(json.loads(out)["iterations"], int)
