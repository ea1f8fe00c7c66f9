"""Tests of the benchmark itself, on a tiny street so that they run in seconds."""

from __future__ import annotations

import json
import shutil
import time
from types import SimpleNamespace

import pytest

import run
import tracing

TINY = {
    "street_length": 20.0,
    "car_count": 4,
    "scan_count": 6,
    "points_per_scan": 4000,
    "surface_density": 150.0,
    "bend_degrees": 0.0,
}
SEED = 3
SCANS = TINY["scan_count"]
STREETS = [SEED, SEED + 1]


@pytest.fixture
def session():
    """A fresh session per test, so that every test has the whole deadline."""
    return run.Session()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    run.Session().worker("prepare", "--spec", json.dumps(TINY), "--seeds", str(SEED),
                         "--inputs", str(path))
    return path / str(SEED)


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return run.measure(TINY, STREETS, seconds=0, trace=True, work=work, setup_samples=1)


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(record, trace, key):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[key]
    line = run.result_line(record, trace)
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    json.loads(json.dumps(line))


def test_tiny_run_is_correct_and_accurate(record):
    assert record["problems"] == []
    assert record["correct"]
    # one untraced run per street and one traced run of the first street
    assert record["attempted"] == (len(STREETS) + 1) * SCANS
    assert [row["seed"] for row in record["streets"]] == STREETS
    assert record["failed"] == 0
    assert record["metrics"]["xy_err_max_mm"]["value"] < 1000.0 * run.FAIL_XY_M
    assert record["metrics"]["registration.icp_iterations"]["value"] > 0
    assert record["metrics"]["spatial.nearest_icp_queries"]["value"] > 0


def test_traced_pose_files_match_the_untraced_run(session, inputs, tmp_path):
    plain = run.run_once(session, inputs, tmp_path / "plain", SCANS).poses
    traced = run.run_once(session, inputs, tmp_path / "traced", SCANS, spans=tmp_path / "spans.json")
    assert set(plain) == set(run.POSE_FILES)
    assert all(plain.values())
    assert traced.poses == plain
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_corrupted_ground_truth_shows_as_failed_scans(session, inputs, tmp_path):
    corrupted = tmp_path / "inputs"
    shutil.copytree(inputs, corrupted)
    lines = (corrupted / "gt_poses.txt").read_text().splitlines()
    for i in (1, 4):  # move two ground-truth positions 1 m along x
        values = lines[i].split()
        values[3] = repr(float(values[3]) + 1.0)
        lines[i] = " ".join(values)
    (corrupted / "gt_poses.txt").write_text("\n".join(lines) + "\n")

    checked = run.run_once(session, corrupted, tmp_path / "out", SCANS)
    assert checked.result["status"] == "ok"
    assert checked.problems == []
    assert checked.score["failed"] == 2
    assert sorted(checked.score["xy_mm"])[-2] > 900.0


def test_output_check_reports_a_missing_artifact(session, inputs, tmp_path):
    out = tmp_path / "out"
    result = session.worker("pipeline", "--inputs", str(inputs), "--out", str(out))
    assert run.check_outputs(out, result, SCANS) == []
    (out / "spaces.json").unlink()
    assert run.check_outputs(out, result, SCANS) == ["manifest names missing spaces.json"]
    assert run.check_outputs(out, result, SCANS + 1)


def test_a_failed_run_fails_every_scan(tmp_path):
    result = {"status": "error:coarse", "exit_code": 1}
    assert run.check_outputs(tmp_path, result, SCANS) == []
    assert run.score(tmp_path, tmp_path / "gt.txt", result, SCANS)["failed"] == SCANS


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    ns = SimpleNamespace(
        leaf=lambda: time.sleep(0.01),
        root=lambda: (ns.leaf(), ns.leaf(), time.sleep(0.01)),
    )
    tracer.wrap(ns, "leaf", "leaf")
    tracer.wrap(ns, "root", "root")
    ns.root()
    names = [s.name for s in tracer.spans]
    assert names == ["root", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    own = tracer.self_seconds()
    root = tracer.spans[0]
    assert own[0] == pytest.approx(root.seconds - tracer.spans[1].seconds - tracer.spans[2].seconds)
    assert sum(own) == pytest.approx(root.seconds)
