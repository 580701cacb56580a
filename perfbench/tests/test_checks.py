import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads


def write_flo2(path, dx, dy):
    h, w = dx.shape
    with open(path, "wb") as fh:
        fh.write(b"FLO2" + struct.pack("<II", w, h))
        fh.write(dx.astype("<f4").tobytes() + dy.astype("<f4").tobytes())


def make_flow(root, scenes=2, frames=3, seed=0):
    rng = np.random.default_rng(seed)
    for s in range(scenes):
        d = os.path.join(root, f"scene_{s}")
        os.makedirs(d)
        with open(os.path.join(d, "meta.json"), "w") as fh:
            json.dump({"channels": 2}, fh)
        for f in range(frames):
            dx, dy = rng.uniform(-1, 1, (2, 6, 8)).astype(np.float32)
            write_flo2(os.path.join(d, f"frame_{f:06d}.flo2"), dx, dy)


def test_flow_check_passes_on_identical_files_and_fails_on_one_altered_file(tmp_path):
    make_flow(str(tmp_path))
    golden = checks.flow_outputs(str(tmp_path))
    assert checks.check_flow(checks.flow_outputs(str(tmp_path)), golden) == []

    path = tmp_path / "scene_1" / "frame_000002.flo2"
    planes = checks.read_flo2(str(path)).copy()
    planes[0, 3, 4] += 0.5
    write_flo2(str(path), planes[0], planes[1])
    problems = checks.check_flow(checks.flow_outputs(str(tmp_path)), golden)
    assert len(problems) == 1 and "scene_1" in problems[0]


def test_flow_check_accepts_bytes_that_differ_within_the_summary_tolerance(tmp_path):
    make_flow(str(tmp_path), scenes=1)
    golden = checks.flow_outputs(str(tmp_path))
    path = tmp_path / "scene_0" / "frame_000000.flo2"
    planes = checks.read_flo2(str(path)).copy()
    planes[1, 0, 0] = np.nextafter(planes[1, 0, 0], np.float32(2))  # one ulp
    write_flo2(str(path), planes[0], planes[1])
    got = checks.flow_outputs(str(tmp_path))
    assert got["scene_0"]["sha256"] != golden["scene_0"]["sha256"]
    assert checks.check_flow(got, golden) == []


def test_structural_flow_check_rejects_non_finite_values(tmp_path):
    make_flow(str(tmp_path), scenes=1)
    path = tmp_path / "scene_0" / "frame_000001.flo2"
    planes = checks.read_flo2(str(path)).copy()
    planes[0, 0, 0] = np.nan
    write_flo2(str(path), planes[0], planes[1])
    assert checks.check_flow(checks.flow_outputs(str(tmp_path)), None)


EVAL = {"scores": {"a:0:0": [0.8, 0.7, 0.75], "b:0:0": [0.3, 0.2, 0.25]},
        "rows": {name: {"accuracy": 1.0} for name in checks.REPORT_ROWS}}


def test_eval_check_fails_when_one_stored_score_moves_by_1e_4():
    assert checks.check_eval(EVAL, EVAL) == []
    moved = json.loads(json.dumps(EVAL))
    moved["scores"]["b:0:0"][1] += 1e-4
    assert len(checks.check_eval(EVAL, moved)) == 1


def test_eval_check_compares_report_rows_exactly():
    changed = json.loads(json.dumps(EVAL))
    changed["rows"]["Flow"]["accuracy"] = 0.9375
    assert checks.check_eval(EVAL, changed)


def test_structural_eval_check_needs_three_rows_and_scores_in_the_unit_interval():
    assert checks.check_eval(EVAL, None) == []
    bad = json.loads(json.dumps(EVAL))
    del bad["rows"]["RGB+Flow"]
    bad["scores"]["a:0:0"][0] = float("nan")
    assert len(checks.check_eval(bad, None)) == 2


def _fake_cli(score):
    def cli_call(argv):
        return 0, f"{score:.6f} other\n", ""
    return cli_call


def test_a_moved_infer_score_counts_in_failed_ratio(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "cli_call", _fake_cli(0.5))
    wl = workloads.InferStream(str(tmp_path), seed=0)
    wl.config = "unused.json"
    wl.probes = [(f"p{i}", str(tmp_path)) for i in range(4)]
    wl.golden = {"infer": {f"p{i}": 0.5 for i in range(4)}}
    assert wl.unit(0).failed == 0

    wl.golden["infer"]["p2"] += 1e-4
    res = wl.unit(1)
    assert res.failed == 1 and res.attempted == 4
    assert run.summarize([res])["failed_ratio"] == pytest.approx(0.25)


def test_an_altered_flow_file_counts_in_failed_ratio(tmp_path, monkeypatch):
    wl = workloads.FlowLargeFrames(str(tmp_path), seed=0)
    wl.tree = str(tmp_path / "tree")
    wl.config = "unused.json"
    flow_root = os.path.join(wl.tree, "work", "flow")
    runs = iter([0, 0, 1])  # the third run writes different flow

    def cli_call(argv):
        make_flow(flow_root, seed=next(runs))
        return 0, "", ""
    monkeypatch.setattr(workloads, "cli_call", cli_call)

    wl.golden = {"flow": wl.unit(0).outputs["flow"]}
    assert wl.unit(1).failed == 0
    res = wl.unit(2)
    assert res.failed == 1
    assert run.summarize([res])["failed_ratio"] == 1.0


def test_run_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(run.HERE, name)).read())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
