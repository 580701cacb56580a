"""Command line wiring, exit codes and the advisory lock."""

import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from helpers import tree_bytes

from hhmon import backend, checkpoint, cli, clipset, frameio, model, synth, tvl1
from hhmon.errors import DataError
from hhmon.frameio import FrameSequence


def write_cfg(tmp_path, **overrides):
    data = {
        "seed": 0,
        "paths": {
            "dataset_dir": str(tmp_path / "ds"),
            "work_dir": str(tmp_path / "work"),
            "checkpoint_dir": str(tmp_path / "ckpt"),
            "report_dir": str(tmp_path / "report"),
        },
        "gen": {
            "n_rubbing": 3, "n_other": 3, "n_synthetic_rubbing": 1,
            "n_dates": 3, "n_synthetic_dates": 1,
            "width": 48, "height": 36,
            "n_frames_min": 18, "n_frames_max": 20,
        },
        "clip": {"input_size": 24},
        "train": {"pretrain_epochs": 2, "epochs": 2, "stills_per_scene": 2},
    }
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_print_config_round_trips(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["gen", "--config", path, "--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gen"]["n_rubbing"] == 3
    assert doc["seed"] == 0


def test_seed_flag_overrides_the_file(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["gen", "--config", path, "--seed", "7", "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7


def test_a_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    path = write_cfg(tmp_path)
    for argv in (["gen", "--config", path], ["gen", "--print-config"]):
        assert cli.main(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, got -1\n")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("splits", [None, "{not json", '{"train": [0]}',
                                    '{"train": [999], "val": [], "test": [0]}'],
                         ids=["missing", "invalid-json", "missing-key", "index-out-of-range"])
def test_train_and_eval_without_valid_splits_exit_3(tmp_path, capsys, splits):
    # what a prepare that died after writing annotations.csv leaves behind
    path = write_cfg(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    clipset.save_annotations([clipset.AnnotationRecord("v", "d00", 0, 0, 20, 1)],
                             str(work / "annotations.csv"))
    if splits is not None:
        (work / "splits.json").write_text(splits)
    for argv in (["train", "--stream", "rgb"], ["eval"]):
        assert cli.main(argv + ["--config", path]) == 3
        assert str(work / "splits.json") in capsys.readouterr().err


def test_bad_config_key_is_a_usage_error(tmp_path, capsys):
    path = write_cfg(tmp_path, optimizer={"kind": "adam"})
    assert cli.main(["gen", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "optimizer" in err


@pytest.mark.parametrize("clip, message", [
    ({"input_size": 24, "flip_prob": 1.5}, "error: clip: flip_prob"),
    # a zero stride once got through gen and died in prepare's window count
    ({"input_size": 24, "neg_stride": 0}, "error: clip: pos_stride and neg_stride"),
    # a float stride once got through gen and died in range() with a traceback
    ({"input_size": 24, "neg_stride": 2.5}, "error: clip: neg_stride must be int, got 2.5"),
], ids=["flip_prob", "neg_stride", "neg_stride_float"])
def test_bad_config_value_exits_2_before_writing_anything(tmp_path, capsys, clip, message):
    path = write_cfg(tmp_path, clip=clip)
    assert cli.main(["gen", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert not (tmp_path / "ds").exists()


def test_print_config_rejects_a_bad_value(tmp_path, capsys):
    path = write_cfg(tmp_path, flow={"tau": 0.3})
    assert cli.main(["gen", "--config", path, "--print-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: flow: tau")


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["gen", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["train"])  # --stream is required
    assert exc.value.code == 2


def test_calls_in_one_process_parse_independently(tmp_path, capsys):
    # the parser is built once per process: no flag or default may carry over
    path = write_cfg(tmp_path)
    clip_dir = tmp_path / "clip16"
    frameio.save_sequence(FrameSequence(np.random.default_rng(0).random((16, 24, 24, 3)),
                                        video_id="probe", date_tag="d"), str(clip_dir))
    net = model.Network.init(model.i3d_mini(in_channels=3, input_size=24), seed=0)
    checkpoint.save_network(net, str(tmp_path / "ckpt" / "rgb.swnet"))
    infer = ["infer", "--config", path, str(clip_dir)]

    assert cli.main(infer) == 0
    scored = capsys.readouterr().out
    assert re.fullmatch(r"\d\.\d{6} (rubbing_hands|other)\n", scored)

    assert cli.main(["gen", "--config", path, "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert not (tmp_path / "ds").exists()

    assert cli.main(["gen", "--config", path, "--force"]) == 0
    assert f"wrote 7 scenes to {tmp_path / 'ds'}" in capsys.readouterr().out
    assert cli.main(["gen", "--config", path]) == 3  # --force did not stay set
    assert "--force" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--config", path, "--frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()

    assert cli.main(["gen", "--config", path, "--seed", "7", "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    assert cli.main(["gen", "--config", path, "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0

    assert cli.main(infer) == 0
    assert capsys.readouterr().out == scored
    assert cli._build_parser() is cli._build_parser()


def test_live_lock_blocks_a_second_command(tmp_path, capsys):
    path = write_cfg(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    (work / ".lock").write_text(str(os.getpid()))  # this process: definitely alive
    assert cli.main(["gen", "--config", path]) == 2
    assert "another command holds the lock" in capsys.readouterr().err
    assert (work / ".lock").exists()  # a foreign live lock is left alone


def test_stale_lock_is_reclaimed(tmp_path, capsys):
    path = write_cfg(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (work / ".lock").write_text(str(child.pid))
    assert cli.main(["gen", "--config", path]) == 0
    assert "wrote 7 scenes" in capsys.readouterr().out
    assert not (work / ".lock").exists()


def test_full_command_journey(tmp_path, capsys):
    path = write_cfg(tmp_path)

    assert cli.main(["gen", "--config", path]) == 0
    out = capsys.readouterr().out
    assert f"wrote 7 scenes to {tmp_path / 'ds'}" in out
    assert "Hand Rubbing" in out  # prospective split table

    assert cli.main(["gen", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--force" in err
    assert cli.main(["gen", "--config", path, "--force"]) == 0
    capsys.readouterr()

    assert cli.main(["prepare", "--config", path]) == 0
    out = capsys.readouterr().out
    assert re.search(r"prepared 7 annotated clips \(train \d+, val \d+, test \d+\)", out)

    assert cli.main(["flow", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "computed flow for 7 scenes" in out
    workers = len(os.sched_getaffinity(0))
    assert f"({backend.BACKEND} kernels, {workers} process" in out

    assert cli.main(["eval", "--config", path]) == 3
    assert "no stream checkpoints" in capsys.readouterr().err

    assert cli.main(["train", "--config", path, "--stream", "rgb"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"rgb: head loss \d+\.\d{4} -> \d+\.\d{4} over 2 epochs "
                     r"\(\d+ training windows\)", out)
    assert "rgb scratch baseline: head loss" in out

    assert cli.main(["eval", "--config", path]) == 0
    cap = capsys.readouterr()
    assert "warning: flow: checkpoint missing" in cap.err
    assert "Model" in cap.out and "RGB+Flow" in cap.out and "absent" in cap.out
    assert f"report written to {tmp_path / 'report'}" in cap.out
    assert os.path.isfile(tmp_path / "report" / "report.json")

    scene_dir = tmp_path / "ds" / "scenes"
    vid = sorted(os.listdir(scene_dir))[0]
    seq = frameio.load_sequence(str(scene_dir / vid / "frames"))
    clip_dir = tmp_path / "clip16"
    frameio.save_sequence(FrameSequence(seq.data[:16], fps=seq.fps,
                                        video_id="probe", date_tag="d"), str(clip_dir))
    assert cli.main(["infer", "--config", path, str(clip_dir)]) == 0
    assert re.fullmatch(r"\d\.\d{6} (rubbing_hands|other)\n",
                        capsys.readouterr().out)


@pytest.mark.parametrize("meta", ['{"width": 4, "height": 4, "channels": 3}', "[1, 2]"],
                         ids=["missing-keys", "not-an-object"])
def test_infer_with_a_malformed_descriptor_exits_3(tmp_path, capsys, meta):
    path = write_cfg(tmp_path)
    clip_dir = tmp_path / "clip16"
    frameio.save_sequence(FrameSequence(np.zeros((16, 4, 4, 3)),
                                        video_id="probe", date_tag="d"), str(clip_dir))
    (clip_dir / "meta.json").write_text(meta)
    assert cli.main(["infer", "--config", path, str(clip_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {clip_dir / 'meta.json'}: descriptor")


def test_infer_with_an_unknown_block_kind_exits_4(tmp_path, capsys):
    path = write_cfg(tmp_path)
    clip_dir = tmp_path / "clip16"
    frameio.save_sequence(FrameSequence(np.zeros((16, 24, 24, 3)),
                                        video_id="probe", date_tag="d"), str(clip_dir))
    ckpt = tmp_path / "ckpt" / "rgb.swnet"
    net = model.Network.init(model.i3d_mini(in_channels=3, input_size=24), seed=0)
    checkpoint.save_network(net, str(ckpt))
    sidecar = tmp_path / "ckpt" / "rgb.swnet.spec.json"
    layout = json.loads(sidecar.read_text())
    layout["blocks"][2]["kind"] = "Foo"
    sidecar.write_text(json.dumps(layout))
    assert cli.main(["infer", "--config", path, str(clip_dir)]) == 4
    assert capsys.readouterr().err == f"error: {sidecar}: unknown block kind 'Foo' in net config\n"


def test_rgb_frames_are_read_from_the_manifest_frames_dir(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["gen", "--config", path]) == 0
    manifest_path = tmp_path / "ds" / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    # one training and one test scene, by the split rule prepare applies
    split = clipset.split_dataset(synth.manifest_records(manifest), seed=0)
    for i in (split.train[0], split.test[0]):
        entry = manifest["scenes"][i]
        scene = tmp_path / "ds" / "scenes" / entry["video_id"]
        os.rename(scene / "frames", scene / "rgb")
        entry["frames_dir"] = f"scenes/{entry['video_id']}/rgb"
    manifest_path.write_text(json.dumps(manifest))
    for command in (["prepare"], ["flow"], ["train", "--stream", "rgb"], ["eval"]):
        assert cli.main([command[0], "--config", path, *command[1:]]) == 0, command


def test_train_with_a_lost_tracks_file_exits_3(tmp_path, capsys):
    path = write_cfg(tmp_path)
    for command in ("gen", "prepare"):
        assert cli.main([command, "--config", path]) == 0
    video_id = json.loads((tmp_path / "work" / "splits.json").read_text())["video_ids"]["train"][0]
    tracks = tmp_path / "work" / "tracks" / f"{video_id}.txt"
    tracks.unlink()
    capsys.readouterr()
    assert cli.main(["train", "--stream", "rgb", "--config", path]) == 3
    err = capsys.readouterr().err
    assert str(tracks) in err and "run prepare first" in err


_ENTRY = {"video_id": "v", "date_tag": "d00", "class": 1, "frames_dir": "scenes/v/frames",
          "start_frame": 0, "end_frame": 20}


@pytest.mark.parametrize("manifest", [[], {"scenes": 5}, {"scenes": [_ENTRY]},
                                      {"scenes": [dict(_ENTRY, keypoints_file=3)]}],
                         ids=["not-an-object", "scenes-not-a-list", "no-keypoints-file",
                              "keypoints-file-not-a-string"])
def test_prepare_and_flow_with_a_malformed_manifest_exit_3(tmp_path, capsys, manifest):
    path = write_cfg(tmp_path)
    (tmp_path / "ds").mkdir()
    (tmp_path / "ds" / "dataset.json").write_text(json.dumps(manifest))
    for command in ("prepare", "flow"):
        assert cli.main([command, "--config", path]) == 3
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'ds' / 'dataset.json'}: ")


def test_prepare_without_a_scene_descriptor_exits_3(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["gen", "--config", path]) == 0
    frames_dir = tmp_path / "ds" / "scenes" / "oth_001" / "frames"
    os.remove(frames_dir / "meta.json")
    capsys.readouterr()
    assert cli.main(["prepare", "--config", path]) == 3
    assert capsys.readouterr().err == f"error: {frames_dir}: missing meta.json descriptor\n"


# oth_001's first range is among the first jobs handed out; synrub_000 is the
# last scene, so its first range is handed out after most jobs have finished
@pytest.mark.parametrize("video_id", ["oth_001", "synrub_000"])
def test_a_worker_data_error_exits_3_and_leaves_no_worker(tmp_path, capsys, monkeypatch,
                                                         video_id):
    path = write_cfg(tmp_path)
    assert cli.main(["gen", "--config", path]) == 0
    stack = tvl1._frame_stack
    scene = frameio.load_sequence(str(tmp_path / "ds" / "scenes" / video_id / "frames"))
    first = frameio.luminance(scene.data[0])

    def failing_stack(planes, params, where=""):
        # only the range from the scene's first frame fails, so the other
        # worker is still running when the error comes up
        if where.startswith(video_id) and np.array_equal(planes[0], first):
            raise DataError(f"{where}flow input has non-finite values")
        return stack(planes, params, where)

    monkeypatch.setattr(tvl1, "_frame_stack", failing_stack)  # before the pool forks
    capsys.readouterr()
    assert cli.main(["flow", "--config", path]) == 3
    assert capsys.readouterr().err == f"error: {video_id}: flow input has non-finite values\n"
    assert not (tmp_path / "work" / "flow" / f"{video_id}.partial").exists()
    assert multiprocessing.active_children() == []


def _state(pid):
    """The state letter of a process (R, S, Z, ...), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<pid>/children")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_a_killed_flow_leaves_no_worker_and_a_rerun_writes_clean_bytes(tmp_path, sig):
    gen = {"n_rubbing": 3, "n_other": 0, "n_synthetic_rubbing": 0, "width": 48, "height": 36,
           "n_frames_min": 18, "n_frames_max": 20}
    path = write_cfg(tmp_path, gen=gen)
    assert cli.main(["gen", "--config", path]) == 0
    assert cli.main(["flow", "--config", path]) == 0
    flow = tmp_path / "work" / "flow"
    want = tree_bytes(flow)
    shutil.rmtree(flow)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; from hhmon import cli; sys.exit(cli.main(sys.argv[1:]))",
         "flow", "--config", path], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = f"/proc/{child.pid}/task/{child.pid}/children"
    workers = []
    deadline = time.monotonic() + 60
    while not workers and child.poll() is None and time.monotonic() < deadline:
        time.sleep(0.002)
        with open(children) as fh:
            workers = [int(pid) for pid in fh.read().split()]
    assert workers, "flow finished or stalled before it forked its workers"
    child.send_signal(sig)
    assert child.wait(timeout=60) == -sig
    deadline = time.monotonic() + 2
    running = workers
    while running and time.monotonic() < deadline:
        time.sleep(0.02)
        running = [pid for pid in workers if _state(pid) not in (None, "Z")]
    for pid in running:  # do not leave them blocked after a failure
        os.kill(pid, signal.SIGKILL)
    assert running == []
    assert cli.main(["flow", "--config", path]) == 0
    assert tree_bytes(flow) == want
