"""Command line wiring, exit codes and the advisory lock."""

import errno
import json
import multiprocessing
import os
import platform
import re
import shutil
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from helpers import checkpoint_layout, rewrite_layout, tree_bytes, use_kernels

from hhmon import (_purekernels, backend, checkpoint, cli, clipset, config, frameio, model,
                   pipeline, pose, synth, training, tvl1, workers)
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


@pytest.mark.parametrize("line, message", [
    ("v1,d01,0,0,20,0,,0,holdout", "v1: split must be train, val or test, got 'holdout'"),
    ("v1,d01,0,0,20,0,,0,", "{}: v1 has no split; run prepare again"),
    # an annotations.csv written before it carried each clip's split
    ("v1,d01,0,0,20,0,,0", "{}:2: expected 9 fields, got 8"),
], ids=["unknown-split", "no-split", "8-columns"])
def test_train_and_eval_without_a_valid_split_exit_3(tmp_path, capsys, line, message):
    path = write_cfg(tmp_path)
    annotations = tmp_path / "work" / "annotations.csv"
    annotations.parent.mkdir()
    annotations.write_text(f"v0,d00,0,0,20,1,,0,train\n{line}\n")
    for argv in (["train", "--stream", "rgb"], ["eval"]):
        assert cli.main(argv + ["--config", path]) == 3
        assert capsys.readouterr().err == f"error: {message.format(annotations)}\n"


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


# A child that runs one command and, once it holds the command lock, prints
# the pid of a process it forked (0 when argv[1] is not "fork") and waits for
# a line or EOF on stdin before the command goes on.
_HOLD_LOCK = """
import os, sys, time
from hhmon import cli
fork, argv = sys.argv[1] == "fork", sys.argv[2:]
run = cli._DISPATCH[argv[0]]

def held(cfg, args):
    pid = os.fork() if fork else 0
    if fork and pid == 0:  # outlives its parent, as a flow worker may
        os.closerange(0, 3)
        time.sleep(120)
        os._exit(0)
    print(pid, flush=True)
    sys.stdin.readline()
    return run(cfg, args)

cli._DISPATCH[argv[0]] = held
sys.exit(cli.main(argv))
"""


def _hold_lock(argv, fork=False):
    """A child running `argv` that holds its lock until its stdin is closed,
    and the pid of the process it forked (0 when none)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen([sys.executable, "-c", _HOLD_LOCK, "fork" if fork else "-", *argv],
                             env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    if not line:
        raise AssertionError(f"the lock holder failed: {child.communicate(timeout=60)}")
    return child, int(line)


def _infer_argv(tmp_path, path):
    clip_dir = tmp_path / "clip16"
    frameio.save_sequence(FrameSequence(np.random.default_rng(0).random((16, 24, 24, 3)),
                                        video_id="probe", date_tag="d"), str(clip_dir))
    net = model.Network.init(model.i3d_mini(in_channels=3, input_size=24), seed=0)
    checkpoint.save_network(net, str(tmp_path / "ckpt" / "rgb.swnet"))
    return ["infer", "--config", path, str(clip_dir)]


@pytest.mark.parametrize("held, second, code", [
    ("gen", "gen", 2), ("gen", "infer", 2), ("infer", "gen", 2), ("infer", "infer", 0),
], ids=["writer-refuses-writer", "writer-refuses-infer", "infer-refuses-writer",
        "infer-shares-with-infer"])
def test_only_infer_calls_share_the_command_lock(tmp_path, capsys, held, second, code):
    path = write_cfg(tmp_path)
    argv = {"gen": ["gen", "--config", path], "infer": _infer_argv(tmp_path, path)}
    child, _ = _hold_lock(argv[held])
    try:
        assert cli.main(argv[second]) == code
        out, err = capsys.readouterr()
    finally:
        child_out, child_err = child.communicate(timeout=120)
    lock = tmp_path / "work" / ".lock"
    if code:
        assert err == f"error: another command holds the lock at {lock}\n"
    else:
        assert re.fullmatch(r"\d\.\d{6} (rubbing_hands|other)\n", out)
    assert child.returncode == 0, child_err  # the holder then runs as if alone
    assert lock.read_bytes() == b""  # the lock file stays, empty


@pytest.mark.parametrize("command", ["prepare", "infer"])
@pytest.mark.parametrize("lock_path", ["work_dir", "lock"],
                         ids=["work-dir-is-a-file", "lock-is-a-directory"])
def test_a_lock_that_cannot_be_opened_exits_3(tmp_path, capsys, command, lock_path):
    path = write_cfg(tmp_path)
    argv = _infer_argv(tmp_path, path) if command == "infer" else [command, "--config", path]
    work = tmp_path / "work"
    lock = work / ".lock"
    if lock_path == "work_dir":
        work.write_text("")
    else:
        lock.mkdir(parents=True)
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: {lock}: cannot open the command lock: ")


@pytest.mark.parametrize("fork", [False, True], ids=["alone", "with-a-forked-child"])
def test_a_killed_holder_never_blocks_the_next_command(tmp_path, capsys, fork):
    # the kernel drops a record lock when its holder dies, and a forked child
    # (a flow worker) does not inherit it, so it frees the lock while it lives
    path = write_cfg(tmp_path)
    child, forked = _hold_lock(["gen", "--config", path], fork)
    try:
        child.kill()
        child.communicate(timeout=60)
        assert cli.main(["gen", "--config", path]) == 0
        assert "wrote 7 scenes" in capsys.readouterr().out
        if fork:
            assert _state(forked) not in (None, "Z")
    finally:
        if fork:
            os.kill(forked, signal.SIGKILL)


@pytest.mark.parametrize("n_rubbing, n_other, n_dates", [(2, 1, 3), (4, 4, 2)])
def test_gen_with_too_few_dates_to_split_exits_2_before_writing(tmp_path, capsys, n_rubbing,
                                                                n_other, n_dates):
    # each group numbers its dates from d00, so 2 rubbing and 1 other scene on
    # 3 dates span only d00 and d01
    gen = {"n_rubbing": n_rubbing, "n_other": n_other, "n_synthetic_rubbing": 1,
           "n_dates": n_dates, "width": 48, "height": 36, "n_frames_min": 18, "n_frames_max": 20}
    path = write_cfg(tmp_path, gen=gen)
    assert cli.main(["gen", "--config", path]) == 2
    err = capsys.readouterr().err
    for name, value in (("n_dates", n_dates), ("n_rubbing", n_rubbing), ("n_other", n_other)):
        assert f"gen.{name} {value}" in err
    assert not (tmp_path / "ds").exists()
    (tmp_path / "ds").mkdir()
    (tmp_path / "ds" / "keep").write_text("x")
    assert cli.main(["gen", "--config", path, "--force"]) == 2  # --force removes nothing
    assert tree_bytes(tmp_path / "ds") == {"keep": b"x"}


@pytest.mark.parametrize("argv", [["prepare"], ["flow"], ["gen", "--print-config"]])
def test_too_few_dates_to_split_exits_2_at_config_load(tmp_path, capsys, argv):
    gen = {"n_rubbing": 2, "n_other": 1, "n_synthetic_rubbing": 1, "n_dates": 3,
           "width": 48, "height": 36, "n_frames_min": 18, "n_frames_max": 20}
    path = write_cfg(tmp_path, gen=gen)
    assert cli.main(argv + ["--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: gen.n_dates 3 with gen.n_rubbing 2 and gen.n_other 1 gives 2 non-synthetic "
        "dates; the split needs at least 3\n")
    assert os.listdir(tmp_path) == ["cfg.json"]  # not even the command lock


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
    assert f"({backend.BACKEND} kernels, {workers.count()} process" in out

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


@pytest.mark.parametrize("kind", ["pgm", "one-channel", "flo2"])
def test_infer_on_non_rgb_frames_exits_3_before_the_checkpoint_load(tmp_path, capsys,
                                                                    monkeypatch, kind):
    path = write_cfg(tmp_path)
    clip_dir = tmp_path / "clip16"
    channels = 2 if kind == "flo2" else 1
    frameio.save_sequence(FrameSequence(np.zeros((16, 24, 24, 2)),
                                        video_id="probe", date_tag="d"), str(clip_dir))
    if channels == 1:  # no frame has one channel, so only a descriptor can say so
        meta = json.loads((clip_dir / "meta.json").read_text())
        (clip_dir / "meta.json").write_text(json.dumps(dict(meta, channels=1)))
    if kind == "pgm":  # a grayscale clip as it used to be stored: P5 frames
        for frame in clip_dir.glob("frame_*.flo2"):
            frame.unlink()
            frame.with_suffix(".pgm").write_bytes(b"P5\n24 24\n255\n" + bytes(24 * 24))
    net = model.Network.init(model.i3d_mini(in_channels=3, input_size=24), seed=0)
    checkpoint.save_network(net, str(tmp_path / "ckpt" / "rgb.swnet"))
    monkeypatch.setattr(checkpoint, "load_network",
                        lambda path: pytest.fail("the checkpoint was loaded"))
    assert cli.main(["infer", "--config", path, str(clip_dir)]) == 3
    assert capsys.readouterr().err == (
        f"error: {clip_dir / 'meta.json'}: descriptor dimensions 24x24x1 are not a frame's\n"
        if channels == 1 else
        f"error: {clip_dir}: the rgb stream scores 3-channel frames, found {channels}\n")


def _unknown_block_kind(ckpt):
    layout = checkpoint_layout(ckpt)
    layout["blocks"][2]["kind"] = "Foo"
    rewrite_layout(ckpt, layout)
    return "unknown block kind 'Foo' in net config"


def _version_1(ckpt):
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:5] + struct.pack("<I", 1) + raw[9:])
    return "checkpoint version 1, expected 2"


@pytest.mark.parametrize("damage", [_unknown_block_kind, _version_1],
                         ids=["unknown-block-kind", "version-1"])
def test_infer_with_a_bad_checkpoint_exits_4(tmp_path, capsys, damage):
    path = write_cfg(tmp_path)
    clip_dir = tmp_path / "clip16"
    frameio.save_sequence(FrameSequence(np.zeros((16, 24, 24, 3)),
                                        video_id="probe", date_tag="d"), str(clip_dir))
    ckpt = tmp_path / "ckpt" / "rgb.swnet"
    net = model.Network.init(model.i3d_mini(in_channels=3, input_size=24), seed=0)
    checkpoint.save_network(net, str(ckpt))
    message = damage(ckpt)
    assert cli.main(["infer", "--config", path, str(clip_dir)]) == 4
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def test_rgb_frames_are_read_from_the_manifest_frames_dir(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["gen", "--config", path]) == 0
    manifest_path = tmp_path / "ds" / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    # one training and one test scene, by the split rule prepare applies
    records = clipset.split_dataset(synth.manifest_records(manifest), seed=0)
    for split in ("train", "test"):
        entry = manifest["scenes"][next(i for i, r in enumerate(records) if r.split == split)]
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
    video_id = pipeline.load_prepared(config.load_config(path), "train")[0].video_id
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


def test_prepare_and_eval_on_a_text_file_that_is_not_utf8_exit_3(tmp_path, capsys):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    assert cli.main(["gen", "--config", path]) == 0
    keypoints = tmp_path / "ds" / "scenes" / "rub_001" / "keypoints.txt"
    good = keypoints.read_bytes()
    keypoints.write_bytes(good + b"\xff")
    capsys.readouterr()
    assert cli.main(["prepare", "--config", path]) == 3
    assert capsys.readouterr().err.startswith(f"error: {keypoints}: not UTF-8 text")
    keypoints.write_bytes(good)
    for argv in (["prepare"], ["train", "--stream", "rgb"]):
        assert cli.main(argv + ["--config", path]) == 0
    for tracks in (tmp_path / "work" / "tracks").iterdir():
        tracks.write_bytes(tracks.read_bytes() + b"\xff")
    capsys.readouterr()
    assert cli.main(["eval", "--config", path]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(tmp_path / 'work' / 'tracks'))}/rub_00\d\.txt: "
                        r"not UTF-8 text: .*\n", err)


def test_prepare_refuses_a_scene_id_that_escapes_the_work_dir(tmp_path, capsys):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    assert cli.main(["gen", "--config", path]) == 0
    manifest_path = tmp_path / "ds" / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["scenes"][0]["video_id"] = "../../escaped"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["prepare", "--config", path]) == 3
    assert capsys.readouterr().err.startswith(f"error: {manifest_path}: scene 0: video_id ")
    assert not (tmp_path / "escaped.txt").exists()  # tracks/../../escaped.txt
    assert os.listdir(tmp_path / "work") == [".lock"]


def test_prepare_without_a_scene_descriptor_exits_3(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert cli.main(["gen", "--config", path]) == 0
    frames_dir = tmp_path / "ds" / "scenes" / "oth_001" / "frames"
    os.remove(frames_dir / "meta.json")
    capsys.readouterr()
    assert cli.main(["prepare", "--config", path]) == 3
    assert capsys.readouterr().err == f"error: {frames_dir}: missing meta.json descriptor\n"


def test_prepare_with_a_file_in_place_of_the_tracks_dir_exits_3(tmp_path, capsys):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    assert cli.main(["gen", "--config", path]) == 0
    tracks = tmp_path / "work" / "tracks"  # gen made work/ for its lock
    tracks.touch()
    capsys.readouterr()
    assert cli.main(["prepare", "--config", path]) == 3
    assert re.fullmatch(rf"error: {re.escape(str(tracks))}/rub_00\d\.txt: cannot write: "
                        r".*Not a directory.*\n", capsys.readouterr().err)
    assert tracks.read_bytes() == b""


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
    # no scene's staged dir is left, the failing scene's or another's
    flow_root = tmp_path / "work" / "flow"
    assert not [p for p in flow_root.iterdir() if p.name.endswith(".partial")]
    assert multiprocessing.active_children() == []


def _state(pid):
    """The state letter of a process (R, S, Z, ...), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def _kill_with_workers_running(path, command, sig):
    """Run `hhmon <command>` (a word or a list of them) in a child process,
    send it `sig` once it has forked its workers, and check that none is
    alive 2 s after it died."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [command] if isinstance(command, str) else command
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; from hhmon import cli; sys.exit(cli.main(sys.argv[1:]))",
         *argv, "--config", path], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    children = f"/proc/{child.pid}/task/{child.pid}/children"
    pids = []
    deadline = time.monotonic() + 60
    while not pids and child.poll() is None and time.monotonic() < deadline:
        time.sleep(0.002)
        with open(children) as fh:
            pids = [int(pid) for pid in fh.read().split()]
    assert pids, f"{command} finished or stalled before it forked its workers"
    child.send_signal(sig)
    assert child.wait(timeout=60) == -sig
    deadline = time.monotonic() + 2
    running = pids
    while running and time.monotonic() < deadline:
        time.sleep(0.02)
        running = [pid for pid in pids if _state(pid) not in (None, "Z")]
    for pid in running:  # do not leave them blocked after a failure
        os.kill(pid, signal.SIGKILL)
    assert running == []


needs_children_list = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<pid>/children")
kill_signals = pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM],
                                       ids=["SIGKILL", "SIGTERM"])


def test_flow_on_the_pure_kernels_writes_the_bytes_of_the_default_backend(tmp_path, capsys,
                                                                           monkeypatch):
    gen = {"n_rubbing": 3, "n_other": 0, "n_synthetic_rubbing": 0, "width": 48, "height": 36,
           "n_frames_min": 18, "n_frames_max": 20}
    path = write_cfg(tmp_path, gen=gen)
    assert cli.main(["gen", "--config", path]) == 0
    assert cli.main(["flow", "--config", path]) == 0
    assert f"({backend.BACKEND} kernels, " in capsys.readouterr().out
    flow = tmp_path / "work" / "flow"
    want = tree_bytes(flow)
    shutil.rmtree(flow)
    use_kernels(monkeypatch, _purekernels)
    assert cli.main(["flow", "--config", path]) == 0
    assert tree_bytes(flow) == want


@needs_children_list
@kill_signals
def test_a_killed_flow_leaves_no_worker_and_a_rerun_writes_clean_bytes(tmp_path, sig):
    gen = {"n_rubbing": 3, "n_other": 0, "n_synthetic_rubbing": 0, "width": 48, "height": 36,
           "n_frames_min": 18, "n_frames_max": 20}
    path = write_cfg(tmp_path, gen=gen)
    assert cli.main(["gen", "--config", path]) == 0
    assert cli.main(["flow", "--config", path]) == 0
    flow = tmp_path / "work" / "flow"
    want = tree_bytes(flow)
    shutil.rmtree(flow)
    _kill_with_workers_running(path, "flow", sig)
    assert cli.main(["flow", "--config", path]) == 0
    assert tree_bytes(flow) == want


# flow solves every scene on every run, so a rerun after a change of the
# dataset or of the flow config feeds no stale flow to train
@pytest.mark.parametrize("seed, flow", [(7, {}), (0, {"n_warps": 2})],
                         ids=["reseeded-gen", "n_warps-2"])
def test_flow_after_a_change_equals_a_fresh_trees_bit_for_bit(tmp_path, capsys, seed, flow):
    for sub in ("rerun", "fresh"):
        (tmp_path / sub).mkdir()
    rerun = write_cfg(tmp_path / "rerun", gen=_THREE_SCENES)
    assert cli.main(["gen", "--config", rerun]) == 0
    assert cli.main(["flow", "--config", rerun]) == 0
    flow_dir = tmp_path / "rerun" / "work" / "flow"
    before = tree_bytes(flow_dir)
    rerun, fresh = (write_cfg(tmp_path / sub, gen=_THREE_SCENES, seed=seed, flow=flow)
                    for sub in ("rerun", "fresh"))
    assert cli.main(["gen", "--config", rerun, "--force"]) == 0
    capsys.readouterr()
    assert cli.main(["flow", "--config", rerun]) == 0
    assert "computed flow for 3 scenes" in capsys.readouterr().out
    assert cli.main(["gen", "--config", fresh]) == 0
    assert cli.main(["flow", "--config", fresh]) == 0
    assert tree_bytes(flow_dir) == tree_bytes(tmp_path / "fresh" / "work" / "flow") != before


def test_flow_removes_a_scene_dir_an_earlier_run_left(tmp_path):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    assert cli.main(["gen", "--config", path]) == 0
    stale = tmp_path / "work" / "flow" / "zzz_999"
    stale.mkdir(parents=True)
    (stale / "frame_000000.flo2").write_bytes(b"stale")
    assert cli.main(["flow", "--config", path]) == 0
    assert sorted(os.listdir(tmp_path / "work" / "flow")) == ["rub_000", "rub_001", "rub_002"]


def test_flow_has_no_force_flag(tmp_path, capsys):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow", "--config", path, "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_gen_force_that_cannot_remove_the_dataset_exits_3_naming_it(tmp_path, capsys,
                                                                    monkeypatch):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    assert cli.main(["gen", "--config", path]) == 0
    dataset = tmp_path / "ds"
    want = tree_bytes(dataset)

    def refuse(target, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)

    monkeypatch.setattr(shutil, "rmtree", refuse)
    capsys.readouterr()
    assert cli.main(["gen", "--config", path, "--force"]) == 3
    assert capsys.readouterr().err == (
        f"error: {dataset}: cannot remove: [Errno 13] Permission denied: '{dataset}'\n")
    assert tree_bytes(dataset) == want


@needs_children_list
@kill_signals
def test_a_killed_gen_leaves_no_worker_and_a_forced_rerun_writes_clean_bytes(tmp_path, sig):
    # 12 scenes at 96x72, so that gen still runs when its workers are seen
    gen = {"n_rubbing": 6, "n_other": 6, "n_synthetic_rubbing": 0, "n_dates": 3,
           "width": 96, "height": 72}
    path = write_cfg(tmp_path, gen=gen)
    assert cli.main(["gen", "--config", path]) == 0
    dataset = tmp_path / "ds"
    want = tree_bytes(dataset)
    shutil.rmtree(dataset)
    _kill_with_workers_running(path, "gen", sig)
    assert cli.main(["gen", "--config", path, "--force"]) == 0
    assert tree_bytes(dataset) == want


@needs_children_list
def test_a_terminated_train_leaves_no_worker_and_no_partial_checkpoint(tmp_path):
    path = write_cfg(tmp_path)
    for argv in (["gen"], ["prepare"]):
        assert cli.main(argv + ["--config", path]) == 0
    _kill_with_workers_running(path, ["train", "--stream", "rgb"], signal.SIGTERM)
    ckpt = tmp_path / "ckpt"
    assert os.listdir(ckpt) == ["twin2d.swnet"]  # published before the pool forks
    assert cli.main(["train", "--stream", "rgb", "--config", path]) == 0
    assert sorted(os.listdir(ckpt)) == ["rgb.swnet", "rgb_scratch.swnet", "twin2d.swnet"]


def test_a_train_worker_data_error_keeps_its_message_and_exit_code(tmp_path, capsys):
    # the desk tree of perfbench's desk_pipeline, with joints dropped so that
    # some tracks have holes, and a twin of the configured layout in place,
    # so that no stills are built and the first error is raised in the pool
    gen = {"n_rubbing": 3, "n_other": 3, "n_synthetic_rubbing": 2, "n_frames_min": 23,
           "n_frames_max": 23, "joint_dropout": 0.4}
    path = str(tmp_path / "config.json")
    (tmp_path / "config.json").write_text(json.dumps({"seed": 0, "gen": gen, "paths": {
        f"{name}_dir": str(tmp_path / name) for name in ("dataset", "work", "checkpoint",
                                                         "report")}}))
    for argv in (["gen"], ["prepare"]):
        assert cli.main(argv + ["--config", path]) == 0
    cfg = config.load_config(path)
    twin = model.Network.init(model.collapse_temporal(model.i3d_mini(3, cfg.clip.input_size)),
                              seed=0)
    checkpoint.save_network(twin, pipeline.artifact_path(cfg, "checkpoint", "twin2d"))
    capsys.readouterr()
    assert cli.main(["train", "--stream", "rgb", "--config", path]) == 3
    # rub_001 is the first of the training records whose track has a hole
    assert capsys.readouterr().err == "error: rub_001: track 0 has no box at frame 0\n"
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path / "checkpoint") == ["twin2d.swnet"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's heap only")
def test_the_cli_pins_the_heap_so_a_freed_array_is_reused_without_faults():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = """
import resource
import numpy as np
from hhmon import cli
cli.main(["prepare", "--print-config"])
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones(1 << 20, dtype=np.float32)  # 4 MiB
    del a
    print("faults", resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    first, second = (int(line.split()[1]) for line in out.splitlines()
                     if line.startswith("faults "))
    assert second < 50, (first, second)


@pytest.mark.parametrize("artifact", ["frames", "keypoints"])
def test_a_gen_worker_write_error_exits_3_and_leaves_no_worker(tmp_path, capsys, monkeypatch,
                                                              artifact):
    path = write_cfg(tmp_path)
    write_ppm, save_poses = frameio.write_ppm, pose.save_poses

    def full_disk(write):
        def failing(data, path):
            if f"{os.sep}rub_001{os.sep}" in path:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(data, path)
        return failing

    if artifact == "frames":  # before the pool forks
        monkeypatch.setattr(frameio, "write_ppm", full_disk(write_ppm))
    else:
        monkeypatch.setattr(pose, "save_poses", full_disk(save_poses))
    assert cli.main(["gen", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rub_001" in err and "No space left" in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "ds" / "dataset.json").exists()


@pytest.mark.parametrize("command", ["gen", "flow"])
def test_a_worker_that_dies_mid_job_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                               command):
    path = write_cfg(tmp_path)
    if command == "flow":
        assert cli.main(["gen", "--config", path]) == 0
    parent = os.getpid()
    render, solve = synth.generate_scene, tvl1.sequence_flow

    def dying_render(spec):
        if os.getpid() != parent and spec.video_id == "rub_001":
            os._exit(9)  # as if the kernel's OOM killer took the worker
        return render(spec)

    def dying_solve(frames, params, where=""):
        if os.getpid() != parent and where.startswith("rub_001"):
            os._exit(9)
        return solve(frames, params, where)

    monkeypatch.setattr(synth, "generate_scene", dying_render)  # before the pool forks
    monkeypatch.setattr(tvl1, "sequence_flow", dying_solve)
    capsys.readouterr()
    assert cli.main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    # flow names the pair range whose worker died first
    assert err.startswith("error: rub_001: " if command == "gen" else "error: rub_001 pairs ")
    assert err.endswith(": a worker process exited without sending its result\n")
    assert "Traceback" not in err and "flow" not in err
    assert multiprocessing.active_children() == []
    if command == "gen":
        assert not (tmp_path / "ds" / "dataset.json").exists()


# A child that runs one command and dies (exit 137) inside the publish of
# the artifact at argv[1]: after its temp is written, before the rename.
# Every publish ends in `artifacts.commit`, `publish`'s and flow's alike.
_DIE_AT_PUBLISH = """
import os, sys
from hhmon import artifacts, cli
target, commit = sys.argv[1], artifacts.commit

def dying(path):
    if os.path.abspath(path) == target:
        os._exit(137)
    commit(path)

artifacts.commit = dying
sys.exit(cli.main(sys.argv[2:]))
"""

def _die_at_publish(target, argv):
    """Run `hhmon argv` in a child that dies inside the publish of target."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", _DIE_AT_PUBLISH, str(target), *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120)


_STAGES = (["gen"], ["prepare"], ["flow"], ["train", "--stream", "rgb"],
           ["train", "--stream", "flow"], ["eval"])
# a 3-scene tree: three dates, so prepare can split it date-disjointly
_THREE_SCENES = {"n_rubbing": 3, "n_other": 0, "n_synthetic_rubbing": 0,
                 "width": 48, "height": 36, "n_frames_min": 18, "n_frames_max": 20}


@pytest.mark.parametrize("stage, artifact", [
    (0, "ds/scenes/rub_001/frames"), (0, "ds/scenes/rub_001/keypoints.txt"),
    (0, "ds/dataset.json"), (1, "work/tracks/rub_001.txt"), (1, "work/annotations.csv"),
    (2, "work/flow/rub_001"), (3, "ckpt/rgb.swnet"), (5, "report/report.json"),
], ids=["frame-dir", "keypoints", "dataset-json", "tracks", "annotations",
        "flow-dir", "checkpoint", "report-file"])
def test_a_stage_killed_mid_publish_reruns_to_a_clean_tree(tmp_path, stage, artifact):
    run = tmp_path / "run"
    run.mkdir()
    path = write_cfg(run, gen=_THREE_SCENES)
    for argv in _STAGES[:stage]:
        assert cli.main(argv + ["--config", path]) == 0
    before = tmp_path / "before"
    shutil.copytree(run, before)
    for argv in _STAGES[stage:]:
        assert cli.main(argv + ["--config", path]) == 0
    clean = tree_bytes(run)
    shutil.rmtree(run)
    shutil.copytree(before, run)

    target = run / artifact
    child = _die_at_publish(target, _STAGES[stage] + ["--config", path])
    if artifact.startswith("ds/scenes/"):
        # gen publishes a scene in a worker: the worker dies, and gen says so
        assert child.returncode == 1
        assert child.stderr == ("error: rub_001: a worker process exited without sending "
                                "its result\n")
    else:
        assert child.returncode == 137
    assert os.path.exists(f"{target}.partial") and not target.exists()

    # a killed gen leaves a non-empty dataset dir, which only --force replaces
    rerun = [_STAGES[0] + ["--force"], *_STAGES[1:]] if stage == 0 else _STAGES
    for argv in rerun[stage:]:
        assert cli.main(argv + ["--config", path]) == 0
    assert tree_bytes(run) == clean
    assert not [name for _, dirs, files in os.walk(run) for name in dirs + files
                if name.endswith(".partial")]


def test_eval_and_infer_refuse_a_checkpoint_trained_at_another_input_size(tmp_path, capsys):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    for argv in (["gen"], ["prepare"], ["train", "--stream", "rgb"]):
        assert cli.main(argv + ["--config", path]) == 0
    clip_dir = tmp_path / "clip16"
    frameio.save_sequence(FrameSequence(np.zeros((16, 36, 48, 3)),
                                        video_id="probe", date_tag="d"), str(clip_dir))
    capsys.readouterr()
    path = write_cfg(tmp_path, gen=_THREE_SCENES, clip={"input_size": 32})
    rgb = tmp_path / "ckpt" / "rgb.swnet"
    want = (f"error: {rgb}: trained on 24-pixel clips, clip.input_size is 32; "
            "run train --stream rgb first\n")
    for argv in (["eval", "--config", path], ["infer", "--config", path, str(clip_dir)]):
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == want
    assert not (tmp_path / "report").exists()
    # the paired control names the command that writes it, train --stream rgb
    checkpoint.save_network(model.Network.init(model.i3d_mini(input_size=32), seed=0), str(rgb))
    assert cli.main(["eval", "--config", path]) == 3
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'ckpt' / 'rgb_scratch.swnet'}: trained on 24-pixel clips, "
        "clip.input_size is 32; run train --stream rgb first\n")


def test_a_checkpoint_killed_mid_publish_keeps_its_earlier_layout(tmp_path):
    # rgb trains at a 24 px input, then again at 32 px and dies inside the
    # publish of its checkpoint: the 24 px network must load whole, never
    # the new layout over the old parameters
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    for argv in _STAGES[:4]:
        assert cli.main(argv + ["--config", path]) == 0
    ckpt = tmp_path / "ckpt" / "rgb.swnet"
    earlier = checkpoint.load_network(str(ckpt))
    path = write_cfg(tmp_path, gen=_THREE_SCENES, clip={"input_size": 32})
    child = _die_at_publish(ckpt, _STAGES[3] + ["--config", path])
    assert child.returncode == 137, child.stderr
    assert os.path.exists(f"{ckpt}.partial")

    kept = checkpoint.load_network(str(ckpt))
    assert kept.spec == earlier.spec and kept.spec.input_size == 24
    assert kept.frozen == earlier.frozen and kept.params.keys() == earlier.params.keys()
    assert all(np.array_equal(kept.params[k], v) for k, v in earlier.params.items())
    assert cli.main(_STAGES[3] + ["--config", path]) == 0
    assert checkpoint.load_network(str(ckpt)).spec.input_size == 32
    assert not os.path.exists(f"{ckpt}.partial")


def test_a_twin_of_another_input_size_is_pretrained_again(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    for argv in (*_STAGES[:2], _STAGES[3]):
        assert cli.main(argv + ["--config", path]) == 0
    twin = tmp_path / "ckpt" / "twin2d.swnet"
    assert checkpoint.load_network(str(twin)).spec.input_size == 24
    path = write_cfg(tmp_path, gen=_THREE_SCENES, clip={"input_size": 32})
    assert cli.main(_STAGES[3] + ["--config", path]) == 0
    spec = checkpoint.load_network(str(twin)).spec
    assert spec == model.collapse_temporal(model.i3d_mini(3, 32)) and spec.input_size == 32
    # a twin of the configured layout is reused as it is
    monkeypatch.setattr(training, "pretrain_twin", None)
    kept = twin.read_bytes()
    assert cli.main(_STAGES[3] + ["--config", path]) == 0
    assert twin.read_bytes() == kept


def test_every_file_a_run_leaves_is_in_the_artifact_table(tmp_path):
    path = write_cfg(tmp_path, gen=_THREE_SCENES)
    for argv in _STAGES:
        assert cli.main(argv + ["--config", path]) == 0
    cfg = config.load_config(path)
    names = [e["video_id"] for e in synth.load_manifest(cfg.paths.dataset_dir)["scenes"]]
    names += ["rgb", "flow", "rgb_scratch", "twin2d"]
    table = {pipeline.artifact_path(cfg, kind, name): kind
             for kind, (_, pattern, _) in pipeline.ARTIFACTS.items()
             for name in (names if "{}" in pattern else [""])}
    found = set()
    for root in (cfg.paths.work_dir, cfg.paths.checkpoint_dir):
        for d, _, files in os.walk(root):
            for file in (os.path.join(d, f) for f in files):
                owner = file if file in table else d  # a flow dir holds its frames
                assert owner == file or table.get(owner) == "flow dir", file
                found.add(table[owner])
    assert found == set(pipeline.ARTIFACTS) - {"corrections"}  # corrections are written by hand
    assert not [name for _, dirs, files in os.walk(tmp_path) for name in dirs + files
                if name.endswith(".partial")]
