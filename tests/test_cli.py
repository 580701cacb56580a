"""Command line wiring, exit codes and the advisory lock."""

import json
import os
import re
import subprocess
import sys

import pytest

from hhmon import cli, frameio
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


def test_bad_config_key_is_a_usage_error(tmp_path, capsys):
    path = write_cfg(tmp_path, optimizer={"kind": "adam"})
    assert cli.main(["gen", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "optimizer" in err


def test_bad_config_value_exits_2_before_writing_anything(tmp_path, capsys):
    path = write_cfg(tmp_path, clip={"input_size": 24, "flip_prob": 1.5})
    assert cli.main(["gen", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: clip: flip_prob")
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
    assert "computed flow for 7 scenes" in capsys.readouterr().out

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
    frameio.save_sequence(FrameSequence(seq.frames[:16], fps=seq.fps,
                                        video_id="probe", date_tag="d"), str(clip_dir))
    assert cli.main(["infer", "--config", path, str(clip_dir)]) == 0
    assert re.fullmatch(r"\d\.\d{6} (rubbing_hands|other)\n",
                        capsys.readouterr().out)
