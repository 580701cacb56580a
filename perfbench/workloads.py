"""The benchmark's workloads, driven through `hhmon.cli.main` in-process.

Each workload has a set-up, which builds its inputs from the seed in a
fresh tree, and a unit: the piece of work the timed phase repeats.

- desk_pipeline: gen, prepare, flow, train rgb, train flow, eval in a fresh
  tree per unit, one closed-loop caller.
- flow_large_frames: set-up generates and prepares 192x144 scenes; the unit
  is the flow stage alone.
- infer_stream: set-up generates a small dataset, trains the rgb stream and
  cuts 16-frame probe clips with their keypoints; the unit is one pass of
  one closed-loop client over the probes, each `hhmon infer` call issued as
  soon as the previous one returns.

Every CLI call is an operation.  It fails when it exits non-zero, raises,
or writes output that fails its check (see checks.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import checks

CLIP_LEN = 16
# The default config apart from the scene count.  Every scene has the
# default mean length, so seeds differ in content and not in amount of work.
DESK_GEN = {"n_rubbing": 3, "n_other": 3, "n_synthetic_rubbing": 2,
            "n_frames_min": 23, "n_frames_max": 23}
FLOW_LARGE_GEN = {"n_rubbing": 3, "n_other": 0, "n_synthetic_rubbing": 0,
                  "n_frames_min": 23, "n_frames_max": 23, "width": 192, "height": 144}
INFER_GEN = DESK_GEN
N_PROBES = 16


class SetupError(RuntimeError):
    """A set-up step failed, so the workload cannot run."""


@dataclass
class UnitResult:
    wall_s: float
    stages: dict[str, float] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run one `hhmon` command in-process; (exit code, stdout, stderr).

    An exception escaping the CLI counts as exit code -1 with its traceback
    as stderr, so one broken call never stops the benchmark.
    """
    from hhmon import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - boundary: record and count as failed
        return -1, out.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


def write_config(tree: str, seed: int, gen: dict) -> str:
    paths = {key: os.path.join(tree, sub) for key, sub in (
        ("dataset_dir", "dataset"), ("work_dir", "work"),
        ("checkpoint_dir", "checkpoints"), ("report_dir", "reports"))}
    os.makedirs(tree, exist_ok=True)
    path = os.path.join(tree, "config.json")
    with open(path, "w") as fh:
        json.dump({"seed": seed, "paths": paths, "gen": gen}, fh, indent=1)
    return path


def _setup_calls(config: str, commands: list[list[str]]) -> None:
    for argv in commands:
        rc, _, err = cli_call(argv + ["--config", config])
        if rc != 0:
            raise SetupError(_describe(argv, rc, err))


def _describe(argv: list[str], rc: int, err: str) -> str:
    return f"hhmon {' '.join(argv)} exited {rc}: {err.strip()[-400:]}"


class Workload:
    name = ""

    def __init__(self, base: str, seed: int):
        self.base = base  # scratch directory owned by this run
        self.seed = seed
        self.golden = checks.load_golden(seed, self.name)
        self.tree = ""

    def setup(self, k: int) -> None:
        """Build the inputs in a fresh tree; the last set-up is the one used."""
        if self.tree:
            shutil.rmtree(self.tree, ignore_errors=True)
        self.tree = os.path.join(self.base, f"setup-{k}")
        self.config = write_config(self.tree, self.seed, self.gen)

    def unit(self, k: int, tracer=None) -> UnitResult:
        raise NotImplementedError

    def _recording(self, tracer, k: int):
        return tracer.recording(k) if tracer is not None else contextlib.nullcontext()


class DeskPipeline(Workload):
    name = "desk_pipeline"
    gen = DESK_GEN
    STAGES = (("gen_s", ["gen"]), ("prepare_s", ["prepare"]), ("flow_s", ["flow"]),
              ("train_rgb_s", ["train", "--stream", "rgb"]),
              ("train_flow_s", ["train", "--stream", "flow"]), ("eval_s", ["eval"]))

    def unit(self, k: int, tracer=None) -> UnitResult:
        tree = os.path.join(self.base, f"unit-{k}")
        config = write_config(tree, self.seed, self.gen)
        stages, codes, errors = {}, {}, {}
        with self._recording(tracer, k):
            t0 = perf_counter()
            for stage, argv in self.STAGES:
                t = perf_counter()
                codes[stage], _, errors[stage] = cli_call(argv + ["--config", config])
                stages[stage] = perf_counter() - t
            wall = perf_counter() - t0
        res = UnitResult(wall_s=wall, stages=stages, attempted=len(self.STAGES))
        for stage, argv in self.STAGES:
            if codes[stage] != 0:
                res.fail([_describe(argv, codes[stage], errors[stage])])
        want = self.golden or {}
        if codes["flow_s"] == 0:
            res.outputs["flow"] = checks.flow_outputs(os.path.join(tree, "work", "flow"))
            problems = checks.check_flow(res.outputs["flow"], want.get("flow"))
            if problems:
                res.fail(problems)
        if codes["eval_s"] == 0:
            res.outputs["eval"] = checks.eval_outputs(os.path.join(tree, "reports"))
            problems = checks.check_eval(res.outputs["eval"], want.get("eval"))
            if problems:
                res.fail(problems)
        shutil.rmtree(tree, ignore_errors=True)
        return res


class FlowLargeFrames(Workload):
    name = "flow_large_frames"
    gen = FLOW_LARGE_GEN

    def setup(self, k: int) -> None:
        super().setup(k)
        _setup_calls(self.config, [["gen"], ["prepare"]])

    def unit(self, k: int, tracer=None) -> UnitResult:
        flow_root = os.path.join(self.tree, "work", "flow")
        shutil.rmtree(flow_root, ignore_errors=True)
        with self._recording(tracer, k):
            t0 = perf_counter()
            rc, _, err = cli_call(["flow", "--config", self.config])
            wall = perf_counter() - t0
        res = UnitResult(wall_s=wall, stages={"flow_s": wall}, attempted=1)
        if rc != 0:
            res.fail([_describe(["flow"], rc, err)])
            return res
        res.outputs["flow"] = checks.flow_outputs(flow_root)
        problems = checks.check_flow(res.outputs["flow"], (self.golden or {}).get("flow"))
        if problems:
            res.fail(problems)
        return res


class InferStream(Workload):
    name = "infer_stream"
    gen = INFER_GEN

    def setup(self, k: int) -> None:
        super().setup(k)
        _setup_calls(self.config, [["gen"], ["prepare"], ["train", "--stream", "rgb"]])
        self.probes = cut_probes(os.path.join(self.tree, "dataset"),
                                 os.path.join(self.tree, "probes"), self.seed, N_PROBES)

    def unit(self, k: int, tracer=None) -> UnitResult:
        res = UnitResult(wall_s=0.0, attempted=len(self.probes))
        want = (self.golden or {}).get("infer")
        scores, codes = {}, {}
        with self._recording(tracer, k):
            t0 = perf_counter()
            for probe, clip_dir in self.probes:
                t = perf_counter()
                rc, out, err = cli_call(["infer", "--config", self.config, clip_dir])
                res.latencies_ms.append((perf_counter() - t) * 1e3)
                codes[probe] = (rc, out, err)
            res.wall_s = perf_counter() - t0
        for probe, (rc, out, err) in codes.items():
            if rc != 0:
                res.fail([_describe(["infer", probe], rc, err)])
                continue
            try:
                scores[probe] = float(out.split()[0])
            except (IndexError, ValueError):
                res.fail([f"infer {probe}: unparsable output {out!r}"])
                continue
            problems = checks.check_infer(probe, scores[probe], want)
            if problems:
                res.fail(problems)
        res.outputs["infer"] = scores
        return res


def cut_probes(dataset_dir: str, out_dir: str, seed: int, n: int) -> list[tuple[str, str]]:
    """Cut `n` 16-frame clip directories (frames, meta.json, keypoints.txt).

    Scenes are visited round-robin in manifest order; each probe's start
    frame is drawn from a generator seeded with the workload seed.
    """
    with open(os.path.join(dataset_dir, "dataset.json")) as fh:
        scenes = json.load(fh)["scenes"]
    rng = random.Random(seed)
    probes = []
    for i in range(n):
        entry = scenes[i % len(scenes)]
        start = rng.randrange(0, entry["end_frame"] - CLIP_LEN + 1)
        probe = f"{entry['video_id']}@{start}#{i}"
        clip_dir = os.path.join(out_dir, f"probe-{i:03d}")
        os.makedirs(clip_dir)
        frames_dir = os.path.join(dataset_dir, entry["frames_dir"])
        shutil.copy(os.path.join(frames_dir, "meta.json"), clip_dir)
        for t in range(CLIP_LEN):
            shutil.copy(os.path.join(frames_dir, f"frame_{start + t:06d}.ppm"),
                        os.path.join(clip_dir, f"frame_{t:06d}.ppm"))
        lines = []
        with open(os.path.join(dataset_dir, entry["keypoints_file"])) as fh:
            for line in fh:
                frame, rest = line.split(" ", 1)
                if start <= int(frame) < start + CLIP_LEN:
                    lines.append(f"{int(frame) - start} {rest}")
        with open(os.path.join(clip_dir, "keypoints.txt"), "w") as fh:
            fh.writelines(lines)
        probes.append((probe, clip_dir))
    return probes


WORKLOADS = {w.name: w for w in (DeskPipeline, FlowLargeFrames, InferStream)}
