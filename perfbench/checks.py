"""Output checks: read what a workload wrote, compare it with the goldens.

Outputs are read straight from the files the CLI writes, with this module's
own parsers, so a check never calls the code under test.  Each check
returns a list of problems; an empty list means the output passed.

For a seed with a golden file under `goldens/` the comparison is strict:
scores within SCORE_TOL, report rows exactly, flow bit for bit (sha256 of
each scene's directory) or, when the bytes differ, every per-scene summary
statistic within the tolerance stored beside it.  For any other seed the
checks are structural: scores in [0, 1] as printed, the three report
rows, finite flow.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

SCORE_TOL = 1e-5  # the score tolerance ROADMAP item 3 allows
FLOW_SUMMARY_TOL = 1e-5  # on flow stored as displacement / max_flow, in [-1, 1]
REPORT_ROWS = ("RGB", "Flow", "RGB+Flow")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")


def golden_path(seed: int, golden_dir: str = GOLDEN_DIR) -> str:
    return os.path.join(golden_dir, f"seed-{seed}.json")


def load_golden(seed: int, workload: str, golden_dir: str = GOLDEN_DIR) -> dict | None:
    path = golden_path(seed, golden_dir)
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(workload)


# --- readers ------------------------------------------------------------------

def read_flo2(path: str) -> np.ndarray:
    """(2, h, w) float32 planes of a .flo2 file: magic, width, height, dx, dy."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"FLO2":
        raise ValueError(f"{path}: not a .flo2 file")
    w, h = struct.unpack("<II", raw[4:12])
    planes = np.frombuffer(raw, dtype="<f4", offset=12)
    if planes.size != 2 * w * h:
        raise ValueError(f"{path}: expected {2 * w * h} values, found {planes.size}")
    return planes.reshape(2, h, w)


def scene_flow(scene_dir: str) -> dict:
    """sha256 over the scene directory, frame count and summary statistics."""
    digest = hashlib.sha256()
    planes = []
    for name in sorted(os.listdir(scene_dir)):
        path = os.path.join(scene_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        if name.endswith(".flo2"):
            planes.append(read_flo2(path).astype(np.float64))
    stack = np.stack(planes) if planes else np.zeros((0, 2, 1, 1))
    finite = bool(np.isfinite(stack).all())
    summary = []
    for ch in (0, 1):
        v = stack[:, ch]
        summary += [float(v.mean()), float(np.abs(v).mean()), float(v.min()), float(v.max())]
    return {"sha256": digest.hexdigest(), "frames": len(planes), "finite": finite,
            "summary": summary, "summary_tol": FLOW_SUMMARY_TOL}


def flow_outputs(flow_root: str) -> dict:
    if not os.path.isdir(flow_root):
        return {}
    return {vid: scene_flow(os.path.join(flow_root, vid))
            for vid in sorted(os.listdir(flow_root))}


def eval_outputs(report_dir: str) -> dict:
    """Per-clip scores from scores.log and the rows of report.json."""
    scores = {}
    with open(os.path.join(report_dir, "scores.log")) as fh:
        for line in fh:
            cols = line.split()
            if cols:
                scores[cols[0]] = [float(c) for c in cols[2:5]]
    with open(os.path.join(report_dir, "report.json")) as fh:
        rows = json.load(fh)["rows"]
    return {"scores": scores, "rows": rows}


# --- comparisons --------------------------------------------------------------

def _is_score(v: float) -> bool:
    """A sigmoid score as printed: 6 decimals, so (0, 1) may round to 0 or 1."""
    return 0.0 <= v <= 1.0


def check_flow(got: dict, want: dict | None) -> list[str]:
    if not got:
        return ["no flow written"]
    if want is None:
        return [f"flow {vid}: non-finite values" for vid, s in got.items() if not s["finite"]]
    problems = []
    if sorted(got) != sorted(want):
        problems.append(f"flow scenes {sorted(got)} != golden {sorted(want)}")
    for vid in sorted(set(got) & set(want)):
        g, w = got[vid], want[vid]
        if g["sha256"] == w["sha256"]:
            continue
        if g["frames"] != w["frames"]:
            problems.append(f"flow {vid}: {g['frames']} frames, golden {w['frames']}")
            continue
        worst = max(abs(a - b) for a, b in zip(g["summary"], w["summary"]))
        if not worst <= w["summary_tol"]:
            problems.append(f"flow {vid}: summary differs by {worst:.3g} "
                            f"(tolerance {w['summary_tol']:g})")
    return problems


def check_eval(got: dict, want: dict | None) -> list[str]:
    problems = []
    if want is None:
        if sorted(got["rows"]) != sorted(REPORT_ROWS):
            problems.append(f"report rows {sorted(got['rows'])}, expected {list(REPORT_ROWS)}")
        for clip, vals in got["scores"].items():
            if not all(_is_score(v) for v in vals):
                problems.append(f"score {clip}: {vals} not all in [0, 1]")
        if not got["scores"]:
            problems.append("scores.log is empty")
        return problems
    if got["rows"] != want["rows"]:
        problems.append(f"report rows {got['rows']} != golden {want['rows']}")
    if sorted(got["scores"]) != sorted(want["scores"]):
        problems.append(f"scored clips {sorted(got['scores'])} != golden {sorted(want['scores'])}")
    for clip in sorted(set(got["scores"]) & set(want["scores"])):
        for g, w in zip(got["scores"][clip], want["scores"][clip]):
            if not abs(g - w) <= SCORE_TOL:
                problems.append(f"score {clip}: {g} vs golden {w}")
    return problems


def check_infer(probe: str, score: float, want: dict | None) -> list[str]:
    if not _is_score(score):
        return [f"infer {probe}: score {score} not in [0, 1]"]
    if want is None:
        return []
    if probe not in want:
        return [f"infer {probe}: no golden score"]
    if not abs(score - want[probe]) <= SCORE_TOL:
        return [f"infer {probe}: {score} vs golden {want[probe]}"]
    return []
