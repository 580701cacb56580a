"""End-to-end orchestration behind the CLI subcommands.

Stages communicate only through files under the configured roots: the scene
manifest and frames from `gen`, tracks and annotations from `prepare`,
per-scene flow directories from `flow`, SWNET checkpoints from `train`, and
the report bundle from `eval`.  Every stage is a pure function of
(files on disk, config, seed).  `ARTIFACTS` is the one table of where the
files between the stages live and which command writes each; every reader
and writer takes its path from `artifact_path`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import (artifacts, checkpoint, clipset, frameio, metrics, model, pose, synth, tracking,
               training, tvl1, workers)
from .clipset import CLIP_LEN, AnnotationRecord, AugmentConfig
from .config import PipelineConfig
from .errors import DataError, ModelError
from .metrics import ScoredClip


# --- artifacts ------------------------------------------------------------

# Each kind of file one stage hands on: its root in `cfg.paths`, its path
# there and the command that writes it, `{}` a scene or network name in both
# (`train --stream rgb` also writes rgb_scratch, and either stream twin2d).
# Scene frames and keypoints are found through the manifest (`synth`).
ARTIFACTS = {
    "flow dir": ("work_dir", "flow/{}", "flow"),
    "tracks": ("work_dir", "tracks/{}.txt", "prepare"),
    "corrections": ("work_dir", "corrections/{}.txt", None),  # edited by hand
    "annotations": ("work_dir", "annotations.csv", "prepare"),
    "lock": ("work_dir", ".lock", None),  # every command
    "checkpoint": ("checkpoint_dir", "{}.swnet", "train --stream {}"),
}


def artifact_path(cfg: PipelineConfig, kind: str, name: str = "") -> str:
    root, pattern, _ = ARTIFACTS[kind]
    return os.path.join(getattr(cfg.paths, root), pattern.format(name))


def _require(cfg: PipelineConfig, kind: str, name: str = "") -> str:
    """The path of an artifact a stage reads; a missing one is a DataError
    naming the command that writes it."""
    path = artifact_path(cfg, kind, name)
    if not (os.path.isdir if kind == "flow dir" else os.path.isfile)(path):
        raise DataError(f"{kind} not found at {path}; run {ARTIFACTS[kind][2].format(name)} first")
    return path


# --- gen ------------------------------------------------------------------

def generate(cfg: PipelineConfig, force: bool = False) -> dict:
    out = cfg.paths.dataset_dir
    if os.path.isdir(out) and os.listdir(out):
        if not force:
            raise DataError(f"{out} already exists and is not empty; pass --force to overwrite")
        artifacts.remove(out)
    return synth.generate_dataset(cfg.gen, out, cfg.seed)


# --- prepare --------------------------------------------------------------

@dataclass
class PrepareResult:
    records: list[AnnotationRecord]
    table: str = ""


def _detections_for_scene(params: pose.RoiParams, poses: list[pose.PoseFrame],
                          frame_dims: tuple[int, int]):
    per_frame = []
    for pf in poses:
        boxes = []
        for person in pf.persons:
            box = pose.upper_body_roi(person, frame_dims, params)
            if box is not None:
                boxes.append(box)
        per_frame.append((pf.frame_index, boxes))
    return per_frame


def _resolve_track(tracks: list[tracking.Track], rec_start: int, rec_end: int,
                   video_id: str) -> int:
    """Track covering the most annotated frames; ties go to the lower id."""
    best_id, best_cov = None, 0
    for t in sorted(tracks, key=lambda t: t.track_id):
        cov = sum(1 for f in t.frame_indices() if rec_start <= f < rec_end)
        if cov > best_cov:
            best_id, best_cov = t.track_id, cov
    if best_id is None:
        raise DataError(f"{video_id}: no track covers annotated frames "
                        f"[{rec_start}, {rec_end})")
    return best_id


def prepare(cfg: PipelineConfig) -> PrepareResult:
    manifest = synth.load_manifest(cfg.paths.dataset_dir)
    records: list[AnnotationRecord] = []
    for entry, rec in zip(manifest["scenes"], synth.manifest_records(manifest)):
        video_id = entry["video_id"]
        kp_path = os.path.join(cfg.paths.dataset_dir, entry["keypoints_file"])
        if not os.path.isfile(kp_path):
            raise DataError(f"{video_id}: keypoints file not found: {kp_path}")
        meta = frameio.load_descriptor(os.path.join(cfg.paths.dataset_dir, entry["frames_dir"]))
        poses = pose.load_poses(kp_path)
        per_frame = _detections_for_scene(cfg.roi, poses, (meta["width"], meta["height"]))
        tracks = tracking.link_detections(per_frame, cfg.link)
        corr_path = artifact_path(cfg, "corrections", video_id)
        if os.path.isfile(corr_path):
            tracks = tracking.correct_assignment(tracks, tracking.parse_corrections(corr_path))
        tracks = [tracking.smooth_track(t, cfg.link.smooth_window) for t in tracks]
        tracking.save_tracks(tracks, artifact_path(cfg, "tracks", video_id))
        track_id = _resolve_track(tracks, rec.start_frame, rec.end_frame, video_id)
        records.append(replace(rec, track_id=track_id))
    records = clipset.split_dataset(records, seed=cfg.seed)
    clipset.save_annotations(records, artifact_path(cfg, "annotations"))
    return PrepareResult(records=records, table=render_stats(dataset_stats(records, cfg.clip)))


def load_prepared(cfg: PipelineConfig, split: str) -> list[AnnotationRecord]:
    """The prepared records of one split (see `clipset.SPLITS`), in annotation order."""
    path = _require(cfg, "annotations")
    records = clipset.load_annotations(path)
    for rec in records:
        if not rec.split:
            raise DataError(f"{path}: {rec.video_id} has no split; run prepare again")
    return [rec for rec in records if rec.split == split]


# --- the Table-1-shaped statistics printout -------------------------------

_SPLIT_NAMES = ("Training", "Validation", "Testing")
_GROUP_NAMES = ("Hand Rubbing", "Other Actions", "Synthetic Rubbing")


def _group_of(rec: AnnotationRecord) -> int:
    if rec.synthetic:
        return 2
    return 0 if rec.label == 1 else 1


def dataset_stats(records: list[AnnotationRecord], aug: AugmentConfig) -> dict:
    rows = {}
    for split_name, split in zip(_SPLIT_NAMES, clipset.SPLITS):
        cells = []
        for group in range(3):
            recs = [r for r in records if r.split == split and _group_of(r) == group]
            clips = len(recs)
            frames = sum(r.n_frames for r in recs)
            windows = sum(len(clipset.window_starts(r.n_frames, r.label, aug)) for r in recs)
            cells.append({"clips": clips, "frames": frames,
                          "windows": windows, "window_frames": windows * CLIP_LEN})
        rows[split_name] = cells
    return rows


def render_stats(rows: dict) -> str:
    def cell(n, f):
        return f"{n}({f})"

    lines = []
    head1 = f"{'':14}" + "".join(f"{g:<24}" for g in _GROUP_NAMES)
    head2 = f"{'Split':<14}" + "".join(f"{'w/o aug':<12}{'w/ aug':<12}" for _ in _GROUP_NAMES)
    lines.append(head1.rstrip())
    lines.append(head2.rstrip())
    for split_name in _SPLIT_NAMES:
        row = f"{split_name:<14}"
        for c in rows[split_name]:
            row += f"{cell(c['clips'], c['frames']):<12}{cell(c['windows'], c['window_frames']):<12}"
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def stats_from_manifest(cfg: PipelineConfig, manifest: dict) -> str:
    """The prospective per-split table for `gen` (same split rule as prepare)."""
    records = clipset.split_dataset(synth.manifest_records(manifest), seed=cfg.seed)
    return render_stats(dataset_stats(records, cfg.clip))


# --- flow -----------------------------------------------------------------

def _ranges(n: int, n_ranges: int) -> list[tuple[int, int]]:
    """At most `n_ranges` contiguous ranges [a, b) of near-equal length that
    cover 0..n: non-empty ones, or the one empty range when n is 0."""
    k = max(1, min(n_ranges, n))
    bounds = [i * n // k for i in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def compute_flow(cfg: PipelineConfig) -> int:
    """TV-L1 flow for every scene; returns the number of scenes processed.

    The pairs are solved in the worker pool (`workers.run`), one process
    per CPU.  Each scene is cut into that many contiguous pair ranges
    (fewer when it has fewer pairs) that share their boundary frames, and
    the (scene, range) jobs are handed out in scene order.  A worker loads
    its range's frames a..b, solves pairs [a, b) with `tvl1.sequence_flow`
    and writes their flow frames a..b - 1, and frame b too when the range
    ends the scene, into the scene's staged dir (`artifacts.staging`).
    Every pair is solved as if alone and `tvl1.flow_frames` works frame by
    frame, so each frame equals, bit for bit, that of one call on the scene.

    Once a scene's last range is in, its meta.json is written here and its
    dir committed whole, so scenes may be committed out of order, and a flow
    dir exists only once complete.  The flow root is cleared first, and on
    an error or interrupt every staged dir still present is removed, so a
    run, killed or not, leaves only dirs it wrote.
    """
    manifest = synth.load_manifest(cfg.paths.dataset_dir)
    artifacts.remove(os.path.dirname(artifact_path(cfg, "flow dir")))  # every flow dir's parent
    n_workers = workers.count()
    scenes = []
    for entry in manifest["scenes"]:
        out_dir = artifact_path(cfg, "flow dir", entry["video_id"])
        frames_dir = os.path.join(cfg.paths.dataset_dir, entry["frames_dir"])
        meta, names = frameio.index_sequence(frames_dir)
        if len(names) < 2:
            raise DataError(f"{meta['video_id']}: need at least 2 frames for flow, "
                            f"got {len(names)}")
        scenes.append((frames_dir, out_dir, meta, _ranges(len(names) - 1, n_workers)))
    left = [len(ranges) for *_, ranges in scenes]  # ranges of each scene not yet in

    def solve(job):
        k, a, b = job
        frames_dir, out_dir, _, ranges = scenes[k]
        seq = frameio.load_sequence(frames_dir, slice(a, b + 1))
        flow = tvl1.flow_frames(*tvl1.sequence_flow(seq.data, cfg.flow, f"{seq.video_id}: "),
                                cfg.flow.max_flow)
        with artifacts.writing(out_dir):
            frameio.save_frames(flow if b == ranges[-1][1] else flow[:-1], tmps[k], first=a)

    def done(job, _):
        k = job[0]
        left[k] -= 1
        if not left[k]:
            meta = scenes[k][2]
            frameio.save_descriptor(dict(meta, fps=float(meta["fps"]), channels=2), tmps[k])
            artifacts.commit(scenes[k][1])

    with artifacts.staging([out_dir for _, out_dir, *_ in scenes]) as tmps:
        workers.run(solve, [(k, a, b) for k, (*_, ranges) in enumerate(scenes)
                            for a, b in ranges],
                    lambda job: f"{scenes[job[0]][2]['video_id']} pairs {job[1]}-{job[2] - 1}",
                    done)
    return len(scenes)


# --- clip iteration -------------------------------------------------------

def _scene_loader(cfg: PipelineConfig, stream: str):
    """A function rec -> the record's scene as a `stream` frame sequence.
    RGB frames come from the scene's `frames_dir` in the manifest, which is
    read here, once for every record the loader serves."""
    if stream == "flow":
        def load_flow(rec: AnnotationRecord) -> frameio.FrameSequence:
            return frameio.load_sequence(_require(cfg, "flow dir", rec.video_id))
        return load_flow
    dirs = {e["video_id"]: os.path.join(cfg.paths.dataset_dir, e["frames_dir"])
            for e in synth.load_manifest(cfg.paths.dataset_dir)["scenes"]}

    def load_rgb(rec: AnnotationRecord) -> frameio.FrameSequence:
        if rec.video_id not in dirs:
            raise DataError(f"{rec.video_id}: scene not in the dataset manifest")
        return frameio.load_sequence(dirs[rec.video_id])
    return load_rgb


def _track_for(cfg: PipelineConfig, rec: AnnotationRecord) -> tracking.Track:
    tracks = tracking.load_tracks(_require(cfg, "tracks", rec.video_id))
    for t in tracks:
        if t.track_id == rec.track_id:
            return t
    raise DataError(f"{rec.video_id}: track {rec.track_id} not found in saved tracks")


def clip_id_for(rec: AnnotationRecord, start: int) -> str:
    return f"{rec.video_id}:{rec.track_id}:{start}"


def _window_starts(cfg: PipelineConfig, rec: AnnotationRecord) -> list[int]:
    return [rec.start_frame + rel
            for rel in clipset.window_starts(rec.n_frames, rec.label, cfg.clip)]


def _record_clips(cfg: PipelineConfig, rec: AnnotationRecord, load, mode: str,
                  starts: list[int], n_frames: int = CLIP_LEN):
    """Yield one record's clips (C, n_frames, S, S), one per start, its
    scene read by `load` (see `_scene_loader`) and its track once."""
    seq = load(rec)
    track = _track_for(cfg, rec)
    for start in starts:
        yield clipset.sample_clip(seq, track, start, cfg.clip, mode=mode, seed=cfg.seed,
                                  n_frames=n_frames)


# --- train ----------------------------------------------------------------

@dataclass
class TrainSummary:
    stream: str
    finetune_curve: list[float] = field(default_factory=list)
    scratch_curve: list[float] = field(default_factory=list)
    n_windows: int = 0


def _build_stills(cfg: PipelineConfig, recs: list[AnnotationRecord], load_rgb):
    xs, ys = [], []
    for rec in recs:
        picks = np.unique(np.linspace(rec.start_frame, rec.end_frame - 1,
                                      cfg.train.stills_per_scene).round().astype(int))
        xs += _record_clips(cfg, rec, load_rgb, "train", picks.tolist(), n_frames=1)
        ys += [rec.label] * len(picks)
    if not xs:
        raise DataError("no training scenes to build the still-image task from")
    return np.stack(xs), np.asarray(ys, dtype=np.float64)


def _get_or_train_twin(cfg: PipelineConfig, recs: list[AnnotationRecord],
                       load_rgb) -> model.Network:
    """The saved 2D twin if its layout fits `cfg.clip`, else one pretrained here."""
    path = artifact_path(cfg, "checkpoint", "twin2d")
    rgb_spec = model.i3d_mini(in_channels=3, input_size=cfg.clip.input_size)
    if os.path.isfile(path):
        twin = checkpoint.load_network(path)
        if twin.spec == model.collapse_temporal(rgb_spec):
            return twin
    stills, labels = _build_stills(cfg, recs, load_rgb)
    pre_cfg = replace(cfg.train, epochs=cfg.train.pretrain_epochs)
    twin = training.pretrain_twin(rgb_spec, stills, labels, pre_cfg, cfg.seed)
    checkpoint.save_network(twin, path)
    return twin


def _train_features(cfg: PipelineConfig, nets: list[model.Network],
                    recs: list[AnnotationRecord], load):
    """`training.extract_features(nets, ...)` over the training windows of
    `recs`, in record order, computed in the worker pool.  Each record's
    windows go out as contiguous ranges of at most half a worker's share of
    all the windows, so that the workers end level; a worker reads the
    record's scene and track once per range, samples each window once and
    feeds it to every net alone, so each row has the bits of one serial
    pass.  A record with no window reads its scene and track all the same,
    and adds no row."""
    starts = [_window_starts(cfg, rec) for rec in recs]
    # the most windows a job holds: half a worker's share, rounded up
    share = max(1, -(-sum(map(len, starts)) // (2 * workers.count())))
    jobs = [(k, a, b) for k, s in enumerate(starts)
            for a, b in _ranges(len(s), -(-len(s) // share))]
    parts = {}  # job -> (features per net, labels), None for a record with no window

    def extract(job):
        k, a, b = job
        clips = _record_clips(cfg, recs[k], load, "train", starts[k][a:b])
        if a == b:
            next(clips, None)  # reads the scene and the track, and yields nothing
            return None
        return training.extract_features(nets, ((x, recs[k].label) for x in clips))

    workers.run(extract, jobs, lambda job: recs[job[0]].video_id, parts.__setitem__)
    parts = [parts[job] for job in jobs if parts[job] is not None]
    if not parts:
        raise ModelError("no clips to extract features from")
    return ([np.concatenate(f) for f in zip(*(f for f, _ in parts))],
            np.concatenate([labels for _, labels in parts]))


def train_stream(cfg: PipelineConfig, stream: str) -> TrainSummary:
    """Fit the head of one stream on its training windows.

    The 2D twin (pretrained on stills, or loaded) is inflated under a fresh
    head with a frozen backbone, and the head trains on cached backbone
    features.  For rgb, a random never-trained backbone (`rgb_scratch`) is
    the paired control; each window is sampled once and its batch goes
    through both backbones.  The twin and the heads train here, the
    features are extracted in the worker pool (`_train_features`)."""
    if stream not in ("rgb", "flow"):
        raise DataError(f"stream must be rgb or flow, got {stream!r}")
    train_recs = load_prepared(cfg, "train")
    if not train_recs:
        raise DataError("training split is empty")
    summary = TrainSummary(stream=stream)

    load_rgb = _scene_loader(cfg, "rgb")
    twin = _get_or_train_twin(cfg, train_recs, load_rgb)
    in_ch = 3 if stream == "rgb" else 2
    spec = model.i3d_mini(in_channels=in_ch, input_size=cfg.clip.input_size)
    head_cfg = replace(cfg.train, lr=cfg.train.head_lr)

    net = training.inflate_and_freeze(twin, spec, head_seed=cfg.seed + 1,
                                      flow=(stream == "flow"))
    nets = [net]
    if stream == "rgb":
        nets.append(training.scratch_network(spec, cfg.seed, head_seed=cfg.seed + 1))
    load = load_rgb if stream == "rgb" else _scene_loader(cfg, "flow")
    feats, labels = _train_features(cfg, nets, train_recs, load)
    summary.n_windows = len(labels)
    curves = [training.train_head_on_features(n, f, labels, head_cfg, cfg.seed)
              for n, f in zip(nets, feats)]
    summary.finetune_curve = curves[0]
    checkpoint.save_network(net, artifact_path(cfg, "checkpoint", stream))
    if stream == "rgb":
        summary.scratch_curve = curves[1]
        checkpoint.save_network(nets[1], artifact_path(cfg, "checkpoint", "rgb_scratch"))
    return summary


# --- eval -----------------------------------------------------------------

def _test_scores(cfg: PipelineConfig, nets: dict[str, model.Network],
                 recs: list[AnnotationRecord]) -> dict[str, list[float]]:
    """Each net's score per test record: the record's start-frame clip,
    sampled once per stream and scored by every net of that stream with
    `Network.score`, the call `infer_clip` makes."""
    scores = {name: [] for name in nets}
    for stream, names in (("rgb", ("rgb", "rgb_scratch")), ("flow", ("flow",))):
        names = [name for name in names if name in nets]
        if not names:
            continue
        load = _scene_loader(cfg, stream)
        for rec in recs:
            if rec.n_frames < CLIP_LEN:  # checked before the scene is read
                raise DataError(f"{rec.video_id}: too short for a start-frame window")
            [x] = _record_clips(cfg, rec, load, "eval", [rec.start_frame])
            for name in names:
                scores[name].append(float(nets[name].score(x[None])[0]))
    return scores


def _dataset_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(artifacts.read(artifact_path(cfg, "annotations"))).hexdigest()[:16]


@dataclass
class EvalResult:
    report: metrics.AblationReport
    clips: list[ScoredClip]
    warnings: list[str] = field(default_factory=list)


def _load_stream_net(cfg: PipelineConfig, name: str, path: str) -> model.Network:
    """The checkpoint at path, refused unless it was trained on clips of
    `cfg.clip.input_size` pixels."""
    net = checkpoint.load_network(path)
    if net.spec.input_size != cfg.clip.input_size:
        raise DataError(f"{path}: trained on {net.spec.input_size}-pixel clips, clip.input_size "
                        f"is {cfg.clip.input_size}; run train --stream "
                        f"{name.removesuffix('_scratch')} first")
    return net


def evaluate(cfg: PipelineConfig) -> EvalResult:
    """Score the test split with each stream checkpoint found (rgb_scratch
    only beside rgb) and write the report bundle.  Each test record is one
    16-frame clip from its start frame.  Each stream makes one pass: a
    record's scene and track are read once and its clip is sampled once for
    every net of the stream, so rgb_scratch scores rgb's clips."""
    test_recs = load_prepared(cfg, "test")
    if not test_recs:
        raise DataError("test split is empty")
    paths = {name: artifact_path(cfg, "checkpoint", name)
             for name in ("rgb", "flow", "rgb_scratch")}
    nets = {}
    for name, path in paths.items():
        if os.path.isfile(path) and (name != "rgb_scratch" or "rgb" in nets):
            nets[name] = _load_stream_net(cfg, name, path)
    if not nets:
        raise DataError(f"no stream checkpoints found: rgb ({paths['rgb']}), "
                        f"flow ({paths['flow']})")
    warnings = [f"{s}: checkpoint missing, row marked absent"
                for s in ("rgb", "flow") if s not in nets]

    scores = _test_scores(cfg, nets, test_recs)
    absent = [None] * len(test_recs)
    clips = [ScoredClip(clip_id=clip_id_for(rec, rec.start_frame), label=rec.label,
                        score_rgb=rgb, score_flow=flow)
             for rec, rgb, flow in zip(test_recs, scores.get("rgb", absent),
                                       scores.get("flow", absent))]

    metadata = {
        "dataset_hash": _dataset_hash(cfg),
        "seed": cfg.seed,
        "eval_mode": "per-annotated-clip",
        "threshold": cfg.eval.threshold,
        "n_test_clips": len(test_recs),
    }
    if "rgb_scratch" in nets:
        rows = []
        for name, vals in (("pretrained", scores["rgb"]), ("scratch", scores["rgb_scratch"])):
            sc = [ScoredClip(c.clip_id, c.label, score_rgb=v)
                  for c, v in zip(clips, vals)]
            cm = metrics.confusion_for(sc, "RGB", cfg.eval.threshold)
            rows.append({"name": name, "accuracy": metrics.metrics(cm).accuracy})
        metadata["transfer_comparison"] = rows

    report = metrics.ablation_run(clips, metadata, cfg.eval.threshold)
    metrics.save_report(report, cfg.paths.report_dir, clips, cfg.eval.threshold)
    return EvalResult(report=report, clips=clips, warnings=warnings)


# --- infer ----------------------------------------------------------------

def infer_clip(cfg: PipelineConfig, clip_dir: str) -> tuple[float, str]:
    """Score one 16-frame clip directory with the RGB stream.

    With a keypoints.txt beside the frames, every frame is cut to the raw
    upper-body ROI of the first listed person at the first frame, unlike
    training, which crops a track's smoothed (trailing-average) box at the
    window start.  Without one the full frame is scored, which only works if
    the subject fills it.
    """
    seq = frameio.load_sequence(clip_dir)
    if len(seq) != CLIP_LEN:
        raise DataError(f"{clip_dir}: expected a {CLIP_LEN}-frame clip directory, "
                        f"found {len(seq)} frames")
    if seq.channels != 3:
        raise DataError(f"{clip_dir}: the rgb stream scores 3-channel frames, "
                        f"found {seq.channels}")
    net = _load_stream_net(cfg, "rgb", _require(cfg, "checkpoint", "rgb"))
    box = None
    kp_path = os.path.join(clip_dir, "keypoints.txt")
    if os.path.isfile(kp_path):
        poses = pose.load_poses(kp_path)
        if poses and poses[0].persons:
            box = pose.upper_body_roi(poses[0].persons[0], (seq.width, seq.height), cfg.roi)
    x = clipset.crop_window(seq, box, 0, CLIP_LEN, cfg.clip.input_size)
    score = float(net.score(x[None])[0])
    label = "rubbing_hands" if score >= cfg.eval.threshold else "other"
    return score, label
