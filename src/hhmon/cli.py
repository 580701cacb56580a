"""The `hhmon` command line: gen, prepare, flow, train, eval, infer.

Exit codes: 0 success, 1 a worker process that died without its result,
2 configuration or usage, 3 data, 4 model.  Each command locks
`<work_dir>/.lock`: `infer`, which only reads, shares the lock with other
`infer` calls, and every other command holds it alone.  A command that
finds the lock held exits 2; a dead holder's lock is gone with it.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import os
import sys

from . import backend, clipset, metrics, pipeline, workers
from .config import PipelineConfig, dump_config, load_config
from .errors import ConfigError, DataError, HhmonError


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file overlaying the defaults")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the global seed")
    common.add_argument("--print-config", action="store_true",
                        help="print the fully resolved config and exit")

    parser = argparse.ArgumentParser(
        prog="hhmon",
        description="Hand-rubbing action detection on synthetic desk scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="generate the synthetic scene dataset")
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty dataset directory")

    sub.add_parser("prepare", parents=[common],
                   help="detect, link, smooth and split into annotated clips")

    sub.add_parser("flow", parents=[common], help="compute TV-L1 flow for every scene")

    p = sub.add_parser("train", parents=[common],
                       help="pretrain, inflate and fit one stream's classifier")
    p.add_argument("--stream", choices=("rgb", "flow"), required=True)

    sub.add_parser("eval", parents=[common],
                   help="score the test split and write the ablation report")

    p = sub.add_parser("infer", parents=[common],
                       help="score a single 16-frame clip directory")
    p.add_argument("clip_dir", help="directory of 16 frames plus meta.json")
    return parser


@contextlib.contextmanager
def _command_lock(path: str, shared: bool):
    """A POSIX record lock on the file at `path`, shared or exclusive.  The
    kernel drops it when its holder dies, and a forked child does not inherit
    it.  The empty file stays: unlinking a file that another process may have
    opened would let two commands lock two different files.  A lock that
    cannot be made or opened is a DataError naming it."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
    except OSError as exc:
        raise DataError(f"{path}: cannot open the command lock: {exc}") from None
    try:
        try:
            fcntl.lockf(fd, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) | fcntl.LOCK_NB)
        except (BlockingIOError, PermissionError):
            raise ConfigError(f"another command holds the lock at {path}") from None
        yield
    finally:
        os.close(fd)


def _cmd_gen(cfg: PipelineConfig, args) -> int:
    manifest = pipeline.generate(cfg, force=args.force)
    print(f"wrote {len(manifest['scenes'])} scenes to {cfg.paths.dataset_dir}")
    print(pipeline.stats_from_manifest(cfg, manifest))
    return 0


def _cmd_prepare(cfg: PipelineConfig, args) -> int:
    res = pipeline.prepare(cfg)
    counts = ", ".join(f"{split} {sum(r.split == split for r in res.records)}"
                       for split in clipset.SPLITS)
    print(f"prepared {len(res.records)} annotated clips ({counts})")
    print(res.table)
    return 0


def _cmd_flow(cfg: PipelineConfig, args) -> int:
    n = pipeline.compute_flow(cfg)
    n_workers = workers.count()
    flow_root = os.path.dirname(pipeline.artifact_path(cfg, "flow dir"))  # every flow dir's parent
    print(f"computed flow for {n} scenes under {flow_root} ({backend.BACKEND} kernels, "
          f"{n_workers} process{'es' if n_workers != 1 else ''})")
    return 0


def _cmd_train(cfg: PipelineConfig, args) -> int:
    s = pipeline.train_stream(cfg, args.stream)
    print(f"{args.stream}: head loss {s.finetune_curve[0]:.4f} -> "
          f"{s.finetune_curve[-1]:.4f} over {len(s.finetune_curve)} epochs "
          f"({s.n_windows} training windows)")
    if s.scratch_curve:
        print(f"{args.stream} scratch baseline: head loss "
              f"{s.scratch_curve[0]:.4f} -> {s.scratch_curve[-1]:.4f}")
    return 0


def _cmd_eval(cfg: PipelineConfig, args) -> int:
    res = pipeline.evaluate(cfg)
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(metrics.render_report(res.report))
    print(f"report written to {cfg.paths.report_dir}")
    return 0


def _cmd_infer(cfg: PipelineConfig, args) -> int:
    score, label = pipeline.infer_clip(cfg, args.clip_dir)
    print(f"{score:.6f} {label}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "prepare": _cmd_prepare,
    "flow": _cmd_flow,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        if args.print_config:
            print(dump_config(cfg))
            return 0
        with _command_lock(pipeline.artifact_path(cfg, "lock"), shared=args.command == "infer"):
            return _DISPATCH[args.command](cfg, args)
    except HhmonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
