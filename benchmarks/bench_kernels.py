#!/usr/bin/env python3
"""Time the hot kernels: flow solver (compiled C vs numpy) and network layers.

Both implementations share one contract, (P, H, W) stacks of planes, so
besides the timings the script reports the worst output disagreement per
kernel (expected: exactly zero).  Each kernel runs on one large plane and on
a stack of 8 planes at 96x72, the frame size of the default pipeline; a warp
is one coordinate pass and the three images the solver samples there.  On
a 1x144x192 stack, the finest stack of a 192x144 solve, the coordinate pass,
the three samples and the iterations have a row each.  The whole solver runs
on one pair (`tvl1_flow`) and, through `sequence_flow`, on a 23-frame
generated desk scene (the mean default length) at 96x72 and at 192x144; the
scene rows keep their `flow_sequence` label.  The flow stage row runs
`pipeline.compute_flow`, with the active backend and its forked workers, on
a generated 3-scene 192x144 tree (perfbench's flow_large_frames input) and
reports its wall time and the workers' CPU time from RUSAGE_CHILDREN, as a
share of workers x wall: a profiler in this process does not see the workers.
The generation rows render one 23-frame scene (`synth.generate_scene`) at
96x72 and at 192x144, best of 5, and time `synth.generate_dataset` on
perfbench's 8 desk scenes, with the worker count in the label.
The script builds the C library with setup.py into a temporary directory and
binds it from there, so nothing is left under src/ (a library built in place
would switch the package, and everything run on the checkout, to the
compiled backend).

The network rows time conv1 and each max pool of the default topology on
8 clips and on 1 clip, inflated from a random 2D twin as the train stage
does: the general route (with a cache, as a training step runs it) against
the no-cache route that features and scores take (box-sum conv, separable
pool), with the largest output difference (pools: expected exactly zero).
The training rows time the cached route's forward and backward passes of
conv1 (whose backward skips the batch's gradient, as a training step does)
and of the whole mixed1 block of a random net, and the padding rows
one `layers._pad5` call each (conv1's zero pad, mixed1's -inf pool pad and
its circular variant).  The feature rows run `training.extract_features` on
8 prebuilt clips through an inflated and a random net, as train --stream
rgb does, and report the time and the tracemalloc peak of one pass.  The
request rows time, best of 20 x --repeats, what an `hhmon infer` call does
around the network: the crop resize of an 18x20 ROI of 16 RGB frames, as
the (48, 18, 20) plane stack `clipset.crop_window` resizes, to the 56x56
input (the center window it keeps, and the whole 56x62 resize), the whole
`crop_window` from a 16-frame 96x72 probe to the (3, 16, 56, 56) network
input, `config_from_dict` on the config the perfbench workloads write, and
`pose.load_poses` on a 16-line keypoints file, and one acquire and release
of the shared command lock an `infer` call takes.  One more row times a flow
pyramid-level resize, a 22x72x96 stack to 36x48.  The last row gives the
package's size, the line counts of src/hhmon/*.py and of the C kernels, so
that it comes from the same run as the timings:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--size 256] [--iters 50] [--repeats 5]
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from hhmon import (_accel, _purekernels, backend, cli, clipset, config, frameio, layers,
                   model, pipeline, pose, synth, training, tvl1, workers)
from hhmon.frameio import FrameSequence
from hhmon.pose import BBox

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_compiled(out_dir):
    """Build the C kernels into out_dir and bind them; None if that fails."""
    subprocess.run([sys.executable, "setup.py", "build_ext", "--build-lib", out_dir,
                    "--build-temp", out_dir], cwd=REPO, capture_output=True)
    try:
        return _accel.CompiledKernels(os.path.join(out_dir, "hhmon", "_accel"))
    except OSError:
        return None


def texture(rng, h, w):
    img = rng.random((h, w), dtype=np.float32)
    for _ in range(4):
        acc = img.copy()
        for axis in (0, 1):
            for shift in (-1, 1):
                acc = acc + np.roll(img, shift, axis=axis)
        img = acc / 5.0
    img -= img.min()
    return img / img.max()


def best_of(fn, repeats):
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def warp_inputs(rng, shape):
    """Three images (a texture and its gradients) and a displacement field."""
    p, h, w = shape
    img = np.stack([texture(rng, h, w) for _ in range(p)]) * np.float32(255.0)
    u = rng.standard_normal(shape).astype(np.float32) * 2.0
    v = rng.standard_normal(shape).astype(np.float32) * 2.0
    return (img, *tvl1._centered_gradient(img)), u, v


def bench_warp(mod, rng, shape, repeats):
    images, u, v = warp_inputs(rng, shape)

    def warp():
        at = mod.warp_coords(u, v)
        return np.stack([mod.warp_bilinear(a, at) for a in images])
    return best_of(warp, repeats)


def bench_coords(mod, rng, shape, repeats):
    _, u, v = warp_inputs(rng, shape)
    t, at = best_of(lambda: mod.warp_coords(u, v), repeats)
    return t, np.stack([a.astype(np.float64) for a in at])


def bench_samples(mod, rng, shape, repeats):
    images, u, v = warp_inputs(rng, shape)
    at = _purekernels.warp_coords(u, v)  # either backend's sampler takes these
    return best_of(lambda: np.stack([mod.warp_bilinear(a, at) for a in images]), repeats)


def bench_iterations(mod, rng, shape, n_iters, repeats):
    I1wx = rng.standard_normal(shape).astype(np.float32)
    I1wy = rng.standard_normal(shape).astype(np.float32)
    grad = I1wx**2 + I1wy**2
    rho_c = rng.standard_normal(shape).astype(np.float32)

    times = []
    out = None
    for _ in range(repeats):
        # the kernel updates its six state fields in place: fresh copies each
        # run, allocated outside the timed region
        state = [np.zeros(shape, dtype=np.float32) for _ in range(6)]
        t0 = time.perf_counter()
        out = mod.tvl1_iterations(I1wx, I1wy, rho_c, grad, *state,
                                  0.15, 0.3, 0.25, n_iters, 0.0)
        times.append(time.perf_counter() - t0)
    return min(times), np.stack(out[:2])


KERNELS = ("warp_coords", "warp_bilinear", "tvl1_iterations")


def on_backend(mod, fn):
    """fn() with the solver pointed at the kernels of mod."""
    saved = [getattr(backend, k) for k in KERNELS]
    for k in KERNELS:
        setattr(backend, k, getattr(mod, k))
    try:
        return fn()
    finally:
        for k, fn_saved in zip(KERNELS, saved):
            setattr(backend, k, fn_saved)


def bench_flow(mod, rng, size, repeats):
    img0 = texture(rng, size, size)
    img1 = np.roll(img0, 1, axis=1)
    return on_backend(mod, lambda: best_of(lambda: tvl1.tvl1_flow(img0, img1), repeats))


def bench_scene(mod, seq, repeats):
    params = tvl1.TvL1Params()
    return on_backend(mod, lambda: best_of(lambda: tvl1.sequence_flow(seq.data, params),
                                           repeats))


def flow_stage(repeats):
    """(wall s, workers' CPU s, workers) of `pipeline.compute_flow` on a
    generated 3-scene 192x144 tree, flow_large_frames' input, best of
    `repeats` by wall time.  The workers' CPU time comes from
    RUSAGE_CHILDREN, which counts the forked workers once they are reaped."""
    cfg = config.config_from_dict({"seed": 0, "gen": {
        "n_rubbing": 3, "n_other": 0, "n_synthetic_rubbing": 0, "n_frames_min": 23,
        "n_frames_max": 23, "width": 192, "height": 144}})
    best = None
    with tempfile.TemporaryDirectory(prefix="hhmon-flow-") as tmp:
        cfg.paths.dataset_dir = os.path.join(tmp, "ds")
        pipeline.generate(cfg)
        for k in range(repeats):
            cfg.paths.work_dir = os.path.join(tmp, f"work{k}")
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            pipeline.compute_flow(cfg)
            wall = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            if best is None or wall < best[0]:
                best = (wall, cpu)
    return (*best, workers.count())


def gen_rows(repeats):
    """(name, best s) of `synth.generate_scene` on one 23-frame scene at
    96x72 and at 192x144, best of 5, and of the wall time of
    `synth.generate_dataset` on perfbench's 8 desk scenes, best of `repeats`."""
    rows = []
    for w, h in ((96, 72), (192, 144)):
        spec = synth.SceneSpec(seed=3, n_frames=23, width=w, height=h)
        rows.append((f"render scene 23x{w}x{h}", best_of(lambda: synth.generate_scene(spec), 5)[0]))
    cfg = synth.DatasetConfig(n_rubbing=3, n_other=3, n_synthetic_rubbing=2,
                              n_frames_min=23, n_frames_max=23)
    with tempfile.TemporaryDirectory(prefix="hhmon-gen-") as tmp:
        runs = iter(range(repeats))
        t, _ = best_of(lambda: synth.generate_dataset(cfg, os.path.join(tmp, str(next(runs))), 0),
                       repeats)
    n = workers.count()
    rows.append((f"gen 8 desk scenes ({n} worker{'s' if n != 1 else ''})", t))
    return rows


def network_rows(n_clips, repeats):
    """(name, general s, no-cache s, max|diff|) for conv1 and each pool."""
    spec = model.i3d_mini()
    twin = model.Network.init(model.collapse_temporal(spec), seed=0)
    net = model.Network(spec, model.inflate_params(twin.params, spec))
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (n_clips, 3, spec.clip_len, spec.input_size,
                            spec.input_size)).astype(np.float32)
    conv1, pool1, mixed1, pool2, mixed2 = spec.blocks
    a1 = net._conv(x, conv1, "zero", None)
    p1 = layers.maxpool3d_forward(a1, pool1.kernel)[0]
    m1 = net._mixed(p1, mixed1, "zero", None)
    p2 = layers.maxpool3d_forward(m1, pool2.kernel)[0]
    cases = [
        ("conv1", layers.conv3d_forward,
         (x, net.params["conv1.w"], net.params["conv1.b"], conv1.stride)),
        ("pool1", layers.maxpool3d_forward, (a1, pool1.kernel)),
        ("mixed1 pool", layers.maxpool3d_forward, (p1, (mixed1.kt, 3, 3), (1, 1, 1), "same")),
        ("pool2", layers.maxpool3d_forward, (m1, pool2.kernel)),
        ("mixed2 pool", layers.maxpool3d_forward, (p2, (mixed2.kt, 3, 3), (1, 1, 1), "same")),
    ]
    rows = []
    for name, fn, args in cases:
        t_gen, (y_gen, _) = best_of(lambda: fn(*args, want_cache=True), repeats)
        t_fast, (y_fast, _) = best_of(lambda: fn(*args, want_cache=False), repeats)
        rows.append((f"{name} x{n_clips}", t_gen, t_fast,
                     float(np.abs(y_gen - y_fast).max())))
    return rows


def training_rows(n_clips, repeats):
    """(name, forward s, backward s) of the cached route a training step runs."""
    spec = model.i3d_mini()
    net = model.Network.init(spec, seed=0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (n_clips, 3, spec.clip_len, spec.input_size,
                            spec.input_size)).astype(np.float32)
    conv1, pool1, mixed1 = spec.blocks[:3]
    w, b = net.params["conv1.w"], net.params["conv1.b"]
    t_fwd, (y, cache) = best_of(lambda: layers.conv3d_forward(x, w, b, conv1.stride), repeats)
    dy = np.ones_like(y)
    # a training step wants no gradient of the batch
    t_bwd, _ = best_of(lambda: layers.conv3d_backward(dy, cache, want_dx=False), repeats)
    rows = [(f"conv1 x{n_clips} (no dx)", t_fwd, t_bwd)]
    p1 = layers.maxpool3d_forward(y * (y > 0), pool1.kernel)[0]
    tape = []

    def mixed_forward():
        tape.clear()
        return net._mixed(p1, mixed1, "zero", tape)
    t_fwd, y = best_of(mixed_forward, repeats)
    dy = np.ones_like(y)
    t_bwd, _ = best_of(lambda: tape[0](dy, {}), repeats)
    rows.append((f"mixed1 x{n_clips}", t_fwd, t_bwd))
    pool_pads = layers._pad_amounts(p1.shape[2:], (mixed1.kt, 3, 3), (1, 1, 1), "same")
    pads = [("conv1 zero", x, layers._pad_amounts(x.shape[2:], conv1.kernel, conv1.stride,
                                                  "same"), "zero", 0.0),
            ("mixed1 pool -inf", p1, pool_pads, "zero", -np.inf),
            ("mixed1 pool circular", p1, pool_pads, "circular", -np.inf)]
    for name, arr, amounts, mode, fill in pads:
        t, _ = best_of(lambda: layers._pad5(arr, amounts, mode, fill), repeats)
        rows.append((f"pad {name} x{n_clips}", t, 0.0))
    return rows


def feature_rows(n_clips, repeats):
    """(name, s, tracemalloc peak bytes) of one feature pass over n_clips
    prebuilt clips, for an inflated and a random net."""
    spec = model.i3d_mini()
    twin = model.Network.init(model.collapse_temporal(spec), seed=0)
    nets = [("inflated", training.inflate_and_freeze(twin, spec)),
            ("random", training.scratch_network(spec, seed=0))]
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, (n_clips, 3, spec.clip_len, spec.input_size,
                            spec.input_size)).astype(np.float32)
    labels = np.zeros(n_clips)
    rows = []
    for name, net in nets:
        def run():
            return training.extract_features([net], zip(x, labels))
        t, _ = best_of(run, repeats)
        tracemalloc.start()
        run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rows.append((f"features x{n_clips} {name}", t, peak))
    return rows


def request_rows(repeats):
    """(name, best s) of the work an infer request does outside the network,
    and of one pyramid-level resize of the flow solver."""
    n = 20 * repeats
    rng = np.random.default_rng(7)
    roi = rng.random((48, 18, 20), dtype=np.float32)  # (C x frames, h, w)
    window = (slice(0, 56), slice(3, 59))  # the center 56x56 of 56x62
    seq = FrameSequence(rng.random((16, 72, 96, 3), dtype=np.float32))
    box = BBox(30.0, 20.0, 50.0, 38.0)  # an 18x20 ROI
    level = rng.random((22, 72, 96), dtype=np.float32)  # a 23-frame scene's pairs
    rows = [("crop resize 48x18x20 -> 56x56 window",
             best_of(lambda: frameio.resize_bilinear(roi, 62, 56, window), n)[0]),
            ("crop resize 48x18x20 -> 56x62 whole",
             best_of(lambda: frameio.resize_bilinear(roi, 62, 56), n)[0]),
            ("crop_window 16x18x20x3 -> 3x16x56x56",
             best_of(lambda: clipset.crop_window(seq, box, 0, 16, 56), n)[0]),
            ("pyramid resize 22x72x96 -> 22x36x48",
             best_of(lambda: frameio.resize_bilinear(level, 48, 36), n)[0])]
    paths = {key: os.path.join("tree", key) for key in
             ("dataset_dir", "work_dir", "checkpoint_dir", "report_dir")}
    gen = {"n_rubbing": 3, "n_other": 3, "n_synthetic_rubbing": 2,
           "n_frames_min": 23, "n_frames_max": 23}
    data = {"seed": 3, "paths": paths, "gen": gen}
    rows.append(("config_from_dict (workload config)",
                 best_of(lambda: config.config_from_dict(data), n)[0]))
    _, poses = synth.generate_scene(synth.SceneSpec(seed=3, n_frames=16))
    with tempfile.TemporaryDirectory(prefix="hhmon-poses-") as tmp:
        path = os.path.join(tmp, "keypoints.txt")
        pose.save_poses(poses, path)
        rows.append(("load_poses 16 lines", best_of(lambda: pose.load_poses(path), n)[0]))

        def lock_cycle():
            with cli._command_lock(tmp, shared=True):
                pass

        rows.append(("command lock acquire + release", best_of(lock_cycle, n)[0]))
    return rows


def package_lines():
    """(lines of src/hhmon/*.py, lines of _accel/flowkernels.c)."""
    pkg = os.path.join(REPO, "src", "hhmon")

    def lines(path):
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")
    py = sum(lines(os.path.join(pkg, n)) for n in os.listdir(pkg) if n.endswith(".py"))
    return py, lines(os.path.join(pkg, "_accel", "flowkernels.c"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=256, help="kernel grid side")
    ap.add_argument("--flow-size", type=int, default=128,
                    help="image side for the full solver")
    ap.add_argument("--iters", type=int, default=50,
                    help="fixed-point iterations per tvl1_iterations call")
    ap.add_argument("--repeats", type=int, default=5, help="take the best of N")
    args = ap.parse_args()

    stacks = [(f"{args.size}x{args.size}", (1, args.size, args.size)),
              ("8x96x72", (8, 72, 96))]  # (P, H, W)
    rows = []
    for label, shape in stacks:
        rows += [
            (f"warp_coords+3 images {label}",
             lambda mod, shape=shape: bench_warp(mod, np.random.default_rng(0), shape,
                                                 args.repeats)),
            (f"tvl1_iterations x{args.iters} {label}",
             lambda mod, shape=shape: bench_iterations(mod, np.random.default_rng(1), shape,
                                                       args.iters, args.repeats)),
        ]
    rows += [
        (f"tvl1_flow {args.flow_size}x{args.flow_size}",
         lambda mod: bench_flow(mod, np.random.default_rng(2), args.flow_size,
                                args.repeats)),
    ]
    big = (1, 144, 192)  # the finest stack of a 192x144 solve
    rows += [
        ("warp_coords 1x144x192",
         lambda mod: bench_coords(mod, np.random.default_rng(0), big, args.repeats)),
        ("warp_bilinear x3 1x144x192",
         lambda mod: bench_samples(mod, np.random.default_rng(0), big, args.repeats)),
        (f"tvl1_iterations x{args.iters} 1x144x192",
         lambda mod: bench_iterations(mod, np.random.default_rng(1), big, args.iters,
                                      args.repeats)),
    ]
    for w, h in ((96, 72), (192, 144)):
        seq, _ = synth.generate_scene(synth.SceneSpec(seed=3, n_frames=23, width=w, height=h))
        rows.append((f"flow_sequence 23x{w}x{h}",
                     lambda mod, seq=seq: bench_scene(mod, seq, args.repeats)))

    with tempfile.TemporaryDirectory(prefix="hhmon-accel-") as out_dir:
        compiled = build_compiled(out_dir)
        print(f"active backend: {backend.BACKEND}"
              + ("" if compiled is not None else " (compiled kernels failed to build)"))
        print(f"{'kernel':<36} {'pure':>10} {'compiled':>10} {'speedup':>8} {'max|diff|':>10}")
        for name, run in rows:
            t_pure, out_pure = run(_purekernels)
            if compiled is None:
                print(f"{name:<36} {t_pure * 1e3:>8.2f}ms {'-':>10} {'-':>8} {'-':>10}")
                continue
            t_comp, out_comp = run(compiled)
            diff = float(np.abs(np.asarray(out_pure) - np.asarray(out_comp)).max())
            print(f"{name:<36} {t_pure * 1e3:>8.2f}ms {t_comp * 1e3:>8.2f}ms "
                  f"{t_pure / t_comp:>7.1f}x {diff:>10.1e}")

    wall, cpu, workers = flow_stage(args.repeats)
    print(f"\n{'flow stage (active backend)':<36} {'wall':>10} {'CPU':>10} {'share':>8}")
    print(f"{'compute_flow 3x23x192x144':<36} {wall:>9.2f}s {cpu:>9.2f}s "
          f"{cpu / (wall * workers):>7.0%}  of {workers} workers")

    print(f"\n{'scene generation':<36} {'time':>10}")
    for name, t in gen_rows(args.repeats):
        print(f"{name:<36} {t * 1e3:>8.2f}ms")

    print(f"\n{'layer (inflated net)':<36} {'general':>10} {'no-cache':>10} {'speedup':>8} "
          f"{'max|diff|':>10}")
    for n_clips in (8, 1):
        for name, t_gen, t_fast, diff in network_rows(n_clips, args.repeats):
            print(f"{name:<36} {t_gen * 1e3:>8.2f}ms {t_fast * 1e3:>8.2f}ms "
                  f"{t_gen / t_fast:>7.1f}x {diff:>10.1e}")

    print(f"\n{'feature pass (one net)':<36} {'time':>10} {'peak':>10}")
    for name, t, peak in feature_rows(8, args.repeats):
        print(f"{name:<36} {t * 1e3:>8.2f}ms {peak / 2**20:>7.2f}MiB")

    print(f"\n{'request (around the network)':<36} {'time':>10}")
    for name, t in request_rows(args.repeats):
        print(f"{name:<36} {t * 1e3:>8.3f}ms")

    print(f"\n{'training route (random net)':<36} {'forward':>10} {'backward':>10}")
    for n_clips in (8, 1):
        for name, t_fwd, t_bwd in training_rows(n_clips, args.repeats):
            print(f"{name:<36} {t_fwd * 1e3:>8.2f}ms "
                  + (f"{t_bwd * 1e3:>8.2f}ms" if t_bwd else f"{'-':>10}"))

    py, c = package_lines()
    print(f"\n{'size':<36} {'*.py':>10} {'C':>10}")
    print(f"{'package lines':<36} {py:>10} {c:>10}")


if __name__ == "__main__":
    main()
