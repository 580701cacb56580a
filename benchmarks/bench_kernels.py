#!/usr/bin/env python3
"""Time the flow solver's kernels: compiled C against pure numpy.

Both implementations share one contract, (P, H, W) stacks of planes, so
besides the timings the script reports the worst output disagreement per
row, which must be exactly zero.  Three stacks get a row per kernel: the
coordinate pass (`warp_coords`) and the three images the solver samples
there (`warp_bilinear x3`), each on a random flow of std 2 px and on a
smooth one like the solver's (random flows scatter the gathers, so the two
rank layouts differently); the pyramid's blur (`gaussian_blur`); the
linearized data term (`data_terms`); and the fixed-point iterations
(`tvl1_iterations`).  The stacks are one --size x --size plane, 8 planes at
96x72 (the frame size of the default pipeline) and 1x144x192, the finest
stack of a 192x144 solve.  The whole solver then runs, through
`sequence_flow`, on a 23-frame generated desk scene (the mean default
length) at 96x72 and at 192x144.  The compiled rows run a library that the
package's builder compiles into a temporary directory, whichever backend
the package selected; on x86-64 the loader picks its AVX2 clones where the
host has AVX2, and the sampler's AVX-512F body where it has AVX-512F.  The
second line names the sampler body that library runs.  The
`warp_bilinear x3` rows also time the baseline build (`_accel.BASELINE_FLAGS`:
no clones, scalar sampler), to show the vector body's own gain; their
max|diff| covers both builds.

Stage times are in perfbench's `detail` line and per-layer times come from
its `--trace 1`; this script times only what perfbench cannot run, the two
backends side by side:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--size 256] [--iters 50] [--repeats 5]
"""

import argparse
import tempfile
import time

import numpy as np

from hhmon import _accel, _purekernels, backend, synth, tvl1


def build_compiled(out_dir, flags=_accel.FLAGS):
    """Build the C kernels into out_dir and bind them; None if that fails."""
    try:
        return _accel.CompiledKernels(_accel.build(out_dir, flags=flags))
    except (OSError, AttributeError):
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


def stack_rows(label, shape, n_iters, repeats):
    """(name, run) of each kernel on one (P, H, W) stack, where run(mod)
    gives the best time and the output of the kernels of mod."""
    rng = np.random.default_rng(0)
    p, h, w = shape
    img = np.stack([texture(rng, h, w) for _ in range(p)]) * np.float32(255.0)
    images = (img, *tvl1._centered_gradient(img))
    flows = {
        "": [rng.standard_normal(shape).astype(np.float32) * 2.0 for _ in range(2)],
        "smooth ": [(np.stack([texture(rng, h, w) for _ in range(p)]) - np.float32(0.5))
                    * np.float32(4.0) for _ in range(2)],
    }
    I1wx, I1wy, rho_c = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
    grad = I1wx**2 + I1wy**2
    taps = tvl1._blur_taps(tvl1.TvL1Params().pyramid_factor)

    def coords(u, v):
        def run(mod):
            t, out = best_of(lambda: mod.warp_coords(u, v), repeats)
            return t, np.concatenate([a.astype(np.float64).ravel() for a in out])
        return run

    def samples(u, v):
        at = _purekernels.warp_coords(u, v)  # either backend's sampler takes these

        def run(mod):
            return best_of(lambda: np.stack([mod.warp_bilinear(a, at) for a in images]),
                           repeats)
        return run

    def blur(mod):
        return best_of(lambda: mod.gaussian_blur(img, taps), repeats)

    def data(mod):
        t, out = best_of(lambda: mod.data_terms(rho_c, *images, I1wx, I1wy), repeats)
        return t, np.stack(out)

    def iterations(mod):
        times = []
        out = None
        for _ in range(repeats):
            # the kernel updates its six state fields in place: fresh copies
            # each run, allocated outside the timed region
            state = [np.zeros(shape, dtype=np.float32) for _ in range(6)]
            t0 = time.perf_counter()
            out = mod.tvl1_iterations(I1wx, I1wy, rho_c, grad, *state,
                                      0.15, 0.3, 0.25, n_iters, 0.0)
            times.append(time.perf_counter() - t0)
        return min(times), np.stack(out[:2])

    rows = []
    for kind, (u, v) in flows.items():
        rows += [(f"warp_coords {kind}{label}", coords(u, v)),
                 (f"warp_bilinear x3 {kind}{label}", samples(u, v))]
    return rows + [(f"gaussian_blur {label}", blur), (f"data_terms {label}", data),
                   (f"tvl1_iterations x{n_iters} {label}", iterations)]


def on_backend(mod, fn):
    """fn() with the solver pointed at the kernels of mod."""
    saved = [getattr(backend, k) for k in backend.KERNELS]
    for k in backend.KERNELS:
        setattr(backend, k, getattr(mod, k))
    try:
        return fn()
    finally:
        for k, fn_saved in zip(backend.KERNELS, saved):
            setattr(backend, k, fn_saved)


def scene_row(w, h, repeats):
    """(name, run) of `sequence_flow` on one 23-frame generated scene."""
    seq, _ = synth.generate_scene(synth.SceneSpec(seed=3, n_frames=23, width=w, height=h))
    params = tvl1.TvL1Params()

    def run(mod):
        return on_backend(mod, lambda: best_of(lambda: tvl1.sequence_flow(seq.data, params),
                                               repeats))
    return f"flow_sequence 23x{w}x{h}", run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=256, help="kernel grid side")
    ap.add_argument("--iters", type=int, default=50,
                    help="fixed-point iterations per tvl1_iterations call")
    ap.add_argument("--repeats", type=int, default=5, help="take the best of N")
    args = ap.parse_args()

    stacks = [(f"{args.size}x{args.size}", (1, args.size, args.size)),
              ("8x96x72", (8, 72, 96)),
              ("1x144x192", (1, 144, 192))]  # (P, H, W)
    rows = [row for label, shape in stacks
            for row in stack_rows(label, shape, args.iters, args.repeats)]
    rows += [scene_row(w, h, args.repeats) for w, h in ((96, 72), (192, 144))]

    with (tempfile.TemporaryDirectory(prefix="hhmon-accel-") as out_dir,
          tempfile.TemporaryDirectory(prefix="hhmon-baseline-") as base_dir):
        compiled = build_compiled(out_dir)
        baseline = compiled and build_compiled(base_dir, _accel.BASELINE_FLAGS)
        print(f"active backend: {backend.BACKEND}"
              + ("" if compiled is not None else " (compiled kernels failed to build)"))
        print(f"compiled sampler body: {compiled.sampler if compiled else '-'}; "
              f"baseline: {baseline.sampler if baseline else '-'}")
        print(f"{'kernel':<36} {'pure':>10} {'baseline':>10} {'compiled':>10} {'speedup':>8} "
              f"{'max|diff|':>10}")
        for name, run in rows:
            t_pure, out_pure = run(_purekernels)
            if compiled is None:
                print(f"{name:<36} {t_pure * 1e3:>8.2f}ms {'-':>10} {'-':>10} {'-':>8} {'-':>10}")
                continue
            builds = [compiled]
            if baseline and name.startswith("warp_bilinear x3"):
                builds.append(baseline)
            times, diff = [], 0.0
            for build in builds:
                t, out = run(build)
                times.append(t)
                diff = max(diff, float(np.abs(np.asarray(out_pure) - np.asarray(out)).max()))
            base = f"{times[1] * 1e3:>8.2f}ms" if len(times) > 1 else f"{'-':>10}"
            print(f"{name:<36} {t_pure * 1e3:>8.2f}ms {base} {times[0] * 1e3:>8.2f}ms "
                  f"{t_pure / times[0]:>7.1f}x {diff:>10.1e}")


if __name__ == "__main__":
    main()
