"""What different degradations do to training gradients along the path.

Trains a small velocity model on two-frame moving-square clips, then
measures how far the loss gradient moves when the probe sample is
degraded, at low noise (t = 0.1) and high noise (t = 0.9), under common
random numbers.

Appearance damage (blur, quantization, pixel noise) changes the clip the
model must reconstruct at low noise, so those gradients diverge at low t
and wash out at high t, where the input is mostly noise anyway. Frame
shuffling destroys only motion; on two-frame clips it equals time
reversal, which is itself a legal clip here because speeds come in both
signs. A model whose low-noise inversion has converged therefore treats
the shuffled clip as in-distribution at t = 0.1 while the two clips'
regression targets still differ at t = 0.9. That direction needs the
long training budget the acceptance suite uses (9000 steps, width 1024);
at this demo's quick budget the shuffle row usually still reads
off-distribution at low t, and you can watch the gap close by raising
--steps.
"""

import argparse
import time

import numpy as np

from tqd.analysis import gradient_probe
from tqd.synth import DegradationSpec, ToyVideo, render_squares
from tqd.trainer import VelocityModel, adam_update, loss_and_grad

F, HW = 2, 10


def fresh_clips(rng, n, smin=1.5, smax=3.0):
    # per clip: speed, sign, start and a seed that a noise-free clip never
    # uses, drawn in that order as the acceptance suite's crossing gate
    # draws them, so --steps 9000 --width 1024 trains the gate's model;
    # then one render for all n
    speeds, starts = np.empty(n), np.empty(n)
    for i in range(n):
        speeds[i] = rng.uniform(smin, smax) * (1.0 if rng.random() < 0.5 else -1.0)
        starts[i] = rng.uniform(0.0, HW)
        rng.integers(0, 2 ** 31)
    return render_squares(speeds, starts, F, HW, HW)


def stratified_t(rng, n):
    u = rng.uniform(0.0, 1.0, size=n)
    low = rng.uniform(0.0, 1.0, size=n) ** 2
    return np.clip(np.where(rng.random(n) < 0.5, low, u), 0.02, 1.0)


def pretrain(steps, width, lr=2e-3, batch=64, seed=0):
    model = VelocityModel.init((F, HW, HW), seed=seed, hidden_width=width)
    rng = np.random.default_rng([seed, 7])
    m = np.zeros_like(model.theta)
    v = np.zeros_like(model.theta)
    for step in range(1, steps + 1):
        frac = step / steps
        cur_lr = lr if frac < 0.5 else (0.25 * lr if frac < 0.8 else 0.05 * lr)
        x0 = fresh_clips(rng, batch).reshape(batch, -1)
        x1 = rng.standard_normal(x0.shape)
        loss, grad = loss_and_grad(model, x0, x1, stratified_t(rng, batch))
        adam_update(model.theta, grad, m, v, step, cur_lr)
        if step % max(1, steps // 5) == 0:
            print(f"  step {step}/{steps}  batch loss {loss:.4f}")
    return model


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2500)
    parser.add_argument("--width", type=int, default=512)
    args = parser.parse_args()

    print(f"training velocity model ({args.steps} steps, width {args.width})...")
    t0 = time.time()
    model = pretrain(args.steps, args.width)
    print(f"trained in {time.time() - t0:.0f}s\n")

    rng = np.random.default_rng([202, 101])
    samples = [ToyVideo(clip) for clip in fresh_clips(rng, 20, 2.0, 2.0)]
    degradations = [DegradationSpec("blur", 2.0, seed=11),
                    DegradationSpec("compression", 8.0, seed=12),
                    DegradationSpec("noise", 0.1, seed=13),
                    DegradationSpec("shuffle", 1.0, seed=14)]
    curves = gradient_probe(model, samples, degradations, t_grid=[0.1, 0.5, 0.9],
                            n_noise=8, noise_seed=202)

    print("mean gradient distance by timestep (20 probe clips):")
    print(f"{'degradation':<14} {'t=0.1':>8} {'t=0.5':>8} {'t=0.9':>8}   low-t reading")
    for curve in curves:
        lo, mid, hi = (curve.distance_at(t) for t in (0.1, 0.5, 0.9))
        if curve.kind == "shuffle":
            note = "close = motion damage invisible at low noise" if lo < hi \
                else "still far; raise --steps to converge low-t inversion"
        else:
            note = "far = appearance damage bites at low noise"
        print(f"{curve.kind:<14} {lo:8.3f} {mid:8.3f} {hi:8.3f}   {note}")
    print("\nthe acceptance suite runs the converged budget and asserts the full")
    print("crossing: shuffle closer at t=0.1 than t=0.9, the rest the other way.")


if __name__ == "__main__":
    main()
