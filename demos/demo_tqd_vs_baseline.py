"""Quality-aware training against the uniform baseline on conflicted data.

Builds a manifest holding only the two quality profiles that fight each
other: high-motion/low-visual records (fast squares under texture noise)
and the exact mirror (slow clean squares). The quality-aware arm gives
each family a timestep law centered away from the half it scores badly
on; the baseline samples uniformly and spends a fifth of its draws at
the ends of the path where the target is near-singular or pure noise.
"""

import time

import numpy as np

from tqd.quality import QualityRecord, normalize_scores
from tqd.sampler import SamplerConfig, law_table
from tqd.synth import generate_moving_shape
from tqd.trainer import TrainerConfig, final_loss, train


def build_dataset(video_seed=1000):
    rng = np.random.default_rng(video_seed)
    records = []
    videos = []
    for i, ui in enumerate(np.linspace(0.0, 1.0, 10)):
        vq = 1.15 + 0.34 * ui
        records.append(QualityRecord(id=f"hmlv-{i:02d}", mq_raw=vq + 0.35, vq_raw=vq))
        videos.append(generate_moving_shape(
            1.5 + ui, 0.25 - 0.05 * ui, i, frames=2, height=10, width=10,
            start_x=float(rng.uniform(0.0, 10.0))))
    for i, ui in enumerate(np.linspace(0.0, 1.0, 10)):
        vq = 1.51 + 0.34 * ui
        records.append(QualityRecord(id=f"lmhv-{i:02d}", mq_raw=vq - 0.35, vq_raw=vq))
        videos.append(generate_moving_shape(
            0.2 + 0.3 * ui, 0.0, 100 + i, frames=2, height=10, width=10,
            start_x=float(rng.uniform(0.0, 10.0))))
    return records, videos


def main():
    records, videos = build_dataset()
    mq, vq = normalize_scores(records)
    scfg = SamplerConfig(batch_size=16)

    print("per-family timestep laws after normalization:")
    table = law_table(mq[[0, 10]], vq[[0, 10]], scfg)
    for rec, mu, kappa, alpha, beta in zip([records[0], records[10]], *table):
        print(f"  {rec.id}: center {mu:.3f}, concentration {kappa:.1f}"
              f" -> Beta({alpha:.2f}, {beta:.2f})")
    print()

    for seed in (0, 1):
        results = {}
        for baseline in (False, True):
            tcfg = TrainerConfig(steps=500, learning_rate=2e-3, hidden_width=512,
                                 seed=seed, baseline=baseline)
            t0 = time.time()
            state = train(videos, mq, vq, scfg, tcfg)
            arm = "baseline" if baseline else "quality-aware"
            results[arm] = final_loss(state)
            print(f"seed {seed} {arm:<14} final loss {results[arm]:.4f}  "
                  f"mean t {np.mean(state.mean_t_history):.3f}  "
                  f"acceptance {np.mean(state.acceptance_history):.3f}  "
                  f"({time.time() - t0:.0f}s)")
        margin = (results["baseline"] - results["quality-aware"]) / results["baseline"]
        print(f"seed {seed}: quality-aware ahead by {margin:+.1%}\n")


if __name__ == "__main__":
    main()
