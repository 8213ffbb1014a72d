"""Why quality-aware sampling exists: the two scores fight each other.

Draws a synthetic score population with the negative motion/visual
correlation seen in practice, then shows how rare doubly-good records
are compared to what independence would predict.
"""

import numpy as np

from tqd.analysis import quadrant_report
from tqd.quality import normalize_scores, synth_population

population = synth_population(50_000, target_r=-0.22, seed=7)
report = quadrant_report(population)
print(report.text)

hmhv = report.data["fractions"]["HMHV"]
print(f"under independence both-high would be 0.25; observed {hmhv:.4f}")
print(f"that is {(0.25 - hmhv) * 100:.1f} points of golden data lost to the dilemma\n")

# normalization maps each score onto [0, 1] over the given records
mq, vq = normalize_scores(population[:5])
print("first five records after min-max normalization:")
for rec, mq_norm, vq_norm in zip(population[:5], mq, vq):
    print(f"  {rec.id}: mq {rec.mq_raw:.2f} -> {mq_norm:.3f}, "
          f"vq {rec.vq_raw:.2f} -> {vq_norm:.3f}")
