"""How a record's quality profile shapes its timestep distribution.

High relative motion quality pushes the law toward high timesteps (more
noise, where motion structure is what remains to learn); high relative
visual quality pushes it low. Equal scores give the flat law back.
"""

import numpy as np
from scipy import stats

from tqd.sampler import SamplerConfig, law_table

PROFILES = [
    ("high motion, low visual", 0.9, 0.2),
    ("mild motion lean", 0.6, 0.4),
    ("balanced", 0.5, 0.5),
    ("mild visual lean", 0.4, 0.6),
    ("high visual, low motion", 0.2, 0.9),
]

config = SamplerConfig()


def bar(value, scale=18.0):
    return "#" * int(round(value * scale / 4.0))


names, mqs, vqs = zip(*PROFILES)
table = law_table(mqs, vqs, config)
keeps = np.maximum(mqs, vqs)
ts = (np.arange(9) + 0.5) / 9  # midpoint grid over (0, 1)
for name, mq, vq, keep, mu, kappa, alpha, beta in zip(names, mqs, vqs, keeps, *table):
    print(f"{name}  (mq {mq}, vq {vq})")
    print(f"  retention {keep:.2f}, center {mu:.2f}, concentration {kappa:.1f}"
          f" -> Beta({alpha:.2f}, {beta:.2f}), mean t {alpha / (alpha + beta):.3f}")
    for t, p in zip(ts, stats.beta.pdf(ts, alpha, beta)):
        print(f"    t={t:.2f} |{bar(p)}")
    print()

print("balanced scores with base concentration reproduce uniform sampling,")
print("so turning the mechanism on changes nothing until the scores disagree.")
