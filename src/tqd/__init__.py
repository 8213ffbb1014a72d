"""Timestep-aware quality decoupling for flow-matching training.

Video scorers rate motion and visual appearance separately, and samples
strong on both axes are rare. Instead of discarding everything below a
joint bar, this library keeps a sample with probability max(vq, mq) and
steers its training timesteps with a per-sample Beta law: motion-heavy
samples train at high-noise timesteps where layout and motion form,
appearance-heavy samples at low-noise timesteps where detail is refined.

The package ships the sampling mechanism itself (quality, sampler), a
desk-scale harness that exercises it end to end (synth, trainer), and
the diagnostics that justify it (analysis), all behind one CLI (cli).
Import each name from its submodule (`from tqd.sampler import
TqdSampler`); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
