"""Acceptance gate: end-to-end behavioral guarantees of the package.

Each test prints one PASS/FAIL line and enforces its runtime budget.
The suite covers: degeneracy of the timestep law at base concentration,
Beta moment fidelity, dropout rates, the factorized record-timestep joint
law, gradient exactness, the degradation crossing pattern that motivates
quality-aware timestep placement, the training win on motion/visual
imbalanced data, scorer-noise monotonicity, dilemma population
statistics, and bit-exact CLI reproducibility.
"""

import json
import re
import subprocess
import sys
import time

import numpy as np
from scipy import stats
from scipy.special import betainc

from tqd.analysis import gradient_probe, quadrant_report, robustness_sweep
from tqd.cli import main as cli_main
from tqd.quality import QualityRecord, normalize_scores, synth_population
from tqd.sampler import SamplerConfig, TqdSampler, beta_variates, law_table
from tqd.synth import DegradationSpec, ToyVideo, generate_moving_shape, render_squares
from tqd.trainer import TrainerConfig, VelocityModel, adam_update, final_loss, \
    loss_and_grad, save_checkpoint, train
from tqd.trainer import _param_layout


def _verdict(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _draw_members(mq, vq, config, n, rng_seed=0):
    """The first n (index, t) pairs of whole batches drawn from rng_seed."""
    sampler = TqdSampler(mq, vq, config)
    rng = np.random.default_rng(rng_seed)
    members = []
    while len(members) < n:
        batch = sampler.prepare_batch(rng)
        members.extend(zip(batch.indices, batch.timesteps))
    return members[:n]


# 1. With base concentration and no quality gap every per-record law is
#    Beta(1, 1), so the full sampling path must reduce to uniform draws.
def test_flat_law_degenerates_to_uniform():
    t0 = time.perf_counter()
    n = 10 ** 6
    scores = [0.2, 0.4, 0.6, 0.9]
    config = SamplerConfig(batch_size=10000)
    draws = np.array([t for _, t in _draw_members(scores, scores, config, n)])
    ks = stats.kstest(draws, "uniform")
    critical = 1.6276 / np.sqrt(n)
    elapsed = time.perf_counter() - t0
    ok = ks.statistic < critical and elapsed < 10.0
    _verdict("flat-law degeneracy", ok,
             f"KS D={ks.statistic:.5f} < {critical:.5f}, {elapsed:.1f}s")


# 2. Empirical moments of a million draws against the analytic Beta
#    moments, across the centers and concentrations the mapping can emit.
def test_beta_moment_fidelity():
    t0 = time.perf_counter()
    n = 10 ** 6
    worst = ""
    ok = True
    for i, mu in enumerate((0.25, 0.5, 0.75)):
        for j, kappa in enumerate((4.0, 20.0, 30.0)):
            rng = np.random.default_rng(100 + 10 * i + j)
            t = beta_variates(mu * kappa, (1.0 - mu) * kappa, rng, n)
            var = mu * (1.0 - mu) / (kappa + 1.0)
            mean_err = abs(float(np.mean(t)) - mu)
            mean_tol = 4.0 * np.sqrt(var / n)
            var_err = abs(float(np.var(t)) - var) / var
            if mean_err >= mean_tol or var_err >= 0.10:
                ok = False
                worst = f"mu={mu} kappa={kappa}: dmean={mean_err:.2g} dvar={var_err:.2%}"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict("beta moment fidelity", ok, worst or f"9 laws within bounds, {elapsed:.1f}s")


# 3. The dropout stage keeps a record with probability max(vq, mq).
def test_dropout_rate_matches_retention_probability():
    t0 = time.perf_counter()
    cases = [(0.1, (0.10, 0.05)), (0.5, (0.50, 0.30)), (0.9, (0.90, 0.70))]
    details = []
    ok = True
    for rate, (mq, vq) in cases:
        config = SamplerConfig(batch_size=1000)
        sampler = TqdSampler([mq], [vq], config)
        rng = np.random.default_rng(int(rate * 100))
        attempts = accepted = 0
        while attempts < 10 ** 5:
            batch = sampler.prepare_batch(rng)
            attempts += batch.attempts
            accepted += batch.accepted
        observed = accepted / attempts
        details.append(f"{rate}: {observed:.4f}")
        if abs(observed - rate) > 0.01:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict("dropout rates", ok, ", ".join(details) + f", {elapsed:.1f}s")


# 4. Joint (record, t-bin) frequencies of accepted batch members must
#    factorize into renormalized retention weights times Beta bin masses.
def test_joint_record_timestep_frequencies_factorize():
    t0 = time.perf_counter()
    n = 10 ** 6
    mq, vq = [0.9, 0.5, 0.2], [0.3, 0.5, 0.8]
    config = SamplerConfig(batch_size=10000)
    members = _draw_members(mq, vq, config, n, rng_seed=4)

    edges = np.linspace(0.0, 1.0, 11)
    counts = np.zeros((3, 10), dtype=np.int64)
    for i, t in members:
        counts[i][min(int(t * 10), 9)] += 1

    retention = np.array([max(v, m) for m, v in zip(mq, vq)])
    weights = retention / retention.sum()
    chi_sq = 0.0
    dof = -1  # one constraint: the grand total
    _, _, alpha, beta = law_table(mq, vq, config)
    for i, (a, b, w) in enumerate(zip(alpha, beta, weights)):
        expected = n * w * np.diff(betainc(a, b, edges))
        observed = counts[i].astype(np.float64)
        # pool adjacent bins until each group expects at least 5 draws
        acc_o = acc_e = 0.0
        groups = []
        for o, e in zip(observed, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                groups.append((acc_o, acc_e))
                acc_o = acc_e = 0.0
        if acc_e > 0 and groups:
            go, ge = groups[-1]
            groups[-1] = (go + acc_o, ge + acc_e)
        chi_sq += sum((o - e) ** 2 / e for o, e in groups)
        dof += len(groups)
    pvalue = float(stats.chi2.sf(chi_sq, dof))
    elapsed = time.perf_counter() - t0
    ok = pvalue > 0.01 and elapsed < 60.0
    _verdict("joint law factorization", ok,
             f"chi2={chi_sq:.1f} dof={dof} p={pvalue:.3g}, {elapsed:.1f}s")


# 5. Hand-written reverse-mode gradients against central finite
#    differences, 50 random coordinates in every layer.
def test_gradients_match_finite_differences_per_layer():
    t0 = time.perf_counter()
    model = VelocityModel.init((2, 8, 8), seed=11, hidden_width=64,
                               zero_final=False)
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=(4, model.data_dim))
    x1 = rng.normal(size=(4, model.data_dim))
    t = rng.uniform(0.1, 0.9, size=4)
    _, grad = loss_and_grad(model, x0, x1, t)
    layout, _ = _param_layout(model.input_dim, model.hidden_width, model.data_dim)
    h = 1e-5
    max_rel = 0.0
    for name, (_, sl) in layout.items():
        idx = sl.start + rng.choice(sl.stop - sl.start, size=50, replace=False)
        for i in idx:
            orig = model.theta[i]
            model.theta[i] = orig + h
            lp, _ = loss_and_grad(model, x0, x1, t)
            model.theta[i] = orig - h
            lm, _ = loss_and_grad(model, x0, x1, t)
            model.theta[i] = orig
            fd = (lp - lm) / (2.0 * h)
            # the floor only guards exactly-dead coordinates
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-10)
            max_rel = max(max_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = max_rel < 1e-4 and elapsed < 30.0
    _verdict("gradient exactness", ok,
             f"max rel err {max_rel:.2e} over 300 coords, {elapsed:.1f}s")


# 6. On a model trained to invert the low-noise end of the interpolation
#    path, frame shuffling (motion damage) leaves gradients close at low
#    t and far at high t, while appearance damage (blur, quantization,
#    pixel noise) shows the opposite: its gradients align at high t where
#    the input is mostly noise anyway. Two-frame clips with speeds in
#    both signs make a full shuffle equal to time reversal, which is
#    itself a valid clip, so a generalizing model treats it as
#    on-distribution at low noise.
def test_degradation_probe_crossing_pattern():
    t0 = time.perf_counter()
    f, hw = 2, 10
    width, steps, batch, lr = 1024, 9000, 64, 2e-3

    def fresh_clips(rng, n, smin, smax):
        # per clip: speed, sign, start and a seed that a noise-free clip
        # never uses, drawn in that order; then one render for all n
        speeds, starts = np.empty(n), np.empty(n)
        for i in range(n):
            speeds[i] = rng.uniform(smin, smax) * (1.0 if rng.random() < 0.5 else -1.0)
            starts[i] = rng.uniform(0.0, hw)
            rng.integers(0, 2 ** 31)
        return render_squares(speeds, starts, f, hw, hw)

    def sample_t(rng, n):
        # half uniform, half squared-uniform: extra low-t coverage where
        # inversion is hardest, floored away from the singular end
        u = rng.uniform(0.0, 1.0, size=n)
        low = rng.uniform(0.0, 1.0, size=n) ** 2
        return np.clip(np.where(rng.random(n) < 0.5, low, u), 0.02, 1.0)

    model = VelocityModel.init((f, hw, hw), seed=0, hidden_width=width)
    rng = np.random.default_rng([0, 7])
    m = np.zeros_like(model.theta)
    v = np.zeros_like(model.theta)
    for step in range(1, steps + 1):
        frac = step / steps
        cur_lr = lr if frac < 0.5 else (0.25 * lr if frac < 0.8 else 0.05 * lr)
        x0 = fresh_clips(rng, batch, 1.5, 3.0).reshape(batch, -1)
        x1 = rng.standard_normal(x0.shape)
        _, grad = loss_and_grad(model, x0, x1, sample_t(rng, batch))
        adam_update(model.theta, grad, m, v, step, cur_lr)

    probe_rng = np.random.default_rng([202, 101])
    samples = [ToyVideo(clip) for clip in fresh_clips(probe_rng, 40, 2.0, 2.0)]
    degradations = [DegradationSpec("blur", 2.0, seed=11),
                    DegradationSpec("compression", 8.0, seed=12),
                    DegradationSpec("noise", 0.1, seed=13),
                    DegradationSpec("shuffle", 1.0, seed=14)]
    curves = gradient_probe(model, samples, degradations, t_grid=[0.1, 0.9],
                            n_noise=16, noise_seed=202)

    details = []
    ok = True
    for curve in curves:
        lo, hi = curve.distance_at(0.1), curve.distance_at(0.9)
        good = lo < hi if curve.kind == "shuffle" else hi < lo
        ok = ok and good
        details.append(f"{curve.kind} {lo:.3f}/{hi:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _verdict("degradation crossing", ok, ", ".join(details) + f", {elapsed:.0f}s")


def _ladder_manifest(path, video_seed=1000):
    """Manifest of two mirrored families: high-motion/low-visual records
    whose motion score sits 0.35 above their visual score, and the exact
    mirror. After min-max normalization every record's law centers at
    0.75 or 0.25 with concentration near 11, so both families draw their
    timesteps away from the ends of the path where the regression target
    is either singular or pure noise; a flat law spends a fifth of its
    draws there. Speeds and textures follow the scores so the videos
    really are what the scores claim."""
    rng = np.random.default_rng(video_seed)
    u = np.linspace(0.0, 1.0, 10)
    rows = []
    for i, ui in enumerate(u):
        vq = 1.15 + 0.34 * ui
        rows.append({
            "id": f"hmlv-{i:02d}", "mq": round(vq + 0.35, 6), "vq": round(vq, 6),
            "payload": (f"synth:speed={1.5 + ui:.6f},noise={0.25 - 0.05 * ui:.6f},"
                        f"seed={i},frames=2,height=10,width=10,"
                        f"start={rng.uniform(0.0, 10.0):.6f}")})
    for i, ui in enumerate(u):
        vq = 1.51 + 0.34 * ui
        rows.append({
            "id": f"lmhv-{i:02d}", "mq": round(vq - 0.35, 6), "vq": round(vq, 6),
            "payload": (f"synth:speed={0.2 + 0.3 * ui:.6f},noise=0.000000,"
                        f"seed={100 + i},frames=2,height=10,width=10,"
                        f"start={rng.uniform(0.0, 10.0):.6f}")})
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# 7. On data that offers only the two conflicting quality profiles, the
#    quality-aware arm must finish at or below the uniform baseline's
#    loss in at least 4 of 5 paired seeds, through the real CLI.
def test_quality_aware_training_beats_baseline_on_imbalanced_data(tmp_path):
    t0 = time.perf_counter()
    manifest = tmp_path / "ladder.jsonl"
    _ladder_manifest(manifest)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hidden_width": 512, "learning_rate": 2e-3,
                                  "batch_size": 16}))

    def run(seed, baseline):
        cmd = [sys.executable, "-m", "tqd.cli", "train",
               "--manifest", str(manifest), "--config", str(config),
               "--out", str(tmp_path / ("base" if baseline else "tqd")),
               "--seed", str(seed), "--steps", "500"]
        if baseline:
            cmd.append("--baseline")
        res = subprocess.run(cmd, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return float(re.search(r"final loss \(trailing mean\): ([0-9.]+)",
                               res.stdout).group(1))

    wins = 0
    details = []
    for seed in range(5):
        tqd_loss = run(seed, baseline=False)
        base_loss = run(seed, baseline=True)
        wins += tqd_loss <= base_loss
        details.append(f"s{seed} {tqd_loss:.3f}/{base_loss:.3f}")
    elapsed = time.perf_counter() - t0
    ok = wins >= 4 and elapsed < 900.0
    _verdict("imbalanced-data training win", ok,
             f"{wins}/5 wins, " + ", ".join(details) + f", {elapsed:.0f}s")


# The headline run's slice: on the training-win gate's ladder, `train
# --filter quadrant=HMLV,LMHV` keeps exactly the records that `curate` puts
# in those quadrants, split at curate's median thresholds, and echoes them.
def test_train_filter_keeps_the_records_curate_puts_in_its_quadrants(tmp_path, capsys):
    manifest = tmp_path / "ladder.jsonl"
    _ladder_manifest(manifest)
    assert cli_main(["curate", "--manifest", str(manifest),
                     "--out", str(tmp_path / "curate")]) == 0
    (curated,) = (tmp_path / "curate").iterdir()
    report = json.loads((curated / "quadrant_report.json").read_text())
    mq_thr, vq_thr = report["mq_threshold"], report["vq_threshold"]
    assert (mq_thr, vq_thr) == (1.5, 1.5)
    assert report["counts"]["HMLV"] + report["counts"]["LMHV"] == 19

    # the same records picked by hand: exactly one score above its threshold
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    picked = [row for row in rows if (row["mq"] > mq_thr) != (row["vq"] > vq_thr)]
    assert len(picked) == 19
    subset = tmp_path / "picked.jsonl"
    subset.write_text("".join(json.dumps(row) + "\n" for row in picked))

    train = ["train", "--steps", "20", "--seed", "0"]
    assert cli_main([*train, "--manifest", str(manifest), "--out", str(tmp_path / "filtered"),
                     "--filter", "quadrant=HMLV,LMHV"]) == 0
    assert "on 19 records" in capsys.readouterr().out
    assert cli_main([*train, "--manifest", str(subset), "--out", str(tmp_path / "picked")]) == 0
    (filtered,) = (tmp_path / "filtered").iterdir()
    (direct,) = (tmp_path / "picked").iterdir()
    for name in ("checkpoint.bin", "training_log.csv"):
        assert (filtered / name).read_bytes() == (direct / name).read_bytes()

    echo = filtered / "resolved_config.json"
    params = json.loads(echo.read_text())["params"]
    assert (params["mq_threshold"], params["vq_threshold"]) == (1.5, 1.5)
    assert cli_main(["train", "--config", str(echo), "--out", str(tmp_path / "rerun")]) == 0
    (rerun,) = (tmp_path / "rerun").iterdir()
    assert rerun.name == filtered.name
    names = sorted(p.name for p in filtered.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir())
    assert all((filtered / n).read_bytes() == (rerun / n).read_bytes() for n in names)


# 8. Scorer noise: the mean shift of the law centers must grow with the
#    injected noise level, and the zero level must be the clean run.
def test_scorer_noise_shift_is_monotone_and_zero_at_clean(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    records = []
    videos = []
    for i in range(8):
        mq = 1.5 + 0.3 * i
        vq = 4.0 - 0.35 * i
        records.append(QualityRecord(id=f"r{i}", mq_raw=mq, vq_raw=vq))
        videos.append(generate_moving_shape(
            motion_speed=0.5 + 0.25 * i, texture_noise=0.05, seed=i,
            frames=2, height=6, width=6, start_x=float(rng.uniform(0, 6))))
    dataset = list(zip(records, videos))
    scfg = SamplerConfig(batch_size=8)
    tcfg = TrainerConfig(steps=100, hidden_width=64, seed=0)
    rows = robustness_sweep(dataset, [0.0, 0.1, 0.2], scfg, tcfg)

    clean = train(videos, *normalize_scores(records), scfg, tcfg)
    shifts = [row.mean_mu_shift for row in rows]
    elapsed = time.perf_counter() - t0
    ok = (rows[0].mean_mu_shift == 0.0
          and rows[0].final_loss == final_loss(clean)
          and shifts == sorted(shifts)
          and elapsed < 300.0)
    _verdict("scorer-noise monotonicity", ok,
             f"shifts {', '.join(f'{s:.4f}' for s in shifts)}, "
             f"level-0 bit-identical, {elapsed:.1f}s")


# 9. A synthetic score population at the observed negative correlation:
#    measured r in [-0.24, -0.20] and the both-high fraction within 0.02
#    of the bivariate-normal arcsine value.
def test_dilemma_population_statistics():
    t0 = time.perf_counter()
    records = synth_population(100_000, target_r=-0.22, seed=17)
    # the report's thresholds default to the per-metric median raw scores
    data = quadrant_report(records).data
    r = data["pearson_r"]
    oracle = 0.25 + np.arcsin(-0.22) / (2.0 * np.pi)
    hmhv = data["fractions"]["HMHV"]
    elapsed = time.perf_counter() - t0
    ok = (-0.24 <= r <= -0.20
          and abs(hmhv - oracle) < 0.02
          and elapsed < 10.0)
    _verdict("dilemma statistics", ok,
             f"r={r:+.4f}, HMHV {hmhv:.4f} vs oracle {oracle:.4f}, "
             f"{elapsed:.1f}s")


# 10. Every command, re-run from its own echoed config, rewrites its
#     outputs byte for byte.
def test_cli_reruns_from_echoed_config_are_bit_identical(tmp_path, capsys):
    t0 = time.perf_counter()
    manifest = tmp_path / "scores.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for i, (mq, vq) in enumerate([(3.0, 3.0), (3.0, 2.0), (2.0, 3.0), (2.0, 2.0)]):
            fh.write(json.dumps({
                "id": f"r{i}", "mq": mq, "vq": vq,
                "payload": f"synth:speed={1.0 + i},noise=0.05,seed={i},"
                           f"frames=2,height=5,width=5"}) + "\n")

    ckpt_source = VelocityModel.init((2, 5, 5), seed=1, hidden_width=8,
                                     zero_final=False)
    ckpt = tmp_path / "model.bin"
    save_checkpoint(ckpt_source, ckpt, step=7)
    probe_cfg = tmp_path / "probe.json"
    probe_cfg.write_text(json.dumps({
        "samples": {"n": 2, "frames": 2, "height": 5, "width": 5,
                    "speed_min": 1.0, "speed_max": 2.0, "texture_noise": 0.02},
        "degradations": [{"kind": "blur", "strength": 1.0, "seed": 1}],
        "t_grid": [0.1, 0.9], "n_noise": 2}))

    invocations = [
        ("curate", ["curate", "--manifest", str(manifest)]),
        ("sample-stats", ["sample-stats", "--manifest", str(manifest),
                          "--n-draws", "2000"]),
        ("train", ["train", "--manifest", str(manifest), "--steps", "10",
                   "--seed", "0"]),
        ("probe", ["probe", "--model", str(ckpt), "--config", str(probe_cfg)]),
    ]
    checked = []
    ok = True
    for name, argv in invocations:
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        assert cli_main(argv + ["--out", str(out1)]) == 0
        (run1,) = [p for p in out1.iterdir() if p.is_dir()]
        echo = run1 / "resolved_config.json"
        assert cli_main([name, "--config", str(echo), "--out", str(out2)]) == 0
        (run2,) = [p for p in out2.iterdir() if p.is_dir()]
        files1 = sorted(p.name for p in run1.iterdir())
        files2 = sorted(p.name for p in run2.iterdir())
        same = (run1.name == run2.name and files1 == files2 and all(
            (run1 / fn).read_bytes() == (run2 / fn).read_bytes() for fn in files1))
        ok = ok and same
        checked.append(f"{name}:{len(files1)} files")
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    _verdict("echoed-config determinism", ok,
             ", ".join(checked) + f", {elapsed:.1f}s")
