"""The four workloads: their inputs, one timed round, and output checks.

Every call into the program goes through a module attribute
(`cli.main`, `trainer.loss_and_grad`, ...), looked up when it runs, so a
traced round sees the calls the benchmark makes as well as the
program's own. Each check recomputes what the output must be from the
inputs or from a property of the method; none compares against stored
output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from tqd import cli, quality, synth, trainer

# SamplerConfig defaults the commands run with
KAPPA_BASE, KAPPA_MAX, MIN_SHAPE = 2.0, 20.0, 0.05
# a statistic may sit this many standard errors from its expectation
Z_TOL = 5.0
# the trailing-mean training loss must fall below this share of step 1's
LOSS_DROP = 0.75
# finite differences: step along a unit direction, and relative tolerance
FD_STEP, FD_TOL = 1e-5, 1e-4


@dataclass
class Op:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Round:
    wall: float  # seconds of timed work
    units: float  # work units done during rate_wall
    rate_wall: float
    artifact_bytes: int
    ops: list
    fingerprint: str = ""  # digest of outputs that must repeat exactly
    extra: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> dict:
    """Run one tqd command in process: exit code, seconds, stderr.

    An exception escaping the command (a traceback instead of an exit
    code) is reported as exit code -1.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # the command's failure, not the benchmark's
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return {"rc": rc, "seconds": time.perf_counter() - start,
            "stderr": err.getvalue().strip()}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def only_run_dir(out: Path) -> Path:
    (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
    return run_dir


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def beta_laws(mq_raw, vq_raw):
    """Per-record Beta shapes and retention, from raw scores alone:
    min-max normalisation, mu = 0.5 + 0.5 (mq - vq), kappa linear in
    |mq - vq|, shapes floored at MIN_SHAPE, retention max(mq, vq)."""
    def norm(x):
        x = np.asarray(x, dtype=np.float64)
        span = x.max() - x.min()
        return np.full_like(x, 0.5) if span == 0 else (x - x.min()) / span
    mq, vq = norm(mq_raw), norm(vq_raw)
    mu = 0.5 + 0.5 * (mq - vq)
    kappa = KAPPA_BASE + (KAPPA_MAX - KAPPA_BASE) * np.abs(mq - vq)
    alpha = np.maximum(mu * kappa, MIN_SHAPE)
    beta = np.maximum((1.0 - mu) * kappa, MIN_SHAPE)
    return alpha, beta, np.maximum(mq, vq)


def pooled_chi_square(observed, expected) -> tuple[float, int]:
    """Chi-square over adjacent bins pooled until each expects >= 5."""
    groups, acc_o, acc_e = [], 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 5.0:
            groups.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0 and groups:
        groups[-1] = (groups[-1][0] + acc_o, groups[-1][1] + acc_e)
    chi2 = sum((o - e) ** 2 / e for o, e in groups)
    return chi2, max(1, len(groups) - 1)


def fd_check(model, x0, x1, t, seed: int, n_dirs: int = 3) -> Op:
    """loss_and_grad's gradient against central differences of the loss
    along random unit directions."""
    _, grad = trainer.loss_and_grad(model, x0, x1, t)
    theta0 = model.theta.copy()
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        for _ in range(n_dirs):
            u = rng.standard_normal(theta0.size)
            u /= np.linalg.norm(u)
            model.theta[:] = theta0 + FD_STEP * u
            lp, _ = trainer.loss_and_grad(model, x0, x1, t)
            model.theta[:] = theta0 - FD_STEP * u
            lm, _ = trainer.loss_and_grad(model, x0, x1, t)
            fd = (lp - lm) / (2.0 * FD_STEP)
            exact = float(grad @ u)
            worst = max(worst, abs(fd - exact) / max(abs(fd), abs(exact), 1e-12))
    finally:
        model.theta[:] = theta0
    return Op("finite-difference gradient", worst < FD_TOL,
              f"max relative error {worst:.2e} over {n_dirs} directions")


def repeats_identical(rounds) -> Op:
    prints = {r.fingerprint for r in rounds}
    return Op("outputs identical across rounds", len(prints) == 1,
              f"{len(prints)} distinct digests over {len(rounds)} rounds")


class Workload:
    """One workload, split between the benchmark process and the fresh
    process that runs each round.

    The benchmark process calls `setup` (build the inputs into a
    directory), then `check` on each round's outputs and `final_checks`
    at the end. The round process calls `attach` (find the inputs again)
    and `execute`, which times the workload's operations and returns a
    JSON-able dict with at least `wall`, `units`, `rate_wall` and `ops`
    (one {"label", "rc", "stderr"} per operation).
    """

    name = ""
    labels = ()  # the operations of one round
    min_rounds = 2  # the repeat checks compare rounds
    sizes = {"full": {}, "smoke": {}}

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.size = self.sizes["smoke" if smoke else "full"]

    def setup(self, dest: Path) -> None:
        raise NotImplementedError

    def attach(self, dest: Path) -> None:
        raise NotImplementedError

    def execute(self, out: Path) -> dict:
        raise NotImplementedError

    def check(self, out: Path, res: dict) -> Round:
        raise NotImplementedError

    def final_checks(self, rounds, last_out: Path) -> list[Op]:
        return [repeats_identical(rounds)]


def failed_ops(res: dict) -> list[Op]:
    """Ops for the operations of a round that exited non-zero."""
    return [Op(o["label"], False, o["stderr"] or f"exit code {o['rc']}")
            for o in res["ops"] if o["rc"] != 0]


def timed_round(res: dict, out: Path, ops: list, **kw) -> Round:
    return Round(res["wall"], res["units"], res["rate_wall"], dir_bytes(out), ops, **kw)


# --- train-ladder -----------------------------------------------------------

def ladder_rows(video_seed: int) -> list[dict]:
    """The training-win gate's manifest: ten high-motion/low-visual
    records whose motion score sits 0.35 above their visual score, and
    their ten mirrors, with 2x10x10 synth payloads."""
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
    return rows


class TrainLadder(Workload):
    name = "train-ladder"
    labels = ("train",)
    # a round's process lands in one of two allocator modes (see README);
    # three rounds average over them
    min_rounds = 3
    sizes = {"full": {"steps": 500, "hidden_width": 512, "learning_rate": 2e-3},
             "smoke": {"steps": 200, "hidden_width": 128, "learning_rate": 5e-3}}

    def setup(self, dest):
        self.rows = ladder_rows(1000 + self.seed)
        (dest / "ladder.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in self.rows), encoding="utf-8")
        (dest / "train.json").write_text(json.dumps({
            "hidden_width": self.size["hidden_width"],
            "learning_rate": self.size["learning_rate"], "batch_size": 16}),
            encoding="utf-8")
        self.attach(dest)

    def attach(self, dest):
        self.manifest, self.config = dest / "ladder.jsonl", dest / "train.json"

    def execute(self, out):
        steps = self.size["steps"]
        res = run_cli([
            "train", "--manifest", str(self.manifest), "--config", str(self.config),
            "--out", str(out), "--seed", str(self.seed), "--steps", str(steps)])
        return {"wall": res["seconds"], "units": steps, "rate_wall": res["seconds"],
                "ops": [{"label": "train", **res}]}

    def check(self, out, res):
        if failed_ops(res):
            return timed_round(res, out, failed_ops(res))
        run_dir = only_run_dir(out)
        log = run_dir / "training_log.csv"
        ok, detail, loss = self._check_log(log, self.size["steps"])
        return timed_round(res, out, [Op("train", ok, detail)],
                           fingerprint=sha256_files([log, run_dir / "checkpoint.bin"]),
                           extra={"final_loss": loss})

    def _check_log(self, log: Path, steps: int):
        header, rows = read_csv(log)
        if header != ["step", "loss", "mean_t", "batch_acceptance_rate"]:
            return False, f"unexpected log header {header}", None
        data = np.array(rows, dtype=np.float64)
        if data.shape != (steps, 4) or not np.all(np.isfinite(data)):
            return False, f"log has shape {data.shape}, non-finite or missing rows", None
        if not np.array_equal(data[:, 0], np.arange(1, steps + 1)):
            return False, "log steps are not 1..steps", None
        loss = data[:, 1]
        trailing = float(np.mean(loss[-max(1, round(0.1 * steps)):]))
        if not trailing < LOSS_DROP * loss[0]:
            return False, f"trailing loss {trailing:.4g} vs step-1 {loss[0]:.4g}", trailing

        alpha, beta, keep = beta_laws([r["mq"] for r in self.rows],
                                      [r["vq"] for r in self.rows])
        w = keep / keep.sum()
        means = alpha / (alpha + beta)
        variances = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
        mix_mean = float(w @ means)
        mix_var = float(w @ (variances + means ** 2)) - mix_mean ** 2
        batch = 16
        mean_t = float(np.mean(data[:, 2]))
        se_t = math.sqrt(mix_var / (batch * steps))
        if abs(mean_t - mix_mean) > Z_TOL * se_t:
            return False, f"mean t {mean_t:.5f} vs mixture mean {mix_mean:.5f}", trailing
        # every batch makes at least batch-size keep/drop attempts
        p = float(np.mean(keep))
        acc = float(np.mean(data[:, 3]))
        se_acc = math.sqrt(p * (1.0 - p) / (batch * steps))
        if abs(acc - p) > Z_TOL * se_acc:
            return False, f"mean acceptance {acc:.5f} vs mean retention {p:.5f}", trailing
        return True, (f"trailing loss {trailing:.6f} (step 1: {loss[0]:.4f}); "
                      f"mean t {mean_t:.4f} vs {mix_mean:.4f}; "
                      f"acceptance {acc:.4f} vs {p:.4f}"), trailing


# --- train-wide ---------------------------------------------------------------

class TrainWide(Workload):
    """The crossing gate's training loop, cut to a fixed step count; the
    step-wise learning-rate schedule runs over that count."""

    name = "train-wide"
    labels = ("train loop",)
    sizes = {"full": {"steps": 50, "hidden_width": 1024, "batch": 64},
             "smoke": {"steps": 40, "hidden_width": 128, "batch": 32}}
    frames, hw, lr = 2, 10, 2e-3

    def setup(self, dest):
        model = trainer.VelocityModel.init(
            (self.frames, self.hw, self.hw), seed=self.seed,
            hidden_width=self.size["hidden_width"])
        trainer.save_checkpoint(model, dest / "init.bin", step=0, seed=self.seed)
        self.attach(dest)

    def attach(self, dest):
        self.init_checkpoint = dest / "init.bin"

    def _clip(self, rng):
        speed = float(rng.uniform(1.5, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        start = float(rng.uniform(0.0, self.hw))
        seed = int(rng.integers(0, 2 ** 31))
        return synth.generate_moving_shape(speed, 0.0, seed, frames=self.frames,
                                           height=self.hw, width=self.hw,
                                           start_x=start)

    @staticmethod
    def _sample_t(rng, n):
        u = rng.uniform(0.0, 1.0, size=n)
        low = rng.uniform(0.0, 1.0, size=n) ** 2
        return np.clip(np.where(rng.random(n) < 0.5, low, u), 0.02, 1.0)

    def _batch(self, rng):
        x0 = np.stack([self._clip(rng).flat() for _ in range(self.size["batch"])])
        return x0, rng.standard_normal(x0.shape), self._sample_t(rng, x0.shape[0])

    def execute(self, out):
        steps = self.size["steps"]
        model, _ = trainer.load_checkpoint(self.init_checkpoint)
        m, v = np.zeros_like(model.theta), np.zeros_like(model.theta)
        rng = np.random.default_rng([self.seed, 7])
        losses = []
        start = time.perf_counter()
        try:
            for step in range(1, steps + 1):
                frac = step / steps
                lr = self.lr if frac < 0.5 else (0.25 * self.lr if frac < 0.8 else 0.05 * self.lr)
                loss, grad = trainer.loss_and_grad(model, *self._batch(rng))
                losses.append(loss)
                trainer.adam_update(model.theta, grad, m, v, step, lr)
            trainer.save_checkpoint(model, out / "checkpoint.bin", step=steps, seed=self.seed)
            op = {"label": "train loop", "rc": 0, "stderr": ""}
        except Exception as exc:  # the loop's failure, counted as a failed operation
            op = {"label": "train loop", "rc": -1, "stderr": f"{type(exc).__name__}: {exc}"}
        secs = time.perf_counter() - start
        return {"wall": secs, "units": steps, "rate_wall": secs, "ops": [op],
                "losses": losses}

    def check(self, out, res):
        if failed_ops(res):
            return timed_round(res, out, failed_ops(res))
        loss = np.array(res["losses"])
        trailing = float(np.mean(loss[-max(1, round(0.1 * loss.size)):]))
        ok = bool(np.all(np.isfinite(loss))) and trailing < loss[0]
        digest = sha256_files([out / "checkpoint.bin"]) + hashlib.sha256(loss.tobytes()).hexdigest()
        return timed_round(res, out, [Op("train loop", ok, f"trailing loss {trailing:.6f} "
                                                           f"(step 1: {loss[0]:.4f})")],
                           fingerprint=digest, extra={"final_loss": trailing})

    def final_checks(self, rounds, last_out):
        model, _ = trainer.load_checkpoint(last_out / "checkpoint.bin")
        rng = np.random.default_rng([self.seed, 8])
        return [repeats_identical(rounds),
                fd_check(model, *self._batch(rng), seed=self.seed)]


# --- probe-default ------------------------------------------------------------

class ProbeDefault(Workload):
    """`tqd probe` at its defaults on an untrained width-128 checkpoint of
    8x16x16 data (zero_final off, so every layer carries gradient)."""

    name = "probe-default"
    labels = ("probe",)
    sizes = {"full": {"shape": (8, 16, 16), "hidden_width": 128, "config": None},
             "smoke": {"shape": (2, 6, 6), "hidden_width": 16, "config": {
                 "samples": {"n": 3, "frames": 2, "height": 6, "width": 6},
                 "t_grid": [0.1, 0.5, 0.9], "n_noise": 4}}}

    def setup(self, dest):
        model = trainer.VelocityModel.init(
            self.size["shape"], seed=self.seed, hidden_width=self.size["hidden_width"],
            zero_final=False)
        trainer.save_checkpoint(model, dest / "probe_model.bin", step=0, seed=self.seed)
        if self.size["config"] is not None:
            (dest / "probe.json").write_text(json.dumps(self.size["config"]),
                                             encoding="utf-8")
        self.attach(dest)

    def attach(self, dest):
        self.checkpoint = dest / "probe_model.bin"
        self.config = dest / "probe.json" if self.size["config"] is not None else None

    def execute(self, out):
        argv = ["probe", "--model", str(self.checkpoint), "--out", str(out),
                "--seed", str(self.seed)]
        if self.config is not None:
            argv += ["--config", str(self.config)]
        res = run_cli(argv)
        # the work units come from the echoed config, in check
        return {"wall": res["seconds"], "units": 0, "rate_wall": res["seconds"],
                "ops": [{"label": "probe", **res}]}

    def check(self, out, res):
        if failed_ops(res):
            return timed_round({**res, "units": 1}, out, failed_ops(res))
        run_dir = only_run_dir(out)
        params = json.loads((run_dir / "resolved_config.json").read_text())["params"]
        t_grid, degs = params["t_grid"], params["degradations"]
        n = params["samples"]["n"]
        csvs = [run_dir / f"probe_{i:02d}_{d['kind']}.csv" for i, d in enumerate(degs)]
        ok, detail = self._check_csvs(csvs, t_grid, n)
        units = n * len(t_grid) * (1 + len(degs))
        return timed_round({**res, "units": units}, out, [Op("probe", ok, detail)],
                           fingerprint=sha256_files(csvs) if ok else "")

    @staticmethod
    def _check_csvs(csvs, t_grid, n):
        found = sorted(p.name for p in csvs[0].parent.glob("probe_*.csv"))
        if found != sorted(p.name for p in csvs):
            return False, f"probe CSVs {found}, expected one per degradation"
        for path in csvs:
            header, rows = read_csv(path)
            if header != ["degradation", "strength", "t", "mean_distance", "n_samples"]:
                return False, f"{path.name}: unexpected header {header}"
            ts = [float(r[2]) for r in rows]
            dist = np.array([float(r[3]) for r in rows])
            if ts != [float(t) for t in t_grid]:
                return False, f"{path.name}: t column {ts} is not the t grid"
            if not (np.all(np.isfinite(dist)) and np.all(dist >= 0)):
                return False, f"{path.name}: distances not finite and non-negative"
            if any(int(r[4]) != n for r in rows):
                return False, f"{path.name}: n_samples is not {n}"
        return True, f"{len(csvs)} curves x {len(t_grid)} timesteps"

    def final_checks(self, rounds, last_out):
        model, _ = trainer.load_checkpoint(self.checkpoint)
        f, h, w = model.data_shape
        clip = synth.generate_moving_shape(2.0, 0.02, self.seed, frames=f, height=h,
                                           width=w, start_x=1.0)
        n_noise = 16
        rng = np.random.default_rng([self.seed, 9])
        x0 = np.repeat(clip.flat()[None, :], n_noise, axis=0)
        x1 = rng.standard_normal(x0.shape)
        return [repeats_identical(rounds),
                fd_check(model, x0, x1, np.full(n_noise, 0.5), seed=self.seed)]


# --- stats-population -----------------------------------------------------------

class StatsPopulation(Workload):
    """`tqd curate` then `tqd sample-stats` on a synth_population manifest
    at r = -0.22.

    The population and the draw seed do not depend on --seed: sample-stats
    exits 4 whenever its 1%-level chi-square or KS test rejects, which by
    design happens for about 2% of draw streams, and a run must not fail
    on some seeds only.
    """

    name = "stats-population"
    labels = ("curate", "sample-stats")
    sizes = {"full": {"records": 300, "n_draws": 20000},
             "smoke": {"records": 40, "n_draws": 4000}}
    population_seed, target_r = 17, -0.22

    def setup(self, dest):
        records = quality.synth_population(self.size["records"], self.target_r,
                                           seed=self.population_seed)
        quality.write_manifest(records, dest / "population.jsonl")
        self.mq = np.array([r.mq_raw for r in records])
        self.vq = np.array([r.vq_raw for r in records])
        self.attach(dest)

    def attach(self, dest):
        self.manifest = dest / "population.jsonl"

    def execute(self, out):
        n_draws = self.size["n_draws"]
        curate = run_cli(["curate", "--manifest", str(self.manifest),
                          "--out", str(out / "curate")])
        stats_ = run_cli(["sample-stats", "--manifest", str(self.manifest),
                          "--out", str(out / "stats"), "--n-draws", str(n_draws)])
        return {"wall": curate["seconds"] + stats_["seconds"], "units": n_draws,
                "rate_wall": stats_["seconds"],
                "ops": [{"label": "curate", **curate}, {"label": "sample-stats", **stats_}]}

    def check(self, out, res):
        failed = {op.label: op for op in failed_ops(res)}
        ops = [failed.get("curate") or Op("curate", *self._check_curate(out)),
               failed.get("sample-stats") or Op("sample-stats", *self._check_histogram(out))]
        if not all(op.ok for op in ops):
            return timed_round(res, out, ops)
        files = [only_run_dir(out / "curate") / "quadrant_report.json",
                 only_run_dir(out / "stats") / "histogram.csv"]
        return timed_round(res, out, ops, fingerprint=sha256_files(files))

    def _check_curate(self, out):
        report = json.loads((only_run_dir(out / "curate") / "quadrant_report.json").read_text())
        mq_thr, vq_thr = float(np.median(self.mq)), float(np.median(self.vq))
        hm, hv = self.mq > mq_thr, self.vq > vq_thr
        counts = {"HMHV": int(np.sum(hm & hv)), "HMLV": int(np.sum(hm & ~hv)),
                  "LMHV": int(np.sum(~hm & hv)), "LMLV": int(np.sum(~hm & ~hv))}
        r = float(np.corrcoef(self.mq, self.vq)[0, 1])
        if report["counts"] != counts or report["n"] != len(self.mq):
            return False, f"quadrant counts {report['counts']}, expected {counts}"
        if not abs(report["pearson_r"] - r) <= 1e-12:
            return False, f"pearson r {report['pearson_r']!r}, numpy gives {r!r}"
        return True, f"counts {counts}, r {r:+.4f}"

    def _check_histogram(self, out):
        n_draws = self.size["n_draws"]
        header, rows = read_csv(only_run_dir(out / "stats") / "histogram.csv")
        if header != ["lo", "hi", "observed", "expected"]:
            return False, f"unexpected histogram header {header}"
        lo = np.array([float(r[0]) for r in rows])
        hi = np.array([float(r[1]) for r in rows])
        observed = np.array([int(r[2]) for r in rows])
        if observed.sum() != n_draws:
            return False, f"histogram counts sum to {observed.sum()}, not {n_draws}"
        alpha, beta, keep = beta_laws(self.mq, self.vq)
        w = keep / keep.sum()
        masses = sum(wi * (stats.beta.cdf(hi, a, b) - stats.beta.cdf(lo, a, b))
                     for wi, a, b in zip(w, alpha, beta))
        chi2, dof = pooled_chi_square(observed, n_draws * masses)
        p = float(stats.chi2.sf(chi2, dof))
        return p > 0.001, f"chi-square {chi2:.2f} (dof {dof}, p {p:.3g}) at 0.1%"


WORKLOADS = {w.name: w for w in (TrainLadder, TrainWide, ProbeDefault, StatsPopulation)}
