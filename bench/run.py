"""dtrkit benchmark: study throughput, g-computation and calibration, each
checked against an independent recomputation.

Run from the root of a source checkout:

    python3 bench/run.py --workload study_two_decision --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Artifacts and spans go to ``.bench_out/<workload>/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A round is a whole unit of work.  An untraced run repeats whole cycles of
# rounds within --seconds; each cycle also runs a companion part that gives
# the end-to-end metrics its rounds do not (see README).
STUDIES = {
    "study_two_decision": dict(scenario="two_decision", n=200, reps=300, value_method="analytic"),
    "study_moodie_gcomp": dict(scenario="moodie", n=1000, reps=150, value_method="gcomp"),
}
WORKLOADS = (*STUDIES, "calibrate_two_decision")
CALIBRATION = dict(grid_lo=-1.0, grid_hi=1.0, step=0.125, n_cal=10000)
GRID_CELLS = 17 * 17  # 17 grid values for phi and for beta
CHECK_PHIS = (-1.0, 1.0)
CHECK_N = 10000
CHECK_REPS = 80
BALANCE_LIMIT = 0.05  # acceptance criterion 7
# The small checks of the study workloads.  With 10 replications the
# relative |t| difference has a standard error near 1.5%, so their limit is
# looser than criterion 7's.
PROBE_REPS = 10
PROBE_LIMIT = 0.25
# Study rounds per cycle of an untraced study run, each cycle starting with
# one calibration grid: about half of the run goes to the grids.
STUDY_ROUNDS_PER_CYCLE = 3
COMPANION_STUDY = STUDIES["study_two_decision"]
GCOMP_DRAWS = 10000
ESTIMATORS = ("qlearn", "alearn")
# The process pool is measured on study_two_decision: a threads=2 copy of
# each traced round, and a bit-identity check of a pooled prefix.
POOL_THREADS = 2
POOL_CHECK_REPS = 48


def round_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def sample_reps(reps: int) -> tuple:
    """Replications recomputed independently in the first study round."""
    return (0, 1, reps // 2, reps - 1)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import dtrkit
        from dtrkit import calibrate, cli, scenarios

        if Path(dtrkit.__file__).resolve().parent != (SRC / "dtrkit").resolve():
            raise SystemExit(f"bench: imported dtrkit from {dtrkit.__file__}, not {SRC}")
        self.calibrate, self.cli, self.scenarios = calibrate, cli, scenarios
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.out = OUT / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.studies = []  # (StudyRun, exit code)
        self.pool_pairs = []  # (serial StudyRun, pooled StudyRun)
        self.calibrations = []  # (seed, CalibrationResult or None, pair checks)
        self.times = {"reps_per_s": [], "calibrate_grid_s": [], "tcheck_reps_per_s": []}
        self.tracer = None
        if trace:
            import spans

            self.spans = spans
            self.tracer = spans.Tracer()
            self.layers = []
            self.overhead = []

    # -- operations -------------------------------------------------------

    def study(self, spec: dict, name: str, seed: int, threads: int = 1, reps=None):
        """One ``dtrkit study`` through ``cli.main``; returns the run, its exit
        code and its wall time."""
        from checks import StudyRun

        run = StudyRun(spec["scenario"], spec["n"], reps or spec["reps"], seed,
                       spec["value_method"], GCOMP_DRAWS, self.out / name)
        run.out_dir.mkdir(parents=True, exist_ok=True)
        config = run.out_dir / "config.json"
        config.write_text(json.dumps({
            "version": 1,
            "seed": seed,
            "scenario": {"name": run.scenario},
            "study": {"n": run.n, "reps": run.reps, "estimators": list(ESTIMATORS),
                      "value_method": run.value_method, "gcomp_draws": GCOMP_DRAWS},
        }))
        argv = ["study", str(config), "--out-dir", str(run.out_dir), "--threads", str(threads)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return run, rc, elapsed

    def study_round(self, spec: dict, name: str, seed: int, threads: int = 1):
        run, rc, elapsed = self.study(spec, name, seed, threads)
        self.studies.append((run, rc))
        self.attempted += run.reps * len(ESTIMATORS)
        if threads == 1:
            self.times["reps_per_s"].append(run.reps / elapsed)
        print(f"bench: {name}: {run.reps / elapsed:.1f} rep/s", file=sys.stderr)
        return run, elapsed

    def calibration_round(self, seed: int, check_reps: int = CHECK_REPS):
        """calibrate_equiv_misspec on the grid, then check_tstat_balance
        with ``check_reps`` replications at the pairs of CHECK_PHIS.  Returns
        the round's wall time and its pairs."""
        from dtrkit.errors import CalibrationError

        start = time.perf_counter()
        try:
            result = self.calibrate.calibrate_equiv_misspec("two_decision", master_seed=seed,
                                                            **CALIBRATION)
        except CalibrationError:
            result = None
        grid_s = time.perf_counter() - start
        self.attempted += GRID_CELLS
        self.times["calibrate_grid_s"].append(grid_s)
        self.calibrations.append((seed, result, []))
        print(f"bench: calibration {seed}: grid {grid_s:.2f} s", file=sys.stderr)
        if result is None:
            self.failed += GRID_CELLS
            return grid_s, []
        pairs = [(phi, float(result.beta_for(phi))) for phi in CHECK_PHIS]
        check_s = sum(self.tcheck(pair, check_reps, seed + 1, BALANCE_LIMIT)
                      for pair in pairs) if check_reps else 0.0
        return grid_s + check_s, pairs

    def tcheck(self, pair, reps: int, seed: int, limit: float) -> float:
        """check_tstat_balance on a pair of the last calibration; its result
        is checked against ``limit``.  Returns the wall time."""
        start = time.perf_counter()
        rel = self.calibrate.check_tstat_balance(pair, "two_decision", CHECK_N, reps,
                                                 master_seed=seed)
        elapsed = time.perf_counter() - start
        self.attempted += reps
        self.times["tcheck_reps_per_s"].append(reps / elapsed)
        self.calibrations[-1][2].append((*pair, rel, limit))
        return elapsed

    def main_round(self, k: int) -> float:
        seed = round_seed(self.seed, k)
        if self.workload in STUDIES:
            return self.study_round(STUDIES[self.workload], f"round_{k}", seed)[1]
        return self.calibration_round(seed)[0]

    # -- tracing ----------------------------------------------------------

    def traced(self, func):
        """Run ``func`` with the tracer installed; returns its wall time."""
        self.tracer.reset()
        self.tracer.install()
        try:
            start = time.perf_counter()
            func()
            return time.perf_counter() - start
        finally:
            self.tracer.uninstall()

    def traced_round(self, k: int):
        """The round untraced, then the same round traced.  On
        study_two_decision the round is then run once more with the process
        pool, for evaluate.pool_s."""
        untraced = self.main_round(k)
        traced = self.traced(lambda: self.main_round(k))
        self.tracer.write(self.out / "spans.csv", k)
        layers = self.spans.layer_metrics(self.tracer)
        if self.workload == "study_two_decision":
            serial = self.studies[-1][0]
            self.traced(lambda: self.study_round(
                STUDIES[self.workload], f"round_{k}_pool", serial.seed, POOL_THREADS))
            self.pool_pairs.append((serial, self.studies[-1][0]))
            layers["evaluate.pool_s"] = self.spans.pool_seconds(self.tracer)
        self.layers.append(layers)
        self.overhead.append((untraced, traced))

    # -- the run ----------------------------------------------------------

    def run(self):
        # A cycle starts only if the longest one so far would still end
        # within --seconds.
        start = time.perf_counter()
        longest = 0.0
        k = 0
        while k == 0 or time.perf_counter() - start + longest <= self.seconds:
            began = time.perf_counter()
            if self.tracer is None:
                self.cycle(k)
            else:
                self.traced_round(k)
            longest = max(longest, time.perf_counter() - began)
            k += 1

    def cycle(self, k: int):
        """Cycle ``k`` of an untraced run: the workload's rounds with the
        companion part interleaved, so that every end-to-end metric is a
        median of samples spread over the whole run."""
        if self.workload in STUDIES:
            # The same grid in every cycle, then study rounds, each followed
            # by a small t-balance check at one of the grid's pairs.
            _, pairs = self.calibration_round(round_seed(self.seed, 900), check_reps=0)
            for j in range(STUDY_ROUNDS_PER_CYCLE):
                r = k * STUDY_ROUNDS_PER_CYCLE + j
                self.main_round(r)
                if pairs:
                    self.tcheck(pairs[r % len(pairs)], PROBE_REPS,
                                round_seed(self.seed, 901 + r), PROBE_LIMIT)
        else:
            self.main_round(k)
            self.study_round(COMPANION_STUDY, f"companion_{k}", round_seed(self.seed, 900 + k))

    # -- checks -----------------------------------------------------------

    def check(self) -> list:
        """Every correctness check; counts failed operations on the way."""
        import checks

        problems = []
        recomputed = set()
        for run, rc in self.studies:
            if rc != 0:
                problems.append(f"{run.out_dir.name}: dtrkit study exited {rc}")
                self.failed += run.reps * len(ESTIMATORS)
                continue
            summary, rows = checks.read_study(run.out_dir)
            self.failed += checks.failed_ops(summary)
            params = self.scenarios.scenario_params(run.scenario)
            # The independent recomputation on the first round of a scenario.
            sample = () if run.scenario in recomputed else sample_reps(run.reps)
            recomputed.add(run.scenario)
            found = checks.study_problems(summary, rows, run, params, sample)
            problems += [f"{run.out_dir.name}: {p}" for p in found]

        if self.workload == "study_two_decision":
            if not self.pool_pairs:
                serial = self.studies[0][0]
                pooled, rc, _ = self.study(STUDIES[self.workload], "pool_check", serial.seed,
                                           POOL_THREADS, reps=POOL_CHECK_REPS)
                if rc != 0:
                    problems.append(f"pool_check: dtrkit study exited {rc}")
                else:
                    self.pool_pairs.append((serial, pooled))
            for serial, pooled in self.pool_pairs:
                _, serial_rows = checks.read_study(serial.out_dir)
                _, pooled_rows = checks.read_study(pooled.out_dir)
                found = checks.pool_prefix_problems(pooled_rows, serial_rows)
                problems += [f"{pooled.out_dir.name}: {p}" for p in found]

        base = self.scenarios.scenario_params("two_decision")
        for i, (seed, result, pair_checks) in enumerate(self.calibrations):
            if result is None:
                problems.append(f"calibration {seed}: CalibrationError")
                continue
            # The independent recomputation of one phi row on the first one.
            row = seed % len(result.grid) if i == 0 else None
            found = checks.calibration_problems(result, pair_checks, base, row)
            problems += [f"calibration {seed}: {p}" for p in found]
        return problems

    # -- set-up time ------------------------------------------------------

    def setup_seconds(self) -> float:
        """One cold set-up: a fresh interpreter imports dtrkit and validates
        the workload's config."""
        if self.workload in STUDIES:
            config = self.studies[0][0].out_dir / "config.json"
        else:
            config = self.out / "calibrate.json"
            config.write_text(json.dumps({
                "version": 1, "seed": self.seed, "scenario": {"name": "two_decision"},
                "calibrate": {"grid": {"lo": CALIBRATION["grid_lo"], "hi": CALIBRATION["grid_hi"],
                                       "step": CALIBRATION["step"]},
                              "n_cal": CALIBRATION["n_cal"]},
            }))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "dtrkit", "validate", str(config)],
                              env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"bench: dtrkit validate failed: {done.stderr.strip()}")
        return elapsed


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child.
    Taken before the checks and the set-up interpreter start any child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(bench: Bench, rss: float) -> dict:
    times = {name: statistics.median(values) if values else 0.0
             for name, values in bench.times.items()}
    return {
        "setup_s": {"value": bench.setup_seconds(), "unit": "s"},
        "reps_per_s": {"value": times["reps_per_s"], "unit": "rep/s"},
        "calibrate_grid_s": {"value": times["calibrate_grid_s"], "unit": "s"},
        "tcheck_reps_per_s": {"value": times["tcheck_reps_per_s"], "unit": "rep/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(bench: Bench) -> dict:
    """Counts from the first round, which depends on the seed alone; times
    as medians over the rounds."""
    metrics = {}
    for name, unit in bench.spans.UNITS.items():
        values = [layers.get(name, 0.0) for layers in bench.layers]
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    untraced = statistics.median(u for u, _ in bench.overhead)
    traced = statistics.median(t for _, t in bench.overhead)
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "dtrkit" / "__init__.py").is_file():
        print(f"bench: no dtrkit source under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run()
    rss = peak_rss_mb()
    problems = bench.check()
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    metrics = per_layer(bench) if args.trace else end_to_end(bench, rss)
    print(json.dumps({"correct": not problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
