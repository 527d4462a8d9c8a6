"""JSON-config command line front end.

One config file drives every subcommand; each subcommand reads its own
section plus the shared ``scenario`` section.  Flags ``--seed``,
``--threads``, and ``--out-dir`` override the matching config keys.  Exit
codes: 0 success, 2 malformed configuration or input (messages name the
offending key), 3 numerical failure (singular systems, non-convergence,
too many failed replications).

Every output file records the sha256 of the config file it came from, the
tool version, and the effective seed: JSON files in a ``provenance`` object,
CSV files in a leading ``#`` comment line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .alearn import alearn_fit
from .calibrate import _calibration_setup, calibrate_equiv_misspec, check_tstat_balance
from .data import StageSpec, read_dataset_csv, write_dataset_csv
from .errors import (
    CalibrationError,
    ConfigError,
    DtrError,
    InvalidParameterError,
    NonConvergenceError,
    ParseError,
    SingularSystemError,
    StudyError,
)
from .evaluate import StudyConfig, regime_value_analytic, run_mc_study, value_gcomputation
from .qlearn import qlearn_fit
from .rng import make_stream
from .scenarios import scenario_params, scenario_registry, true_psi

CONFIG_VERSION = 1
_CONFIG_ERRORS = (ConfigError, ParseError, InvalidParameterError, FileNotFoundError)
_NUMERIC_ERRORS = (SingularSystemError, NonConvergenceError, StudyError, CalibrationError)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


class _RunContext:
    def __init__(self, config_path: str, args):
        path = Path(config_path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        try:
            self.config = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(self.config, dict):
            raise ConfigError("config root must be an object")
        version = self.config.get("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"version: unsupported config version {version!r}")
        self.sha256 = hashlib.sha256(raw).hexdigest()
        self.seed = args.seed if args.seed is not None else self.config.get("seed", 0)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        self.threads = args.threads if args.threads is not None else self.config.get("threads", 1)
        if not isinstance(self.threads, int) or self.threads < 1:
            raise ConfigError("threads must be a positive integer")
        out_dir = args.out_dir if args.out_dir is not None else self.config.get("out_dir", ".")
        self.out_dir = Path(out_dir)

    def section(self, name: str) -> dict:
        try:
            section = self.config[name]
        except KeyError:
            raise ConfigError(f"{name}: section is required for this subcommand") from None
        if not isinstance(section, dict):
            raise ConfigError(f"{name}: must be an object")
        return section

    def scenario(self):
        section = self.section("scenario")
        name = section.get("name")
        if not isinstance(name, str):
            raise ConfigError("scenario.name: must be a string")
        definition = scenario_registry(name)
        overrides = section.get("params", {})
        if not isinstance(overrides, dict):
            raise ConfigError("scenario.params: must be an object")
        overrides = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in overrides.items()
        }
        try:
            params = scenario_params(name, **overrides)
        except InvalidParameterError as exc:
            raise ConfigError(f"scenario.params: {exc}") from exc
        return definition, params

    def provenance(self) -> dict:
        return {
            "tool": "dtrkit",
            "version": __version__,
            "config_sha256": self.sha256,
            "seed": self.seed,
        }

    def csv_header(self) -> str:
        return f"dtrkit {__version__} config_sha256={self.sha256} seed={self.seed}"

    def out_path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj

def _write_json(ctx: _RunContext, name: str, payload: dict) -> Path:
    path = ctx.out_path(name)
    body = {"provenance": ctx.provenance()}
    body.update(_jsonable(payload))
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path


def _require(section: dict, key: str, types, context: str):
    if key not in section:
        raise ConfigError(f"{context}.{key}: required key is missing")
    value = section[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{context}.{key}: has the wrong type")
    return value


def _positive_int(section: dict, key: str, context: str, default=None) -> int:
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{context}.{key}: required key is missing")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{context}.{key}: must be a positive integer")
    return value


def _resolve_specs(entry, definition, context: str):
    if entry in (None, "working"):
        return tuple(definition.working_specs())
    if entry == "full":
        if definition.full is None:
            raise ConfigError(f"{context}.specs: scenario has no full model set")
        return tuple(definition.full_specs())
    if isinstance(entry, list):
        specs = []
        for i, spec in enumerate(entry):
            if not isinstance(spec, dict) or "h" not in spec or "c" not in spec:
                raise ConfigError(f"{context}.specs[{i}]: must be an object with h and c")
            try:
                specs.append(StageSpec.parse(spec["h"], spec["c"], spec.get("propensity")))
            except (ParseError, InvalidParameterError) as exc:
                raise ConfigError(f"{context}.specs[{i}]: {exc}") from exc
        return tuple(specs)
    raise ConfigError(f"{context}.specs: must be 'working', 'full', or a list of stage objects")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _simulate_settings(ctx: _RunContext):
    section = ctx.section("simulate")
    definition, params = ctx.scenario()
    n = _positive_int(section, "n", "simulate")
    return definition, params, n, section.get("filename", f"{definition.name}_dataset.csv")


def _cmd_simulate(ctx: _RunContext) -> int:
    definition, params, n, filename = _simulate_settings(ctx)
    dataset = definition.generate(params, n, make_stream(ctx.seed, 0))
    path = ctx.out_path(filename)
    write_dataset_csv(dataset, path, header_comment=ctx.csv_header())
    print(f"wrote {path} ({n} trajectories, scenario {definition.name})")
    return 0


def _stage_fit_payload(fit) -> dict:
    payload = {
        "stage": fit.stage,
        "psi": fit.psi,
        "beta": fit.beta,
        "psi_se": np.sqrt(np.diag(fit.psi_cov)),
        "beta_se": np.sqrt(np.diag(fit.beta_cov)),
        "psi_cov": fit.psi_cov,
        "beta_cov": fit.beta_cov,
        "n_used": fit.n_used,
    }
    if fit.phi is not None:
        payload["phi"] = fit.phi
        payload["phi_se"] = np.sqrt(np.diag(fit.phi_cov))
    if fit.moment_inf_norm is not None:
        payload["moment_inf_norm"] = fit.moment_inf_norm
    return payload


def _write_residuals_csv(ctx, name, results):
    path = ctx.out_path(name)
    with open(path, "w") as fh:
        fh.write(f"# {ctx.csv_header()}\n")
        fh.write("estimator,stage,row,residual\n")
        for est, result in results.items():
            for fit in result.stage_fits:
                for i, value in enumerate(fit.residuals):
                    fh.write(f"{est},{fit.stage},{i + 1},{value!r}\n")
    return path


def _fit_settings(ctx: _RunContext):
    section = ctx.section("fit")
    definition, _ = ctx.scenario()
    dataset_path = _require(section, "dataset", str, "fit")
    estimator = section.get("estimator", "both")
    if estimator not in ("qlearn", "alearn", "both"):
        raise ConfigError("fit.estimator: must be 'qlearn', 'alearn', or 'both'")
    specs = _resolve_specs(section.get("specs"), definition, "fit")
    return definition, dataset_path, estimator, specs, section.get("output", "fit")


def _cmd_fit(ctx: _RunContext) -> int:
    definition, dataset_path, estimator, specs, output = _fit_settings(ctx)
    dataset = read_dataset_csv(dataset_path, definition.n_stages, definition.state_dims)
    results = {}
    if estimator in ("qlearn", "both"):
        results["qlearn"] = qlearn_fit(dataset, specs)
    if estimator in ("alearn", "both"):
        results["alearn"] = alearn_fit(dataset, specs)
    payload = {
        "scenario": definition.name,
        "n": dataset.n,
        "estimates": {
            est: [_stage_fit_payload(f) for f in result.stage_fits]
            for est, result in results.items()
        },
    }
    json_path = _write_json(ctx, f"{output}.json", payload)
    resid_path = _write_residuals_csv(ctx, f"{output}_residuals.csv", results)
    print(f"wrote {json_path} and {resid_path}")
    return 0


def _value_settings(ctx: _RunContext):
    section = ctx.section("value")
    definition, params = ctx.scenario()
    psi_entry = section.get("psi", "true")
    if psi_entry == "true":
        psi_list = true_psi(params)
    elif isinstance(psi_entry, list):
        try:
            psi_list = [np.asarray(p, dtype=float) for p in psi_entry]
        except (TypeError, ValueError):
            raise ConfigError("value.psi: must be a list of per-stage coefficient lists") from None
        canonical = [len(features) for features in definition.rules]
        if [p.size for p in psi_list] != canonical:
            raise ConfigError(
                f"value.psi: per-stage lengths must be {canonical}"
            )
    else:
        raise ConfigError("value.psi: must be 'true' or a list of per-stage coefficient lists")
    method = section.get("method", "analytic")
    if method not in ("analytic", "gcomp"):
        raise ConfigError("value.method: must be 'analytic' or 'gcomp'")
    draws = None
    if method == "gcomp":
        draws = _positive_int(section, "gcomp_draws", "value", default=1000000)
    return definition, params, psi_list, method, draws, section.get("output", "value.json")


def _cmd_value(ctx: _RunContext) -> int:
    definition, params, psi_list, method, draws, output = _value_settings(ctx)
    if method == "analytic":
        value, se = regime_value_analytic(params, psi_list), None
    else:
        regime = definition.regime(psi_list)
        value, se = value_gcomputation(params, regime, draws, make_stream(ctx.seed, 0))
    payload = {
        "scenario": definition.name,
        "method": method,
        "psi": psi_list,
        "value": value,
        "se": se,
    }
    path = _write_json(ctx, output, payload)
    print(f"wrote {path} (H = {value:.6g})")
    return 0


def _summary_payload(summary) -> dict:
    return {
        "n_included": summary.n_included,
        "mean_psi": summary.mean_psi,
        "sd_psi": summary.sd_psi,
        "se_mean_psi": summary.se_mean_psi,
        "bias_psi": summary.bias_psi,
        "mse_psi": summary.mse_psi,
        "se_mse_psi": summary.se_mse_psi,
        "value_mean": summary.value_mean,
        "value_se": summary.value_se,
        "value_median": summary.value_median,
        "R_mean": summary.r_mean,
        "R_mean_se": summary.r_mean_se,
        "R_median": summary.r_median,
        "threshold_mean": summary.threshold_mean,
        "threshold_se": summary.threshold_se,
    }


def _write_study_csv(ctx, name, results) -> Path:
    path = ctx.out_path(name)
    estimators = list(results.psi_rep)
    header = ["rep"]
    for est in estimators:
        header.append(f"{est}_failed")
        header.extend(f"{est}_{label}" for label in results.psi_labels)
        header.append(f"{est}_value")
    reps = results.config.reps
    with open(path, "w") as fh:
        fh.write(f"# {ctx.csv_header()}\n")
        fh.write(",".join(header) + "\n")
        for r in range(reps):
            row = [str(r)]
            for est in estimators:
                failed = bool(results.failed[est][r])
                row.append("1" if failed else "0")
                if failed:
                    row.extend([""] * (len(results.psi_labels) + 1))
                else:
                    row.extend(repr(float(v)) for v in results.psi_rep[est][r])
                    row.append(repr(float(results.value_rep[est][r])))
            fh.write(",".join(row) + "\n")
    return path


def _study_settings(ctx: _RunContext):
    section = ctx.section("study")
    definition, params = ctx.scenario()
    estimators = section.get("estimators", ["qlearn", "alearn"])
    if isinstance(estimators, str):
        estimators = [estimators]
    if not isinstance(estimators, list) or not estimators:
        raise ConfigError("study.estimators: must be a non-empty list")
    config = StudyConfig(
        scenario=definition.name,
        params=params,
        n=_positive_int(section, "n", "study", default=definition.default_n),
        reps=_positive_int(section, "reps", "study"),
        master_seed=ctx.seed,
        estimators=tuple(estimators),
        specs=_resolve_specs(section.get("specs"), definition, "study"),
        value_method=section.get("value_method", "analytic"),
        gcomp_draws=_positive_int(section, "gcomp_draws", "study", default=10000),
        threads=ctx.threads,
    )
    try:
        config.resolve()
    except InvalidParameterError as exc:
        raise ConfigError(f"study: {exc}") from exc
    return definition, estimators, config, section.get("output", "study")


def _cmd_study(ctx: _RunContext) -> int:
    definition, estimators, config, output = _study_settings(ctx)
    results = run_mc_study(config)
    payload = {
        "scenario": definition.name,
        "n": config.n,
        "reps": config.reps,
        "estimators": estimators,
        "psi_true": results.psi_true,
        "psi_labels": results.psi_labels,
        "h_opt": results.h_opt,
        "summaries": {est: _summary_payload(s) for est, s in results.summaries.items()},
        "mse_ratio": results.mse_ratio,
        "mse_ratio_se": results.mse_ratio_se,
        "R_mean": {est: s.r_mean for est, s in results.summaries.items()},
        "R_median": {est: s.r_median for est, s in results.summaries.items()},
        "propensity_sd": results.propensity_sd,
        "propensity_sd_se": results.propensity_sd_se,
        "n_failed": results.n_failed,
        "failure_rate": results.failure_rate,
        "high_failure_warning": results.high_failure_warning,
        "n_extreme_propensity": results.n_extreme_propensity,
    }
    json_path = _write_json(ctx, f"{output}.json", payload)
    csv_path = _write_study_csv(ctx, f"{output}_reps.csv", results)
    print(f"wrote {json_path} and {csv_path}")
    if results.high_failure_warning:
        print(
            f"warning: {results.n_failed} of {config.reps} replications failed",
            file=sys.stderr,
        )
    return 0


def _calibrate_settings(ctx: _RunContext):
    section = ctx.section("calibrate")
    definition, _ = ctx.scenario()
    _calibration_setup(definition.name)
    grid = section.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("calibrate.grid: must be an object")
    lo = grid.get("lo", -1.0)
    hi = grid.get("hi", 1.0)
    step = grid.get("step", 0.05)
    for key, value in (("lo", lo), ("hi", hi), ("step", step)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"grid.{key}: must be a number")
    if step <= 0:
        raise ConfigError("grid.step must be > 0")
    if hi <= lo:
        raise ConfigError("grid.hi must be > grid.lo")
    n_cal = _positive_int(section, "n_cal", "calibrate", default=10000)
    max_degree = _positive_int(section, "poly_max_degree", "calibrate", default=20)
    target = section.get("adj_r2_target", 0.99)
    if isinstance(target, bool) or not isinstance(target, (int, float)) or not 0 < target <= 1:
        raise ConfigError("calibrate.adj_r2_target: must be in (0, 1]")
    rel_dev = section.get("max_rel_dev", 0.02)
    if isinstance(rel_dev, bool) or not isinstance(rel_dev, (int, float)) or rel_dev <= 0:
        raise ConfigError("calibrate.max_rel_dev: must be > 0")
    check = section.get("check")
    if check is not None:
        if not isinstance(check, dict):
            raise ConfigError("calibrate.check: must be an object")
        n_check = _positive_int(check, "n", "calibrate.check", default=10000)
        reps_check = _positive_int(check, "reps", "calibrate.check", default=100)
        phis = check.get("pairs", [])
        if not isinstance(phis, list):
            raise ConfigError("calibrate.check.pairs: must be a list of phi values")
        check = (n_check, reps_check, phis)
    settings = {
        "grid_lo": float(lo),
        "grid_hi": float(hi),
        "step": float(step),
        "n_cal": n_cal,
        "poly_max_degree": max_degree,
        "adj_r2_target": float(target),
        "max_rel_dev": float(rel_dev),
    }
    return definition, settings, check, section.get("output", "calibration")


def _cmd_calibrate(ctx: _RunContext) -> int:
    definition, settings, check, output = _calibrate_settings(ctx)
    result = calibrate_equiv_misspec(definition.name, master_seed=ctx.seed, **settings)
    pairs_path = ctx.out_path(f"{output}_pairs.csv")
    with open(pairs_path, "w") as fh:
        fh.write(f"# {ctx.csv_header()}\n")
        fh.write("phi,beta,se_ratio\n")
        for (phi, beta), ratio in zip(result.pairs, result.ratio_per_phi):
            fh.write(f"{phi!r},{beta!r},{ratio!r}\n")
    checks = []
    if check is not None:
        n_check, reps_check, phis = check
        for phi in phis:
            beta = float(result.beta_for(phi))
            rel = check_tstat_balance(
                (float(phi), beta), definition.name, n_check, reps_check, ctx.seed + 1
            )
            checks.append({"phi": float(phi), "beta": beta, "relative_difference": rel})
    payload = {
        "scenario": definition.name,
        "grid": {"lo": settings["grid_lo"], "hi": settings["grid_hi"], "step": settings["step"]},
        "n_cal": settings["n_cal"],
        "poly_degree": result.poly_degree,
        "poly_coeffs_high_to_low": result.poly_coeffs,
        "adj_r2": result.adj_r2,
        "fit_max_rel_dev": result.fit_max_rel_dev,
        "pairs": result.pairs,
        "tstat_checks": checks,
    }
    json_path = _write_json(ctx, f"{output}.json", payload)
    print(f"wrote {json_path} and {pairs_path}")
    return 0


# Each command's settings parser, which rejects a bad section before any
# work; ``validate`` runs the parser of every section present.
_SETTINGS = {
    "simulate": _simulate_settings,
    "study": _study_settings,
    "fit": _fit_settings,
    "value": _value_settings,
    "calibrate": _calibrate_settings,
}


def _cmd_validate(ctx: _RunContext) -> int:
    definition, params = ctx.scenario()
    for name, settings in _SETTINGS.items():
        if name in ctx.config:
            settings(ctx)
    print(f"config ok (scenario {definition.name}, seed {ctx.seed})")
    print(f"true contrast coefficients (psi), stage by stage:")
    for k, psi in enumerate(true_psi(params), start=1):
        print(f"  stage {k}: {np.asarray(psi)}")
    if definition.derived_truth is not None:
        beta1, psi1 = definition.derived_truth(params)
        print(f"derived stage-1 outcome coefficients (beta1): {beta1}")
        print(f"derived stage-1 contrast coefficients (psi1): {psi1}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "value": _cmd_value,
    "study": _cmd_study,
    "calibrate": _cmd_calibrate,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dtrkit",
        description="Estimate, evaluate, and stress-test multi-stage treatment regimes.",
    )
    parser.add_argument("--version", action="version", version=f"dtrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to the JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--threads", type=int, default=None, help="override the config threads")
        cmd.add_argument("--out-dir", default=None, help="override the config output directory")
    args = parser.parse_args(argv)
    try:
        ctx = _RunContext(args.config, args)
        return _COMMANDS[args.command](ctx)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DtrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
