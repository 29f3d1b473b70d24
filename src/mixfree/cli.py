"""Command-line entry point: JSON configs in, CSV/JSON/SVG artifacts out.

Flag grammar: ``mixfree <command> --config <path> [--out <dir>] [--seed <n>]
[--quiet]`` with commands simulate, bound, certify, sweep, coverage, diagnose.
Exit codes: 0 on success, 1 on configuration errors (diagnostic names the
offending key, or the line/column for malformed JSON; a model document the
modules reject, a value that is not a number, a negative seed, a delta
outside (0, 1), an n or a replicate count below 1 (below 2 for diagnose,
which calibrates on half its replicates) and a riskBound delta of 0.25 or
more count as well, and all are caught before any sampling), 2 on numeric
failures propagated from the modules. Configs are validated strictly:
unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bounds, harness, processgen
from .bounds import Constants, INF
from .erm import HypothesisClass

COMMANDS = ("simulate", "bound", "certify", "sweep", "coverage", "diagnose")


class ConfigError(ValueError):
    """Configuration problem attributable to the user-supplied document."""


def _check_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where} is missing required key(s): {sorted(missing)}")


def _number(value, key: str, kind=float):
    """A config value converted by `kind` (int or float); one that does not
    convert is a config error naming its key."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None


def _count(value, key: str, least: int = 1) -> int:
    """A config integer that must be at least `least` (a sample size or a
    replicate count)."""
    n = _number(value, key, int)
    if n < least:
        raise ConfigError(f"{key!r} must be >= {least}, got {n}")
    return n


def _fraction(value, key: str) -> float:
    """A config number that must lie strictly between 0 and 1 (a delta)."""
    x = _number(value, key)
    if not 0 < x < 1:
        raise ConfigError(f"{key!r} must lie in (0, 1), got {x}")
    return x


def _seed(cfg: dict, override: int | None) -> int:
    """The run's seed: --seed when given, else the config's 'seed' (0 when it
    has none). Seeds are non-negative integers of any size."""
    seed = _number(cfg.get("seed", 0), "seed", int) if override is None else override
    if seed < 0:
        where = "'seed'" if override is None else "--seed"
        raise ConfigError(f"{where} must be a non-negative integer, got {seed}")
    return seed


def _document(build, spec, where: str):
    """build(spec) for one part of a config; a part the builder rejects (a
    non-stochastic transition, an unknown model key, ...) is a config error."""
    try:
        return build(spec)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None


def _parse_p(value) -> float:
    if value in ("inf", "Infinity", None):
        return INF
    return _number(value, "p")


def _parse_q_p(cfg: dict) -> tuple[float, float]:
    """The config's (q, p); a pair the bound cannot use is a config error."""
    q, p = _number(cfg.get("q", 1.0), "q"), _parse_p(cfg.get("p"))
    try:
        bounds.check_q_p(q, p)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return q, p


def _parse_class(spec) -> HypothesisClass:
    _check_keys(spec, {"kind"}, {"dim", "tables"}, "class")
    if spec["kind"] == "linear":
        if "dim" not in spec:
            raise ConfigError("linear class requires key 'dim'")
        return HypothesisClass.linear(_number(spec["dim"], "dim", int))
    if spec["kind"] == "finite":
        if "tables" not in spec:
            raise ConfigError("finite class requires key 'tables'")
        return _document(HypothesisClass.finite, spec["tables"], "class")
    raise ConfigError(f"class kind must be 'linear' or 'finite', got {spec['kind']!r}")


def _parse_constants(spec) -> Constants:
    if spec is None:
        return Constants()
    _check_keys(spec, set(), {"c1", "c2", "c3", "c_alpha"}, "constants")
    return Constants(**{k: _number(v, k) for k, v in spec.items()})


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config parse error at line {err.lineno} column "
                          f"{err.colno}: {err.msg}")


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _cmd_simulate(cfg: dict, out: str, seed: int | None) -> list:
    _check_keys(cfg, {"model", "n", "seed"}, {"kwise"}, "simulate config")
    problem = _document(processgen.problem_from_dict, cfg["model"], "model")
    n = _count(cfg["n"], "n")
    use_seed = _seed(cfg, seed)
    if "kwise" in cfg:
        traj = processgen.kwise_independent_surrogate(
            problem, n, _number(cfg["kwise"], "kwise", int), use_seed)
    else:
        traj = processgen.sample_trajectory(problem, n, use_seed)
    path = _out_path(out, "trajectory.csv")
    processgen.trajectory_to_csv(traj, path)
    return [path]


def _cmd_bound(cfg: dict, out: str, seed: int | None) -> list:
    _check_keys(cfg, {"model", "class", "n", "delta"},
                {"q", "p", "k", "constants", "resolution", "seed"},
                "bound config")
    problem = _document(processgen.problem_from_dict, cfg["model"], "model")
    cls = _parse_class(cfg["class"])
    q, p = _parse_q_p(cfg)
    report = bounds.compute_bound_report(
        problem, cls, _count(cfg["n"], "n"), _fraction(cfg["delta"], "delta"),
        q=q, p=p,
        k=None if cfg.get("k") is None else _number(cfg["k"], "k", int),
        constants=_parse_constants(cfg.get("constants")),
        resolution=_number(cfg.get("resolution", 64), "resolution", int),
        seed=_seed(cfg, seed))
    json_path = _out_path(out, "bound_report.json")
    with open(json_path, "w") as fh:
        fh.write(report.to_json() + "\n")

    rhs = report.multiplier_rhs()
    csv_path = _out_path(out, "bound_terms.csv")
    with open(csv_path, "w") as fh:
        fh.write("term,value\n")
        for name, value in rhs.terms.items():
            fh.write(f"{name},{float(value)!r}\n")
        fh.write(f"total,{float(rhs.total)!r}\n")
    return [json_path, csv_path]


def _cmd_certify(cfg: dict, out: str, seed: int | None) -> list:
    _check_keys(cfg, {"model", "class"},
                {"p", "method", "directions", "seed", "m_max"}, "certify config")
    problem = _document(processgen.problem_from_dict, cfg["model"], "model")
    cls = _parse_class(cfg["class"])
    method = cfg.get("method", "auto")
    if method not in bounds.CERTIFY_METHODS:
        raise ConfigError(f"'method' must be one of {list(bounds.CERTIFY_METHODS)}, "
                          f"got {method!r}")
    cert = bounds.certify_weak_subgaussian(
        cls, problem, p=_parse_p(cfg.get("p", 2.0)), method=method,
        directions=_number(cfg.get("directions", 10_000), "directions", int),
        m_max=_number(cfg.get("m_max", 200), "m_max", int),
        seed=_seed(cfg, seed))
    payload = asdict(cert)
    payload["p"] = "inf" if cert.p == INF else cert.p
    path = _out_path(out, "certificate.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return [path]


def _cmd_sweep(cfg: dict, out: str, seed: int | None) -> list:
    _check_keys(cfg, {"levels", "class", "n_grid", "replicates", "seed"},
                {"delta", "q", "p", "constants", "block_rule", "plot"},
                "sweep config")
    if not isinstance(cfg["levels"], list) or not cfg["levels"]:
        raise ConfigError("'levels' must be a nonempty list of {label, model}")
    problems, labels = [], []
    for i, level in enumerate(cfg["levels"]):
        _check_keys(level, {"label", "model"}, set(), f"levels[{i}]")
        problems.append(_document(processgen.problem_from_dict, level["model"],
                                  f"levels[{i}].model"))
        labels.append(level["label"])
    if not isinstance(cfg["n_grid"], list):
        raise ConfigError("'n_grid' must be a list of integers")
    q, p = _parse_q_p(cfg)
    config = _document(lambda fields: harness.SweepConfig(**fields), dict(
        problems=tuple(problems), labels=tuple(labels),
        hypothesis=_parse_class(cfg["class"]),
        n_grid=tuple(_number(n, "n_grid", int) for n in cfg["n_grid"]),
        replicates=_count(cfg["replicates"], "replicates"),
        master_seed=_seed(cfg, seed),
        delta=_fraction(cfg.get("delta", 0.05), "delta"), q=q, p=p,
        constants=_parse_constants(cfg.get("constants")),
        block_rule=cfg.get("block_rule", "kmix")), "sweep config")
    result = harness.run_sweep(config)
    csv_path = _out_path(out, "sweep.csv")
    harness.sweep_to_csv(result, csv_path)
    summary_path = _out_path(out, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(harness.sweep_summary(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = [csv_path, summary_path]
    if cfg.get("plot"):
        svg_path = _out_path(out, "sweep.svg")
        harness.svg_loglog(svg_path, config.n_grid,
                           {lab: result.medians(li)
                            for li, lab in enumerate(config.labels)})
        written.append(svg_path)
    return written


def _cmd_coverage(cfg: dict, out: str, seed: int | None) -> list:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("coverage config requires key 'kind'")
    kind = cfg["kind"]
    if kind == "blockedBernstein":
        _check_keys(cfg, {"kind", "model", "values", "n", "k", "delta",
                          "replicates", "seed"}, set(), "coverage config")
        model = _document(processgen.MarkovChainModel.from_transition,
                          cfg["model"]["transition"] if isinstance(cfg["model"], dict)
                          else cfg["model"], "model")
        report = harness.blocked_bernstein_coverage(
            model, np.asarray(cfg["values"], dtype=float), _count(cfg["n"], "n"),
            _number(cfg["k"], "k", int), _fraction(cfg["delta"], "delta"),
            _count(cfg["replicates"], "replicates"), _seed(cfg, seed))
    elif kind == "riskBound":
        _check_keys(cfg, {"kind", "model", "class", "n", "delta",
                          "calibration_replicates", "validation_replicates",
                          "seed"}, {"q", "p", "constants"}, "coverage config")
        q, p = _parse_q_p(cfg)
        delta = _fraction(cfg["delta"], "delta")
        if delta >= 0.25:
            raise ConfigError(f"'delta' must be below 0.25 for riskBound coverage, "
                              f"which tests at level 4 * delta, got {delta}")
        report = harness.risk_bound_coverage(
            _document(processgen.problem_from_dict, cfg["model"], "model"),
            _parse_class(cfg["class"]), _count(cfg["n"], "n"), delta,
            _count(cfg["calibration_replicates"], "calibration_replicates"),
            _count(cfg["validation_replicates"], "validation_replicates"),
            _seed(cfg, seed),
            q=q, p=p, constants=_parse_constants(cfg.get("constants")))
    else:
        raise ConfigError(f"coverage kind must be 'blockedBernstein' or "
                          f"'riskBound', got {kind!r}")
    csv_path = _out_path(out, "coverage.csv")
    report.to_csv(csv_path)
    json_path = _out_path(out, "coverage.json")
    with open(json_path, "w") as fh:
        json.dump({"kind": report.kind, "replicates": report.replicates,
                   "delta": report.delta, "frequency": report.frequency,
                   "std_error": report.std_error, "threshold": report.threshold,
                   "c2": report.c2}, fh, indent=2)
        fh.write("\n")
    return [csv_path, json_path]


def _cmd_diagnose(cfg: dict, out: str, seed: int | None) -> list:
    _check_keys(cfg, {"model", "class", "n", "replicates", "epsilon", "delta",
                      "seed"}, {"q", "p", "constants", "rho_grid"},
                "diagnose config")
    q, p = _parse_q_p(cfg)
    report = harness.process_diagnostics(
        _document(processgen.problem_from_dict, cfg["model"], "model"),
        _parse_class(cfg["class"]),
        _count(cfg["n"], "n"), _count(cfg["replicates"], "replicates", least=2),
        _number(cfg["epsilon"], "epsilon"), _fraction(cfg["delta"], "delta"),
        _seed(cfg, seed),
        q=q, p=p, constants=_parse_constants(cfg.get("constants")),
        rho_grid=_number(cfg.get("rho_grid", 64), "rho_grid", int))
    path = _out_path(out, "diagnostics.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    return [path]


_HANDLERS = {
    "simulate": _cmd_simulate,
    "bound": _cmd_bound,
    "certify": _cmd_certify,
    "sweep": _cmd_sweep,
    "coverage": _cmd_coverage,
    "diagnose": _cmd_diagnose,
}


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="mixfree", add_help=True)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 1
    try:
        cfg = _load_config(args.config)
        written = _HANDLERS[args.command](cfg, args.out, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, KeyError, TypeError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    if not args.quiet:
        for path in written:
            print(path)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
