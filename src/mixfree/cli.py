"""Command-line entry point: JSON configs in, CSV/JSON/SVG artifacts out.

Flag grammar: ``mixfree <command> --config <path> [--out <dir>] [--seed <n>]
[--quiet]`` with commands simulate, bound, certify, sweep, coverage, diagnose.
Exit codes: 0 on success, 1 on a config error or a path error, 2 on a
numeric failure from the modules or on running out of memory. A config error
names its key (or the line and column of malformed JSON) and comes before any
sampling, as does an --out that is not a directory or lies under a file; a
config that cannot be read and an artifact that cannot be written name their
path.
`_KEYS` lists each command's keys in reading order; a missing required key
or an unknown key is an error. Each key has a kind:

- integer: an integral JSON number (1e2 is 100), not a boolean or a string.
  Counts are >= 1 (>= 2 for diagnose replicates and rho_grid); a block length
  (coverage k, simulate kwise) divides n; a seed is >= 0 (--seed replaces it).
- number: finite, not a boolean or a string. delta lies in (0, 1), below 0.25
  for riskBound coverage (tested at level 4 * delta); epsilon in [0, 1);
  q >= 1, and q = 1 needs p = inf; p >= 1, or "inf", "Infinity" or null.
- label: a string; flag: a boolean; choice: certify's method, a kind.
- document: a model (`processgen.problem_from_dict`); a linear (dim) or finite
  (tables) class that fits every model; constants (c1, c2, c3, c_alpha); the
  sweep's nonempty levels ({label, model}, distinct labels) and n_grid of
  distinct integers; blockedBernstein's transition and centered values, one per state.
null reads as the default only for p, k and kwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

from . import bounds, harness, processgen
from .bounds import Constants, INF
from .erm import HypothesisClass, check_class_fits


class ConfigError(ValueError):
    """Configuration problem attributable to the user-supplied document."""


def _read(cfg, table, where: str, seed: int | None) -> dict:
    """cfg's values, read in table order, so each reader sees those read before
    it. (key, reader) is required, (key, reader, default) optional; a dict of
    tables is chosen by cfg's 'kind'. --seed (when given) replaces 'seed'."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if isinstance(table, dict):
        if cfg.get("kind") not in tuple(table):     # a tuple: [] or {} is unhashable
            raise ConfigError(f"{where} kind must be one of {list(table)}, "
                              f"got {cfg.get('kind')!r}")
        table = table[cfg["kind"]]
    missing = sorted(entry[0] for entry in table if len(entry) == 2 and entry[0] not in cfg)
    if missing:
        raise ConfigError(f"{where} is missing required key(s): {missing}")
    unknown = sorted(set(cfg) - {entry[0] for entry in table})
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {unknown}")
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
        cfg = dict(cfg, seed=seed)
    got = {}
    for key, reader, *default in table:
        got[key] = reader(cfg.get(key, *default), key, got)
    return got


def _document(build, spec, where: str):
    """build(spec) for one part of a config; a part the builder rejects (a
    non-stochastic transition, an unknown model key, ...) is a config error."""
    try:
        return build(spec)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None


# Readers: reader(value, key, got) reads one key, given the values read before it.

def _given(value, key, got):     # a value its module checks
    return value


def _number_read(kind, test, must: str):
    """A JSON number (not a boolean or a string) as kind, where an int needs an
    integral value (1e2 is 100), that must pass test."""
    def read(value, key, got):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or kind is int and isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{key!r} must be {'an integer' if kind is int else 'a number'}"
                              f", got {value!r}")
        if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
            value = INF if value > 0 else -INF      # float() would overflow
        if not test(kind(value)):
            raise ConfigError(f"{key!r} must {must}, got {kind(value)}")
        return kind(value)
    return read


def _count(least: int):
    """An integer >= least (a sample size, a replicate count, a grid size)."""
    return _number_read(int, lambda n: n >= least, f"be >= {least}")


_integer = _number_read(int, lambda n: True, "be an integer")
_seed = _number_read(int, lambda n: n >= 0, "be a non-negative integer")
_number = _number_read(float, math.isfinite, "be finite")
_fraction = _number_read(float, lambda x: 0 < x < 1, "lie in (0, 1)")
_epsilon = _number_read(float, lambda x: 0 <= x < 1, "lie in [0, 1)")
_finite_p = _number_read(float, lambda x: 1 <= x < INF, 'be >= 1 and finite, or "inf"')


def _divisor(value, key, got) -> int:
    """A block length: an integer >= 1 that divides n."""
    k = _count(1)(value, key, got)
    if got["n"] % k != 0:
        raise ConfigError(f"{key!r} must divide 'n' = {got['n']}, got {k}")
    return k


def _optional(reader):
    """reader, with null read as None (the module's default)."""
    return lambda value, key, got: None if value is None else reader(value, key, got)


def _risk_delta(value, key, got) -> float:
    delta = _fraction(value, key, got)
    if delta >= 0.25:
        raise ConfigError(f"{key!r} must be below 0.25 for riskBound coverage, "
                          f"which tests at level 4 * delta, got {delta}")
    return delta


def _p(value, key, got) -> float:
    return INF if value in ("inf", "Infinity", None) else _finite_p(value, key, got)


def _q(value, key, got) -> float:
    q = _number(value, key, got)
    _document(lambda q: bounds.check_q_p(q, got["p"]), q, repr(key))
    return q


def _check(test, must: str):
    def read(value, key, got):
        if not test(value):
            raise ConfigError(f"{key!r} must be {must}, got {value!r}")
        return value
    return read


_label = _check(lambda v: isinstance(v, str), "a string")
_flag = _check(lambda v: isinstance(v, bool), "true or false")
_method = _check(lambda v: v in bounds.CERTIFY_METHODS, f"one of {list(bounds.CERTIFY_METHODS)}")


def _model(value, key, got):
    return _document(processgen.problem_from_dict, value, key)


def _chain(value, key, got):
    """A blockedBernstein model: {"transition": P}, or P itself."""
    if isinstance(value, dict):
        value = _read(value, (("transition", _given),), key, None)["transition"]
    return _document(processgen.MarkovChainModel.from_transition, value, key)


def _values(value, key, got):
    return _document(lambda v: harness.centered_values(got["model"], v), value, repr(key))


def _class(value, key, got):
    """A class that fits the model, or every level's model."""
    cls = _document(lambda spec: HypothesisClass(**spec), _read(value, _CLASS, key, None), key)
    models = [level["model"] for level in got["levels"]] if "levels" in got else [got["model"]]
    for problem in models:
        _document(lambda c: check_class_fits(problem, c), cls, key)
    return cls


def _constants(value, key, got) -> Constants:
    return Constants(**_read(value, _CONSTANTS, key, None))


def _level(value, key, got) -> dict:
    return _read(value, (("label", _label), ("model", _model)), "level", None)


def _nonempty(item, what: str):
    """A nonempty list, each entry read by item; an entry's error names its index."""
    def read(value, key, got) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key!r} must be a nonempty list of {what}")
        entries = []
        for i, entry in enumerate(value):
            try:
                entries.append(item(entry, key, got))
            except ConfigError as err:
                raise ConfigError(f"{key}[{i}]: {err}") from None
        return entries
    return read


_CLASS = {"linear": (("kind", _given), ("dim", _count(1))),
          "finite": (("kind", _given), ("tables", _given))}
_CONSTANTS = tuple((f.name, _number, f.default) for f in fields(Constants))
_BOUND = (("p", _p, None), ("q", _q, 1.0), ("constants", _constants, {}))

_KEYS = {
    "simulate": (("model", _model), ("n", _count(1)), ("seed", _seed),
                 ("kwise", _optional(_divisor), None)),
    "bound": (("model", _model), ("class", _class), *_BOUND, ("n", _count(1)),
              ("delta", _fraction), ("k", _optional(_count(1)), None),
              ("resolution", _count(1), 64), ("seed", _seed, 0)),
    "certify": (("model", _model), ("class", _class),
                ("method", _method, "auto"), ("p", _p, 2.0),
                ("directions", _count(1), 10_000), ("m_max", _count(1), 200),
                ("seed", _seed, 0)),
    "sweep": (("levels", _nonempty(_level, "{label, model}")),
              ("n_grid", _nonempty(_integer, "integers")), *_BOUND, ("class", _class),
              ("replicates", _count(1)), ("seed", _seed), ("delta", _fraction, 0.05),
              ("block_rule", _given, "kmix"), ("plot", _flag, False)),
    "coverage": {
        "blockedBernstein": (("kind", _given), ("model", _chain), ("n", _count(1)),
                             ("values", _values), ("k", _divisor), ("delta", _fraction),
                             ("replicates", _count(1)), ("seed", _seed)),
        "riskBound": (("kind", _given), *_BOUND, ("delta", _risk_delta), ("model", _model),
                      ("class", _class), ("n", _count(1)),
                      ("calibration_replicates", _count(1)),
                      ("validation_replicates", _count(1)), ("seed", _seed))},
    "diagnose": (*_BOUND, ("epsilon", _epsilon), ("model", _model), ("class", _class),
                 ("n", _count(1)), ("replicates", _count(2)), ("delta", _fraction),
                 ("seed", _seed), ("rho_grid", _count(2), 64)),
}
COMMANDS = tuple(_KEYS)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config parse error at line {err.lineno} column "
                          f"{err.colno}: {err.msg}")


def _check_out(out_dir: str) -> None:
    """Refuse an --out that is not a directory and cannot become one: it, or
    its nearest existing ancestor, is something else. Creates nothing."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out_dir}: {path} is not a directory")


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _cmd_simulate(c: dict, out: str) -> list:
    traj = (processgen.sample_trajectory(c["model"], c["n"], c["seed"]) if c["kwise"] is None
            else processgen.kwise_independent_surrogate(c["model"], c["n"], c["kwise"], c["seed"]))
    path = _out_path(out, "trajectory.csv")
    processgen.trajectory_to_csv(traj, path)
    return [path]


def _cmd_bound(c: dict, out: str) -> list:
    report = bounds.compute_bound_report(
        c["model"], c["class"], c["n"], c["delta"], q=c["q"], p=c["p"], k=c["k"],
        constants=c["constants"], resolution=c["resolution"], seed=c["seed"])
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


def _cmd_certify(c: dict, out: str) -> list:
    cert = bounds.certify_weak_subgaussian(
        c["class"], c["model"], p=c["p"], method=c["method"],
        directions=c["directions"], m_max=c["m_max"], seed=c["seed"])
    payload = asdict(cert)
    payload["p"] = "inf" if cert.p == INF else cert.p
    path = _out_path(out, "certificate.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return [path]


def _cmd_sweep(c: dict, out: str) -> list:
    config = _document(lambda fields: harness.SweepConfig(**fields), dict(
        problems=tuple(level["model"] for level in c["levels"]),
        labels=tuple(level["label"] for level in c["levels"]),
        hypothesis=c["class"], n_grid=tuple(c["n_grid"]), replicates=c["replicates"],
        master_seed=c["seed"], delta=c["delta"], q=c["q"], p=c["p"],
        constants=c["constants"], block_rule=c["block_rule"]), "sweep config")
    result = harness.run_sweep(config)
    csv_path = _out_path(out, "sweep.csv")
    harness.sweep_to_csv(result, csv_path)
    summary_path = _out_path(out, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(harness.sweep_summary(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = [csv_path, summary_path]
    if c["plot"]:
        svg_path = _out_path(out, "sweep.svg")
        harness.svg_loglog(svg_path, config.n_grid,
                           {lab: result.medians(li)
                            for li, lab in enumerate(config.labels)})
        written.append(svg_path)
    return written


def _cmd_coverage(c: dict, out: str) -> list:
    if c["kind"] == "blockedBernstein":
        report = harness.blocked_bernstein_coverage(
            c["model"], c["values"], c["n"], c["k"], c["delta"], c["replicates"], c["seed"])
    else:
        report = harness.risk_bound_coverage(
            c["model"], c["class"], c["n"], c["delta"], c["calibration_replicates"],
            c["validation_replicates"], c["seed"], q=c["q"], p=c["p"],
            constants=c["constants"])
    csv_path = _out_path(out, "coverage.csv")
    report.to_csv(csv_path)
    json_path = _out_path(out, "coverage.json")
    with open(json_path, "w") as fh:
        json.dump({name: getattr(report, name) for name in (
            "kind", "replicates", "delta", "frequency", "std_error", "threshold", "c2")},
            fh, indent=2)
        fh.write("\n")
    return [csv_path, json_path]


def _cmd_diagnose(c: dict, out: str) -> list:
    report = harness.process_diagnostics(
        c["model"], c["class"], c["n"], c["replicates"], c["epsilon"], c["delta"],
        c["seed"], q=c["q"], p=c["p"], constants=c["constants"], rho_grid=c["rho_grid"])
    path = _out_path(out, "diagnostics.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    return [path]


_HANDLERS = {"simulate": _cmd_simulate, "bound": _cmd_bound, "certify": _cmd_certify,
             "sweep": _cmd_sweep, "coverage": _cmd_coverage, "diagnose": _cmd_diagnose}


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
        cfg = _read(_load_config(args.config), _KEYS[args.command],
                    f"{args.command} config", args.seed)
        _check_out(args.out)
        written = _HANDLERS[args.command](cfg, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"path error: cannot write {err.filename or args.out}: "
              f"{err.strerror or err}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, KeyError, TypeError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("numeric failure: out of memory", file=sys.stderr)
        return 2
    if not args.quiet:
        for path in written:
            print(path)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
