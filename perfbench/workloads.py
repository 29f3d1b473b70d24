"""The benchmark's three workloads, as lists of ``mixfree`` CLI invocations.

Models are built here with plain numpy so the inputs do not depend on the
code under test. Every config carries its acceptance seed; a run started with
an explicit seed passes that seed to every invocation as ``--seed`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DELTA = 0.05


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``mixfree <command> --config <name>.json``."""

    name: str
    command: str
    config: dict
    state_steps: int = 0      # replicate-steps the command samples
    bound_reports: int = 0    # compute_bound_report calls it makes


def _two_state(flip: float) -> np.ndarray:
    return np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])


def _product(P: np.ndarray, copies: int) -> np.ndarray:
    out = P
    for _ in range(copies - 1):
        out = np.kron(out, P)
    return out


def _product_embedding(copies: int) -> np.ndarray:
    """State -> (+/-1 per copy), mixed radix with coordinate 0 most significant."""
    n = 2 ** copies
    return np.array([[1.0 if (s >> (copies - 1 - j)) & 1 else -1.0
                      for j in range(copies)] for s in range(n)])


def _noise(n_states: int, sigma: float = 0.5) -> dict:
    return {"kind": "martingale-difference",
            "values": [[-sigma, sigma]] * n_states,
            "probs": [[0.5, 0.5]] * n_states, "bound": sigma}


def product_model(copies: int, flip: float, beta) -> dict:
    """Linear model on `copies` independent two-state chains with flip rate
    `flip` (dependence |1 - 2 flip|) and +/-1 coordinates."""
    P = _product(_two_state(flip), copies)
    return {"transition": P.tolist(),
            "embedding": _product_embedding(copies).tolist(),
            "mode": "linear", "true_param": list(beta),
            "noise": _noise(P.shape[0])}


def tabular_model(P: np.ndarray, true_table) -> dict:
    return {"transition": np.asarray(P).tolist(), "mode": "tabular",
            "embedding": np.eye(len(true_table)).tolist(),
            "true_table": list(true_table), "noise": _noise(len(true_table))}


def _linear(d: int) -> dict:
    return {"kind": "linear", "dim": d}


IID2 = product_model(2, 0.5, [1.0, -0.5])       # beta = 0
DEP09 = product_model(2, 0.05, [1.0, -0.5])     # |lambda_2| = 0.9
DEP099 = product_model(2, 0.005, [1.0, -0.5])   # |lambda_2| = 0.99
PROD5 = product_model(5, 0.25, [1.0, -0.5, 0.25, 0.75, -1.0])


def sweep_long() -> list:
    # Criterion 8's shape cut to 2^12..2^16: from 2^17 on, two pool threads
    # holding full 65536-step chunk buffers at once made peak RSS vary by 25%.
    n_grid = [2 ** i for i in range(12, 17)]
    reps = 64
    sweep = {"levels": [{"label": "iid", "model": IID2},
                        {"label": "dep0.9", "model": DEP09}],
             "class": _linear(2), "n_grid": n_grid, "replicates": reps,
             "seed": 82}
    n_path = 2 ** 17
    return [Op("sweep", "sweep", sweep, state_steps=2 * reps * sum(n_grid),
               bound_reports=2 * len(n_grid)),
            Op("simulate", "simulate", {"model": DEP09, "n": n_path, "seed": 82},
               state_steps=n_path)]


def short_paths() -> list:
    ops = []
    # 5000 replicates, not criterion 4's 10^4: a pass of 4 s instead of 7 s
    # gives each run more passes to take the median over.
    for k in (8, 64):
        cfg = {"kind": "blockedBernstein",
               "model": {"transition": _two_state(0.25).tolist()},
               "values": [-1.0, 1.0], "n": 1024, "k": k, "delta": DELTA,
               "replicates": 5000, "seed": 44}
        ops.append(Op(f"coverage-bb-k{k}", "coverage", cfg,
                      state_steps=5000 * 1024))
    risk = {"kind": "riskBound",
            "model": product_model(3, 0.25, [1.0, -0.5, 0.25]),
            "class": _linear(3), "n": 2048, "delta": 0.0125,
            "calibration_replicates": 500, "validation_replicates": 2000,
            "seed": 93}
    ops.append(Op("coverage-risk", "coverage", risk,
                  state_steps=2500 * 2048, bound_reports=1))
    true_table = np.array([0.5, -0.25, 1.0, 0.0])
    P = np.tile([0.4, 0.3, 0.2, 0.1], (4, 1))
    rng = np.random.default_rng(104)
    tables = np.vstack([true_table, true_table + 0.6 * rng.normal(size=(15, 4))])
    diag = {"model": tabular_model(P, true_table),
            "class": {"kind": "finite", "tables": tables.tolist()},
            "n": 8192, "replicates": 500, "epsilon": 0.5, "delta": DELTA,
            "seed": 105}
    ops.append(Op("diagnose", "diagnose", diag, state_steps=500 * 8192,
                  bound_reports=1))
    # q = 2 sends the noise level through seeded Monte Carlo (4000 paths)
    bound = {"model": DEP09, "class": _linear(2), "n": 256, "delta": DELTA,
             "q": 2.0, "seed": 0}
    ops.append(Op("bound-q2", "bound", bound, state_steps=4000 * 256,
                  bound_reports=1))
    return ops


def bound_grid() -> list:
    ops = []
    chains = (("dep0.9", DEP09, 2), ("dep0.99", DEP099, 2), ("prod5", PROD5, 5))
    for label, model, d in chains:
        for e in range(10, 21, 2):
            cfg = {"model": model, "class": _linear(d), "n": 2 ** e,
                   "delta": DELTA, "seed": 0}
            ops.append(Op(f"bound-{label}-n{2 ** e}", "bound", cfg,
                          bound_reports=1))
    # |lambda_2| = 0.999: k_mix = 3770 at n = 2^14, inside the 4096-lag horizon
    slow = {"model": {"transition": _two_state(0.0005).tolist(),
                      "embedding": [[-1.0], [1.0]], "mode": "linear",
                      "true_param": [1.0], "noise": _noise(2)},
            "class": _linear(1), "n": 2 ** 14, "delta": DELTA, "seed": 0}
    ops.append(Op("bound-lambda0.999-n16384", "bound", slow, bound_reports=1))
    rng = np.random.default_rng(7)
    true_table = rng.normal(size=16)
    tables = np.vstack([true_table, true_table + 0.5 * rng.normal(size=(63, 16))])
    finite = {"model": tabular_model(_product(_two_state(0.25), 4), true_table),
              "class": {"kind": "finite", "tables": tables.tolist()},
              "delta": DELTA, "seed": 0}
    for n in (2 ** 10, 2 ** 14, 2 ** 18):
        ops.append(Op(f"bound-finite64-n{n}", "bound", dict(finite, n=n),
                      bound_reports=1))
    cert = {"model": PROD5, "class": _linear(5), "p": 2.0,
            "directions": 10_000, "seed": 0}
    ops.append(Op("certify-prod5", "certify", cert))
    return ops


WORKLOADS = {"sweep-long": sweep_long, "short-paths": short_paths,
             "bound-grid": bound_grid}
