"""Output checks for every benchmark operation.

``facts`` reads an operation's artifacts into a small JSON-ready dict.
``check`` tests invariants that hold for every seed (row counts, ranges,
internal consistency) and, when a reference recorded at the acceptance seeds
is given, compares the facts with it:

- sampled values bit for bit (as SHA-256 digests of their exact reprs);
- integer bound columns exactly;
- bound-calculus floats to 1e-6 relative, which admits closed forms that move
  r* by ~1e-7 relative and still rejects a real error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-6
# Fact keys holding bound-calculus floats; every other key compares exactly.
CALCULUS_KEYS = {"rStar", "riskBound", "r_star", "risk_bound", "weak_variance",
                 "L", "upper_estimate", "terms_total", "bound", "c2",
                 "multiplier_constant"}


class CheckError(Exception):
    """An operation's output failed a check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sha(strings) -> str:
    h = hashlib.sha256()
    for s in strings:
        h.update(s.encode())
        h.update(b"\n")
    return h.hexdigest()


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dir_digest(out_dir) -> str:
    """One digest over every artifact in an operation's output directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        h.update(file_digest(os.path.join(out_dir, name)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# per-command facts and invariants
# ---------------------------------------------------------------------------

def _sweep(cfg: dict, out: str) -> dict:
    rows = _rows(os.path.join(out, "sweep.csv"))
    labels = [lv["label"] for lv in cfg["levels"]]
    grid, reps = cfg["n_grid"], cfg["replicates"]
    _require(len(rows) == len(labels) * len(grid) * reps,
             f"sweep.csv has {len(rows)} rows, expected "
             f"{len(labels) * len(grid) * reps}")
    expect = [(lab, n, r) for lab in labels for n in grid for r in range(reps)]
    cells = {}
    for row, (lab, n, r) in zip(rows, expect):
        _require((row["mixingLevel"], int(row["nGrid"]), int(row["replicate"]))
                 == (lab, n, r), f"sweep.csv row out of order: {row}")
        excess = float(row["excessRisk"])
        _require(math.isfinite(excess) and excess >= 0,
                 f"negative or non-finite excess risk {excess}")
        cell = {"k": int(row["k"]), "nQuad": int(row["nQuad"]),
                "nMult": int(row["nMult"]), "kMix": int(row["kMix"]),
                "rStar": float(row["rStar"]), "riskBound": float(row["riskBound"])}
        key = f"{lab}/{n}"
        _require(cells.setdefault(key, cell) == cell,
                 f"bound columns vary within cell {key}")
    for key, cell in cells.items():
        _require(min(cell["k"], cell["nQuad"], cell["nMult"], cell["kMix"]) >= 1,
                 f"nonpositive integer bound column in cell {key}")
        _require(0 < cell["rStar"] <= 1, f"rStar outside (0, 1] in cell {key}")
        _require(cell["riskBound"] >= cell["rStar"] ** 2 * (1 - 1e-12),
                 f"riskBound below rStar^2 in cell {key}")
    summary = _load(os.path.join(out, "summary.json"))
    _require(len(summary["levels"]) == len(labels)
             and all(len(lv["medians"]) == len(grid) for lv in summary["levels"]),
             "summary.json does not cover every cell")
    return {"rows": len(rows),
            "excessRisk_sha256": _sha(r["excessRisk"] for r in rows),
            "cells": cells}


def _simulate(cfg: dict, out: str) -> dict:
    path = os.path.join(out, "trajectory.csv")
    model = cfg["model"]
    emb, beta = model["embedding"], model["true_param"]
    noise = model["noise"]
    d = len(beta)
    n_rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        _require(header == ["t", "state"] + [f"x_{j + 1}" for j in range(d)]
                 + ["y"], f"trajectory.csv header {header}")
        for n_rows, row in enumerate(reader, 1):
            s = int(row[1])
            _require(int(row[0]) == n_rows and 0 <= s < len(emb),
                     f"trajectory.csv row {n_rows}: bad index or state")
            x = [float(v) for v in row[2:2 + d]]
            _require(x == emb[s], f"trajectory.csv row {n_rows}: covariates "
                                  f"differ from the embedding of state {s}")
            w = float(row[-1]) - sum(b * xi for b, xi in zip(beta, x))
            _require(any(abs(w - v) <= 1e-12 for v, p in
                         zip(noise["values"][s], noise["probs"][s]) if p > 0),
                     f"trajectory.csv row {n_rows}: noise {w} off the support")
    _require(n_rows == cfg["n"], f"trajectory.csv has {n_rows} rows, "
                                 f"expected {cfg['n']}")
    return {"rows": n_rows, "sha256": file_digest(path)}


def _coverage(cfg: dict, out: str) -> dict:
    rows = _rows(os.path.join(out, "coverage.csv"))
    report = _load(os.path.join(out, "coverage.json"))
    blocked = cfg["kind"] == "blockedBernstein"
    expect = cfg["replicates"] if blocked else cfg["validation_replicates"]
    _require(len(rows) == expect == report["replicates"],
             f"coverage.csv has {len(rows)} rows, expected {expect}")
    bounds = {row["bound"] for row in rows}
    _require(len(bounds) == 1, "coverage bound varies across trials")
    bound = float(bounds.pop())
    _require(math.isfinite(bound) and bound > 0, f"coverage bound {bound}")
    exceeded = 0
    for t, row in enumerate(rows):
        m = float(row["blockedMean"])
        _require(int(row["trial"]) == t and math.isfinite(m),
                 f"coverage.csv row {t}: bad index or value")
        _require(not blocked or abs(m) <= 1.0,
                 f"blocked mean {m} outside [-1, 1]")
        _require(not blocked or m * cfg["n"] == round(m * cfg["n"]),
                 f"blocked mean {m} is not a multiple of 1/n")
        _require(blocked or m >= 0, f"negative excess risk {m}")
        _require(int(row["exceeded"]) == int(m > bound),
                 f"coverage.csv row {t}: exceeded flag disagrees with values")
        exceeded += int(row["exceeded"])
    freq = report["frequency"]
    _require(0 <= freq <= 1 and freq == exceeded / len(rows),
             f"coverage frequency {freq} disagrees with the CSV")
    return {"rows": len(rows),
            "realized_sha256": _sha(r["blockedMean"] for r in rows),
            "bound": bound, "frequency": freq, "c2": report["c2"]}


def _diagnose(cfg: dict, out: str) -> dict:
    rep = _load(os.path.join(out, "diagnostics.json"))
    _require(rep["n"] == cfg["n"] and rep["replicates"] == cfg["replicates"],
             "diagnostics.json n or replicates differ from the config")
    for key in ("q_positive_fraction", "multiplier_coverage"):
        _require(0 <= rep[key] <= 1, f"{key} = {rep[key]} outside [0, 1]")
    _require(0 < rep["r_star"] <= 1, f"r_star = {rep['r_star']}")
    _require(0 <= rep["members_outside"], "negative member count")
    return {k: rep[k] for k in ("q_positive_fraction", "multiplier_coverage",
                                "members_outside", "n_quad", "r_star",
                                "multiplier_constant")}


def _bound(cfg: dict, out: str) -> dict:
    rep = _load(os.path.join(out, "bound_report.json"))
    terms = {r["term"]: float(r["value"])
             for r in _rows(os.path.join(out, "bound_terms.csv"))}
    _require(rep["n"] == cfg["n"], "bound_report.json n differs from the config")
    _require(min(rep["k"], rep["n_quad"], rep["n_mult"], rep["k_mix"]) >= 1,
             "nonpositive integer bound quantity")
    _require(0 < rep["r_star"] <= 1, f"r_star = {rep['r_star']}")
    _require(rep["risk_bound"] >= rep["r_star"] ** 2 * (1 - 1e-12),
             "risk_bound below r_star^2")
    _require(rep["L"] >= 1 and rep["weak_variance"] > 0,
             "certificate constant below 1 or nonpositive noise level")
    total = terms.pop("total")
    _require(abs(total - sum(terms.values())) <= 1e-12 * abs(total),
             "bound_terms.csv total is not the sum of its terms")
    facts = {k: rep[k] for k in ("k", "n_quad", "n_mult", "k_mix", "r_star",
                                 "risk_bound", "weak_variance", "L")}
    facts["terms_total"] = total
    return facts


def _certify(cfg: dict, out: str) -> dict:
    cert = _load(os.path.join(out, "certificate.json"))
    d = cfg["class"]["dim"]
    _require(cert["method"] == "linear-exact" and cert["L"] >= 1,
             f"certificate {cert}")
    _require(cert["n_witness"] == cfg["directions"] + d + 3 * 200,
             f"certificate n_witness {cert['n_witness']}")
    _require(cert["upper_estimate"] >= cert["L"],
             "upper estimate below the certified constant")
    return {k: cert[k] for k in ("L", "n_witness", "upper_estimate")}


FACTS = {"sweep": _sweep, "simulate": _simulate, "coverage": _coverage,
         "diagnose": _diagnose, "bound": _bound, "certify": _certify}


def _compare(got, ref, where: str) -> None:
    if isinstance(ref, dict):
        _require(isinstance(got, dict) and set(got) == set(ref),
                 f"{where}: keys {sorted(got)} differ from the reference")
        for key in ref:
            sub = f"{where}.{key}"
            if key in CALCULUS_KEYS and ref[key] is not None:
                _require(abs(got[key] - ref[key]) <= REL_TOL * abs(ref[key]),
                         f"{sub} = {got[key]!r}, reference {ref[key]!r} "
                         f"(rel tol {REL_TOL})")
            else:
                _compare(got[key], ref[key], sub)
    else:
        _require(got == ref, f"{where} = {got!r}, reference {ref!r}")


def check(op, out: str, reference: dict | None = None) -> dict:
    """Check one operation's artifacts; returns its facts or raises CheckError."""
    facts = FACTS[op.command](op.config, out)
    if reference is not None:
        _compare(facts, reference, op.name)
    return facts
