"""The benchmark's workloads: seeded inputs, CLI pipelines and their checks.

A job is one generated input taken through a fixed pipeline of ``wickops``
subcommands, as a user scripting the CLI would run it.  The seed changes
coefficients only, never exponent patterns, dimensions or sizes, so every
seed asks for the same work.  Every CLI option a pipeline relies on is
passed explicitly, so a change of CLI defaults does not change the work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import harness

# Distinct inputs generated per run; a run cycles through them.
POOL_SIZE = 64


@dataclass
class Step:
    """One CLI call.  ``result_to`` names a file that receives the report's
    ``result`` object, the input of a later step (glue, outside the clock)."""

    argv: list
    output: Path
    result_to: Path | None = None


@dataclass
class Job:
    steps: list
    check: Callable[[], list]


@dataclass
class Workload:
    name: str
    params: dict
    sizes: dict
    make_job: Callable[[np.random.Generator, Path, int], Job]
    # a kernel of the same kind of work, to rescale job times by host speed
    calibration: harness.Calibration

    def make_jobs(self, seed: int, work: Path) -> list:
        rng = np.random.default_rng(seed)
        return [self.make_job(rng, work, i) for i in range(POOL_SIZE)]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _read(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _symbol_json(d: int, kind: str, terms: dict) -> dict:
    return {"dimension": d, "kind": kind,
            "terms": [{"alpha": list(a), "beta": list(b), "value": [c.real, c.imag]}
                      for (a, b), c in terms.items()]}


def _expansion_json(d: int, coeffs: dict) -> dict:
    return {"dimension": d, "side": "hermite",
            "coeffs": [{"index": list(a), "value": [c.real, c.imag]} for a, c in coeffs.items()]}


def _dim(d: int, degree: int) -> int:
    return math.comb(degree + d, d)


def _cplx(rng, scale=1.0) -> complex:
    re, im = rng.normal(scale=scale, size=2)
    return complex(re, im)


# ---------------------------------------------------------------------------
# fock-spectral: per-point symbol evaluation on grids
# ---------------------------------------------------------------------------

FOCK = {
    "d": 1,
    # a Hermitian symbol: one real |w|^4 term, conjugate pairs, a positive constant
    "diagonal_terms": [((2,), (2,))],
    "conjugate_pairs": [((2,), (1,))],
    "truncations": [8, 16, 32],
    "gs": {"s": 0.5, "r": 1.0, "direction": "loss", "radius": 4.0, "points": 5},
    "shubin": {"t": 2.0, "rho": 1.0, "max_order": 1, "n_decay": 1, "radius": 4.0, "points": 3},
}


def _fock_symbol(rng) -> dict:
    terms = {((0,), (0,)): complex(rng.uniform(1.0, 3.0))}
    for key in FOCK["diagonal_terms"]:
        terms[key] = complex(rng.uniform(1.0, 2.0))
    for alpha, beta in FOCK["conjugate_pairs"]:
        c = _cplx(rng, 0.5)
        terms[(alpha, beta)] = c
        terms[(beta, alpha)] = c.conjugate()
    return terms


def fock_spectral_job(rng, work: Path, i: int) -> Job:
    terms = _fock_symbol(rng)
    symbol = _write(work / f"{i}-symbol.json", _symbol_json(1, "wick", terms))
    garding, gs, shubin = (work / f"{i}-{stem}.json" for stem in ("garding", "gs", "shubin"))
    p, q, t = FOCK["gs"], FOCK["shubin"], FOCK["truncations"]
    steps = [
        Step(["garding", "--input", symbol, "--output", str(garding),
              "--truncations", ",".join(map(str, t))], garding),
        Step(["bound-check", "--input", symbol, "--output", str(gs), "--mode", "gs",
              "--s", str(p["s"]), "--r", str(p["r"]), "--direction", p["direction"],
              "--grid-radius", str(p["radius"]), "--grid-points", str(p["points"])], gs),
        Step(["bound-check", "--input", symbol, "--output", str(shubin), "--mode", "shubin",
              "--weight-t", str(q["t"]), "--rho", str(q["rho"]),
              "--max-order", str(q["max_order"]), "--n-decay", str(q["n_decay"]),
              "--grid-radius", str(q["radius"]), "--grid-points", str(q["points"])], shubin),
    ]

    def check():
        return (checks.check_garding(_read(garding), terms, t)
                + checks.check_bound_gs(_read(gs), terms, 1, p["s"], p["r"],
                                        p["radius"], p["points"])
                + checks.check_bound_shubin(_read(shubin), terms, 1, q["t"], q["rho"],
                                            q["max_order"], q["n_decay"],
                                            q["radius"], q["points"]))
    return Job(steps, check)


def _fock_sizes() -> dict:
    z_degree = max(sum(a) for a, _ in FOCK["diagonal_terms"] + FOCK["conjugate_pairs"])
    derivs = _dim(2, FOCK["shubin"]["max_order"]) * (FOCK["shubin"]["n_decay"] + 1)
    pairs_gs = FOCK["gs"]["points"] ** 4
    pairs_shubin = FOCK["shubin"]["points"] ** 4
    return {
        "symbol_terms": 1 + len(FOCK["diagonal_terms"]) + 2 * len(FOCK["conjugate_pairs"]),
        "basis_dim": [n + 1 for n in FOCK["truncations"]],
        "wick_matrix_shape": [[n + 1 + z_degree, n + 1] for n in FOCK["truncations"]],
        "eigen_solve_dim": [n + 1 for n in FOCK["truncations"]],
        "diag_grid_points": 33 * 64,
        "gs_grid_pairs": pairs_gs,
        "shubin_grid_pairs": pairs_shubin,
        "symbol_evaluations": 33 * 64 + pairs_gs + pairs_shubin * derivs,
    }


# ---------------------------------------------------------------------------
# real-quantize: real-side matrices, the Weyl -> Wick conversion, dict ladder
# algebra and report emission
# ---------------------------------------------------------------------------

REAL = {
    "d": 2,
    # x0^2 xi0, x1 xi1^2, x0 x1 xi1, x0 xi0 xi1
    "monomials": [((2, 0), (1, 0)), ((0, 1), (0, 2)), ((1, 1), (0, 1)), ((1, 0), (1, 1))],
    "weyl_degree": 6,
    "wick_degree": 10,
    "expand_order": 2,
}


def real_quantize_job(rng, work: Path, i: int) -> Job:
    d = REAL["d"]
    terms = {m: complex(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
             for m in REAL["monomials"]}
    degree = max(sum(a) + sum(b) for a, b in terms)
    n_w, n_k, order = REAL["weyl_degree"], REAL["wick_degree"], REAL["expand_order"]
    symbol = _write(work / f"{i}-weyl.json", _symbol_json(d, "weyl", terms))
    weyl, to_wick, wick_in, wick, expand = (
        work / f"{i}-{stem}" for stem in ("weyl.csv", "to-wick.json", "wick-symbol.json",
                                          "wick-matrix.json", "expand.json"))
    steps = [
        Step(["weyl-matrix", "--input", symbol, "--output", str(weyl),
              "--degree", str(n_w), "--format", "csv"], weyl),
        Step(["to-wick", "--input", symbol, "--output", str(to_wick),
              "--degree", str(degree)], to_wick, result_to=wick_in),
        Step(["wick-matrix", "--input", str(wick_in), "--output", str(wick),
              "--degree", str(n_k), "--format", "json"], wick),
        Step(["expand-antiwick", "--input", str(wick_in), "--output", str(expand),
              "--order", str(order)], expand),
    ]

    def check():
        M = checks.read_matrix_csv(weyl)
        a = _read(wick_in)
        return (checks.check_weyl_matrix(M, d, n_w, n_w + degree)
                + checks.check_to_wick(a, M, d, n_w, n_w + degree)
                + checks.check_wick_matrix(_read(wick), a, n_k)
                + checks.check_expand(_read(expand), d, order))
    return Job(steps, check)


def _real_sizes() -> dict:
    d = REAL["d"]
    deg = max(sum(a) + sum(b) for a, b in REAL["monomials"])
    n_w, n_k, order = REAL["weyl_degree"], REAL["wick_degree"], REAL["expand_order"]
    trunc = max(8, deg + 2)
    return {
        "symbol_terms": len(REAL["monomials"]),
        "symbol_degree": deg,
        "weyl_matrix_shape": [_dim(d, n_w + deg), _dim(d, n_w)],
        "to_wick_unknowns": _dim(2 * d, deg),
        "to_wick_lstsq_shape": [_dim(d, 2 * deg) * _dim(d, deg), _dim(2 * d, deg)],
        "wick_matrix_shape": [_dim(d, n_k + deg), _dim(d, n_k)],
        "expand_trunc_degree": trunc,
        "expand_terms": [_dim(d, order), _dim(d, order + 1) - _dim(d, order)],
    }


# ---------------------------------------------------------------------------
# coeff-transform: sampling, Gauss-Hermite quadrature and per-call CLI cost
# ---------------------------------------------------------------------------

COEFF = {
    "d1_degree": 24,
    "s_range": [0.6, 1.2],
    "r_range": [0.4, 0.8],
    "cross_check": 8,
    "cross_check_quad_order": 60,
    "d3_degree": 4,
    "d3_analysis_degree": 6,
}


def coeff_transform_job(rng, work: Path, i: int) -> Job:
    n1, n3 = COEFF["d1_degree"], COEFF["d3_degree"]
    s = float(rng.uniform(*COEFF["s_range"]))
    r = float(rng.uniform(*COEFF["r_range"]))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n1 + 1)
    c1 = {(k,): complex(np.exp(-r * k ** (1.0 / (2.0 * s))) * np.exp(1j * phases[k]))
          for k in range(n1 + 1)}
    c3 = {a: _cplx(rng) for a in checks.graded_basis(3, n3)}
    in1 = _write(work / f"{i}-d1.json", _expansion_json(1, c1))
    in3 = _write(work / f"{i}-d3.json", _expansion_json(3, c3))
    coeffs1, fock, fit, coeffs3, recovered = (
        work / f"{i}-{stem}.json" for stem in ("coeffs-d1", "bargmann", "classify",
                                               "coeffs-d3", "recovered"))
    steps = [
        Step(["hermite-coeffs", "--input", in1, "--output", str(coeffs1),
              "--degree", str(n1), "--quad-order", str(n1 + 20)], coeffs1, result_to=recovered),
        Step(["bargmann", "--input", str(recovered), "--output", str(fock),
              "--cross-check", str(COEFF["cross_check"]),
              "--quad-order", str(COEFF["cross_check_quad_order"]), "--seed", "0"], fock),
        Step(["classify", "--input", str(recovered), "--output", str(fit),
              "--family", "roumieu_s"], fit),
        Step(["hermite-coeffs", "--input", in3, "--output", str(coeffs3),
              "--degree", str(COEFF["d3_analysis_degree"]),
              "--quad-order", str(COEFF["d3_analysis_degree"] + 20)], coeffs3),
    ]

    def check():
        got1 = checks.expansion_coeffs(_read(recovered))
        return (checks.check_hermite_coeffs(_read(coeffs1), c1, 1, n1)
                + checks.check_bargmann(_read(fock), got1, COEFF["cross_check"])
                + checks.check_classify(_read(fit), "roumieu_s", s)
                + checks.check_hermite_coeffs(_read(coeffs3), c3, 3,
                                              COEFF["d3_analysis_degree"]))
    return Job(steps, check)


def _coeff_sizes() -> dict:
    n1, n3 = COEFF["d1_degree"], COEFF["d3_analysis_degree"]
    nodes = [n1 + 20, COEFF["cross_check"] * COEFF["cross_check_quad_order"], (n3 + 20) ** 3]
    return {
        "basis_dim": [_dim(1, n1), _dim(3, n3)],
        "quad_nodes": nodes,
        "quad_nodes_total": sum(nodes),
        "d3_input_terms": _dim(3, COEFF["d3_degree"]),
    }


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in [
        Workload("fock-spectral", FOCK, _fock_sizes(), fock_spectral_job, harness.POINTWISE),
        Workload("real-quantize", REAL, _real_sizes(), real_quantize_job, harness.POINTWISE),
        Workload("coeff-transform", COEFF, _coeff_sizes(), coeff_transform_job, harness.ARRAY),
    ]
}
