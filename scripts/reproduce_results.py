#!/usr/bin/env python3
"""Regenerate the headline numbers and figure data as CSV files.

Writes into results/ (created if missing):
  table1.csv                detection window p_max per alpha
  fig_rho_t_negative.csv    trace-norm vs bound, t in [-0.79, -0.6]
  fig_rho_t_positive.csv    trace-norm vs bound, t in [0.10, 0.79]
  fig_rho_a.csv             trace-norm vs bound over the NPT qutrit family
  fig_isotropic.csv         trace-norm vs bound over the isotropic family
  comparison_q1_q2.csv      Q1/Q2 scores for the bound entangled family
  boundaries.csv            bisected detection boundaries and references

Run from the repository root:  python3 scripts/reproduce_results.py
"""

import gc
import math
import os
import sys

import numpy as np

from spar import (
    Verdict,
    alpha_state,
    isotropic,
    q1_realignment_moments,
    q2_rmoment,
    realign,
    rho_t,
    rho_t_reference_thresholds,
    spa_r_verdict,
    spa_threshold,
)
from spar.sweeps import bisect_boundary, csv_text, family_state, sweep_csv, table1_rows

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


def write_text(name, text, n_rows):
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path} ({n_rows} rows)")


def write_csv(name, rows, columns):
    write_text(name, csv_text(rows, columns), len(rows))


def sweep_to_csv(name, family, params, ps):
    states = ((param, family_state(family, param)) for param in params)
    write_text(name, sweep_csv(states, ps), len(params) * len(ps))


def main():
    os.makedirs(OUT_DIR, exist_ok=True)

    write_csv("table1.csv", table1_rows(), ["alpha", "p_max"])

    ps = np.linspace(0.0, 1.0, 21)
    sweep_to_csv("fig_rho_t_negative.csv", "rho_t", np.linspace(-0.79, -0.60, 20), ps)
    sweep_to_csv("fig_rho_t_positive.csv", "rho_t", np.linspace(0.10, 0.79, 24), ps)
    sweep_to_csv("fig_rho_a.csv", "rho_a", np.linspace(1 / math.sqrt(2) + 1e-6, 1.0, 20), ps)
    sweep_to_csv("fig_isotropic.csv", "isotropic", np.linspace(0.0, 1.0, 26), ps)

    # each state built, validated and realigned once for both scores
    alpha_rs = [(a, realign(alpha_state(a))) for a in np.arange(0.05, 0.951, 0.05)]
    comparison = [
        {"alpha": a, "q1": q1_realignment_moments(r), "q2": q2_rmoment(r)} for a, r in alpha_rs
    ]
    write_csv("comparison_q1_q2.csv", comparison, ["alpha", "q1", "q2"])

    def detected(rho, p=0.0):
        return spa_r_verdict(rho, p) == Verdict.ENTANGLED

    ref = rho_t_reference_thresholds(-0.7)
    r_edge = realign(rho_t(-0.7))  # built, validated and realigned once for its p-edge
    boundaries = [
        {
            "quantity": "rho_t onset at p=0",
            "value": bisect_boundary(lambda t: detected(rho_t(t)), 0.10, 0.15, tol=1e-8),
            "reference": 1 - 5 * math.sqrt(2) / 8,
        },
        {
            "quantity": "rho_t upper p edge at t=-0.7",
            "value": bisect_boundary(lambda p: detected(r_edge, p), 0.5, 0.9, tol=1e-8),
            "reference": ref.p2,
        },
        {
            "quantity": "isotropic boundary at p=0",
            "value": bisect_boundary(lambda b: detected(isotropic(b)), 0.2, 0.45, tol=1e-8),
            "reference": 0.25,
        },
        {
            "quantity": "q1 onset for rho_t",
            "value": bisect_boundary(lambda t: q1_realignment_moments(rho_t(t)) > 0, 0.3, 0.45, tol=1e-8),
            "reference": 0.370992,
        },
        {
            "quantity": "spa threshold l at t=-0.7",
            "value": spa_threshold(rho_t(-0.7)).l,
            "reference": None,
        },
    ]
    write_csv("boundaries.csv", boundaries, ["quantity", "value", "reference"])
    return 0


if __name__ == "__main__":
    # the one gc call: the process ends here, so exit need not walk the imports' objects
    gc.freeze()
    sys.exit(main())
