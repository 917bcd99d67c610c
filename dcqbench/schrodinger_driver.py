"""Library driver for the `schrodinger` workload: dual time-stepping
through the postulate engine, as a library user writes it.

Reads a dual Hamiltonian H + eps V, a projector P and an initial state
from the benchmark's JSON input, then repeats `schrodinger_step`
followed by `measure` with the two-outcome measurement {P, I - P}.  The
walk continues from the evolved state; the measurement only reads its
dual probabilities.  Writes, per step, the sum of the outcome
probabilities and, at the end, each outcome's probability as
[sig, inf].

    python3 dcqbench/schrodinger_driver.py --in inputs.json --out result.json
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from dcquantum.linalg import DCMatrix
from dcquantum.quantum import Measurement, QuantumState, measure, schrodinger_step
from dcquantum.scalar import DualReal
from dcquantum.serialize import matrix_from_json, vector_from_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--in", dest="input", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.input) as f:
        data = json.load(f)
    h_eps = matrix_from_json(data["hamiltonian"])
    proj = matrix_from_json(data["projector"]).sig
    m = Measurement((DCMatrix(proj), DCMatrix(np.eye(proj.shape[0]) - proj)))
    state = QuantumState(vector_from_json(data["state"]))
    dt = float(data["dt"])

    sums = []
    for _ in range(int(data["steps"])):
        state = schrodinger_step(state, h_eps, dt)
        outcomes = measure(state, m)
        total = DualReal(0.0, 0.0)
        for o in outcomes:
            total = total + o.probability
        sums.append([total.sig, total.inf])
    result = {
        "sum_p": sums,
        "final_p": [[o.probability.sig, o.probability.inf] for o in outcomes],
    }
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
