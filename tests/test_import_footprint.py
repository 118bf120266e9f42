"""scipy's solvers load only on the routes that call them.

The test process has scipy loaded already, so every check runs in a child
interpreter that imports the package from ``src`` and reports which of
scipy's solver modules are in ``sys.modules`` after each step.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import json
import sys

SOLVERS = ("scipy.optimize", "scipy.sparse", "scipy.sparse.csgraph")


def loaded():
    return [name for name in SOLVERS if name in sys.modules]


import orbitmetric.cli

steps = [("import orbitmetric.cli", loaded())]

import numpy as np

from orbitmetric import (
    BinaryShift, CircleRotation, Example31Config, LogisticMap, ProductSystem, Schedule,
    ShiftPoint, TentMap, besicovitch_estimate, delta_n, ebar_estimate, empirical_equicontinuity,
    empirical_measure, etilde_estimate, example31_report, min_cost_assignment, omega_distance,
    prokhorov, wasserstein1, weyl_profile)
from orbitmetric.measures import _transport_lp

logistic, rotation, shift = LogisticMap(3.99), CircleRotation(0.6180339887498949), BinaryShift(30)
pairs = {
    "line": (logistic, 0.1234, 0.4321),
    "circle": (rotation, 0.1, 0.45),
    "shift": (shift, ShiftPoint((0, 1, 1, 0, 1), (0, 1)), ShiftPoint((1, 1, 0), (1, 0, 0))),
}
schedule = Schedule.geometric(400)
grid = [k / 20 for k in range(1, 21)]


def measures(system, x, y):
    return (empirical_measure(system.orbit_segment(x, 120)),
            empirical_measure(system.orbit_segment(y, 90)), system)


closed_forms = [
    ("ebar_estimate line", lambda: ebar_estimate(*pairs["line"], schedule)),
    ("ebar_estimate circle", lambda: ebar_estimate(*pairs["circle"], schedule)),
    ("ebar_estimate shift", lambda: ebar_estimate(*pairs["shift"], schedule)),
    ("besicovitch_estimate", lambda: besicovitch_estimate(*pairs["circle"], schedule)),
    ("weyl_profile", lambda: weyl_profile(*pairs["line"], 400, [10, 50])),
    ("delta_n line", lambda: delta_n(*pairs["line"], 300, 0.05)),
    ("delta_n shift", lambda: delta_n(*pairs["shift"], 300, 0.05)),
    ("etilde_estimate line", lambda: etilde_estimate(*pairs["line"], schedule, grid)),
    ("etilde_estimate shift", lambda: etilde_estimate(*pairs["shift"], schedule, grid)),
]
for geometry in pairs:
    closed_forms += [
        (f"prokhorov {geometry}", lambda g=geometry: prokhorov(*measures(*pairs[g]))),
        (f"omega_distance {geometry}", lambda g=geometry: omega_distance(*pairs[g], schedule)),
    ]
closed_forms += [
    ("empirical_equicontinuity", lambda: empirical_equicontinuity(rotation, 0.01, 2, [40, 80], seed=5)),
    ("example31_report", lambda: example31_report(Example31Config(n_blocks=4))),
]

product = ProductSystem(CircleRotation(0.38197), TentMap())
solvers = {
    "min_cost_assignment": lambda: min_cost_assignment([[4, 1, 3], [2, 0, 5], [3, 2, 2]])[1],
    "wasserstein1": lambda: wasserstein1(
        *(empirical_measure(logistic.orbit_segment(x, 40)) for x in (0.1234, 0.4321)), logistic),
    "_transport_lp": lambda: _transport_lp(np.array([[0.5, 0.25], [0.125, 0.75]]),
                                           np.array([0.5, 0.5]), np.array([0.25, 0.75])),
    "prokhorov product": lambda: prokhorov(
        empirical_measure(product.orbit_segment((0.1, 0.2), 40)),
        empirical_measure(product.orbit_segment((0.55, 0.71), 30)), product),
}

route = sys.argv[1]
if route == "closed forms":
    for name, run in closed_forms:
        run()
        steps.append((name, loaded()))
    print(json.dumps({"steps": steps}))
else:
    print(json.dumps({"steps": steps, "value": solvers[route](), "loaded": loaded()}))
"""


def _child(route: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, route], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_routes_run_without_scipy_solvers():
    steps = _child("closed forms")["steps"]
    assert len(steps) == 18
    assert [(name, mods) for name, mods in steps if mods] == []


# values from before the solvers were imported on first call; the transport
# LP's optimum is exact (0.5 from row 0 to column 1, 0.25 from row 1 to each)
@pytest.mark.parametrize("route, value, modules", [
    ("min_cost_assignment", 5.0, {"scipy.optimize"}),
    ("wasserstein1", 0.1184060619780857, {"scipy.optimize"}),
    ("_transport_lp", 0.34375, {"scipy.optimize", "scipy.sparse"}),
    ("prokhorov product", 0.1600000023827306, {"scipy.sparse", "scipy.sparse.csgraph"}),
])
def test_each_solver_route_loads_its_scipy_module_on_first_call(route, value, modules):
    out = _child(route)
    assert out["steps"] == [["import orbitmetric.cli", []]]
    assert out["value"] == value
    assert modules <= set(out["loaded"])
