"""Built-in consistency battery: every solver against its independent oracle.

Runs in well under a minute and prints one PASS/FAIL line per check; the
exit status is the number of failures.  This is a smoke battery for
installations, not the full test suite.
"""
from __future__ import annotations

import numpy as np

from . import analysis, matching, measures, pseudometrics, systems


def _random_measure(rng: np.random.Generator, size: int) -> measures.DiscreteMeasure:
    return measures.DiscreteMeasure(rng.random(size), rng.dirichlet(np.ones(size)))


def _check_assignment(rng: np.random.Generator) -> str | None:
    for _ in range(20):
        n = int(rng.integers(2, 8))
        C = rng.random((n, n))
        _, fast = matching.min_cost_assignment(C)
        _, exact = matching.brute_force_assignment(C)
        if abs(fast - exact) > 1e-12:
            return f"assignment off by {abs(fast - exact):.2e} at n={n}"
    return None


def _check_matching_identity(rng: np.random.Generator) -> str | None:
    rot = systems.CircleRotation(alpha=0.6180339887)
    sh = systems.BinaryShift()
    prod = systems.ProductSystem(rot, systems.TentMap())
    cases = [(rot, float(rng.random()), float(rng.random()), (1, 7, 20)),
             (sh, analysis.sample_point(sh, rng), analysis.sample_point(sh, rng), (1, 7, 20)),
             # more atoms than the W1 LP seeds a side, so its pricing decides
             (prod, analysis.sample_point(prod, rng), analysis.sample_point(prod, rng), (60,))]
    for system, x, y, lengths in cases:
        for n in lengths:
            sx = system.orbit_segment(x, n)
            sy = system.orbit_segment(y, n)
            _, cost = matching.min_cost_assignment(systems.cost_matrix(sx, sy))
            w1 = measures.wasserstein1(measures.empirical_measure(sx),
                                       measures.empirical_measure(sy), system)
            if abs(n * w1 - cost) > 1e-9:
                return f"{system.kind} n={n}: |n*W1 - cost| = {abs(n * w1 - cost):.2e}"
    return None


def _check_fast_w1(rng: np.random.Generator) -> str | None:
    rot = systems.CircleRotation(alpha=0.3)
    dbl = systems.DoublingMap()
    for geom, system in (("circle", rot), ("line", dbl)):
        for _ in range(10):
            mu = _random_measure(rng, int(rng.integers(2, 20)))
            nu = _random_measure(rng, int(rng.integers(2, 20)))
            gap = abs(measures.wasserstein1(mu, nu, system)
                      - measures.wasserstein1_fast_1d(mu, nu, geom))
            if gap > 1e-9:
                return f"{geom} fast path off by {gap:.2e}"
    return None


def _check_closed_forms(rng: np.random.Generator) -> str | None:
    # every checkpoint of one ebar_estimate against the assignment on that
    # prefix of one cost matrix; short shift horizons too, where windows of
    # x and y often coincide
    cases = [(systems.BinaryShift(h), 0.0) for h in rng.integers(1, 31, 15).tolist()]
    cases += [(systems.CircleRotation(float(rng.random())), 1e-12) for _ in range(4)]
    cases += [(systems.LogisticMap(3.9), 1e-12), (systems.TentMap(), 1e-12)]
    for system, tol in cases:
        x, y = analysis.sample_point(system, rng), analysis.sample_point(system, rng)
        sched = measures.Schedule.geometric(int(rng.integers(1, 80)))
        C = systems.cost_matrix(*(system.orbit_segment(p, sched.max_n) for p in (x, y)))
        # the shift route is dyadic-exact (tol 0), so any difference is a bug
        for n, fast in pseudometrics.ebar_estimate(system, x, y, sched).rows():
            slow = matching.min_cost_assignment(C.entries[:n, :n])[1] / n
            if abs(fast - slow) > tol:
                return f"{system.kind} n={n}: closed form {fast!r} vs assignment {slow!r}"
    return None


def _check_prokhorov(rng: np.random.Generator) -> str | None:
    # one system per deficiency rule: line sweep, Dinic flow on the circle's
    # float weights, shift cylinder surplus; then scipy's integer flow on the
    # circle's counts
    routes = [(systems.DoublingMap(), lambda k: rng.random(k)),
              (systems.CircleRotation(alpha=0.3), lambda k: rng.random(k)),
              (systems.BinaryShift(3),
               lambda k: list(map(tuple, rng.integers(0, 2, (k, 3)).tolist())))]
    for system, atoms in routes:
        for _ in range(10):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            mu = measures.DiscreteMeasure(atoms(m), rng.dirichlet(np.ones(m)))
            nu = measures.DiscreteMeasure(atoms(n), rng.dirichlet(np.ones(n)))
            gap = abs(measures.prokhorov(mu, nu, system)
                      - measures.prokhorov_oracle(mu, nu, system))
            if gap > 1e-9:
                return f"{system.geometry} route vs subset oracle off by {gap:.2e}"
    # fixed orbit prefixes (no random draws), against the Dinic flow
    rot = systems.CircleRotation(alpha=0.6180339887)
    mu = measures.empirical_measure(rot.orbit_segment(0.1, 90))
    nu = measures.empirical_measure(rot.orbit_segment(0.1, 200))
    D = rot.pairwise_dist(mu.atoms, nu.atoms)
    dinic = measures._breakpoint_search(
        D, measures._flow_unsent(D, mu.weights, nu.weights, 1))
    gap = abs(measures.prokhorov(mu, nu, rot) - dinic)
    if gap > 1e-12:
        return f"counted circle flow vs Dinic off by {gap:.2e}"
    a, b = measures.DiscreteMeasure.dirac(0.1), measures.DiscreteMeasure.dirac(0.9)
    if measures.prokhorov(a, b, systems.DoublingMap()) != 0.8:
        return "dirac pair is not exact"
    return None


def _check_sandwich(rng: np.random.Generator) -> str | None:
    all_systems = [systems.CircleRotation(alpha=0.6180339887),
                   systems.BinaryShift(),
                   systems.DoublingMap(),
                   systems.ProductSystem(systems.CircleRotation(alpha=0.6180339887),
                                         systems.CircleRotation(alpha=0.3))]
    for system in all_systems:
        for delta in (0.1, 0.3):
            x = analysis.sample_point(system, rng)
            y = analysis.sample_point(system, rng)
            rep = pseudometrics.sandwich_check(system, x, y, 30, delta)
            if not rep.holds:
                return f"{system.kind} delta={delta}: {rep.lhs} / {rep.mid} / {rep.rhs}"
            if system.geometry not in (systems.GEOMETRY_LINE, systems.GEOMETRY_SHIFT):
                continue
            # the sorted threshold counts against matching on the cost matrix
            C = systems.cost_matrix(system.orbit_segment(x, 30), system.orbit_segment(y, 30))
            want = 30 - matching.max_matching_under_threshold(C, delta)
            got = pseudometrics.delta_n(system, x, y, 30, delta)
            if got != want:
                return f"{system.kind} delta={delta}: Delta_n {got} vs matching {want}"
    return None


def _check_birkhoff(rng: np.random.Generator) -> str | None:
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = max(1, n - 1)
        perms = [rng.permutation(n) for _ in range(k)]
        w = rng.dirichlet(np.ones(k))
        B = np.zeros((n, n))
        for wi, p in zip(w, perms):
            B[np.arange(n), p] += wi
        dec = matching.birkhoff_decompose(B)
        err = np.abs(dec.reconstruct() - B).max()
        if err > 1e-7:
            return f"reconstruction error {err:.2e}"
        if abs(sum(dec.weights) - 1.0) > 1e-9:
            return "weights do not sum to 1"
        if len(dec.weights) > (n - 1) ** 2 + 1:
            return f"too many terms: {len(dec.weights)}"
    return None


def _check_pseudometrics(rng: np.random.Generator) -> str | None:
    rot = systems.CircleRotation(alpha=0.6180339887)
    for _ in range(10):
        x, y = float(rng.random()), float(rng.random())
        n = int(rng.integers(1, 60))
        e = pseudometrics.ebar_n(rot, x, y, n)
        if e != pseudometrics.ebar_n(rot, y, x, n):
            return "ebar_n is not exactly symmetric"
        b = pseudometrics.besicovitch_n(rot, x, y, n)
        if e > b + 1e-12:
            return f"ebar {e} exceeds besicovitch {b}"
    return None


def _check_isometry(rng: np.random.Generator) -> str | None:
    rot = systems.CircleRotation(alpha=0.6180339887)
    x, y = float(rng.random()), float(rng.random())
    sx = rot.orbit_segment(x, 2000)
    sy = rot.orbit_segment(y, 2000)
    drift = np.abs(systems.aligned_distances(rot, sx, sy) - rot.dist(x, y)).max()
    if drift > 1e-12:
        return f"orbit distance drift {drift:.2e}"
    return None


def _check_example31(rng: np.random.Generator) -> str | None:
    rep = analysis.example31_report(analysis.Example31Config(n_blocks=4))
    if rep.verdict != analysis.VERDICT_CONSISTENT:
        return f"verdict {rep.verdict}: {rep.witnesses}"
    return None


def _check_determinism(rng: np.random.Generator) -> str | None:
    rot = systems.CircleRotation(alpha=0.6180339887)
    sched = measures.Schedule.geometric(200)
    a = analysis.continuity_modulus(rot, 0.05, 5, sched, seed=11).to_json()
    b = analysis.continuity_modulus(rot, 0.05, 5, sched, seed=11).to_json()
    if a != b:
        return "same seed produced different reports"
    return None


_CHECKS = [
    ("assignment vs brute force", _check_assignment),
    ("matched average equals transport", _check_matching_identity),
    ("fast 1-D Wasserstein vs LP", _check_fast_w1),
    ("closed-form ebar vs assignment", _check_closed_forms),
    ("prokhorov routes vs subset oracle", _check_prokhorov),
    ("sandwich inequalities", _check_sandwich),
    ("birkhoff decomposition", _check_birkhoff),
    ("pseudometric symmetry and dominance", _check_pseudometrics),
    ("rotation orbits are isometric", _check_isometry),
    ("block counterexample (4 blocks)", _check_example31),
    ("seeded determinism", _check_determinism),
]


def run(verbose: bool = True) -> int:
    rng = np.random.default_rng(20240817)
    failures = 0
    for name, check in _CHECKS:
        detail = check(rng)
        if detail is None:
            if verbose:
                print(f"PASS  {name}")
        else:
            failures += 1
            if verbose:
                print(f"FAIL  {name}: {detail}")
    if verbose:
        print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return failures


if __name__ == "__main__":
    raise SystemExit(run())
