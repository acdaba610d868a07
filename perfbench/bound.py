"""bound-t7 and bound-t30: analyze_matrices over a seeded batch of feasible matrices.

Each operation solves the yield and error programs for one GainErrorMatrices,
so linear-program latency is all of the work and the session layer is idle.
The batch mixes two kinds of input, seven of the first to one of the second:

* the geometric family of acceptance check 4 (yields 1 - (1 - y0)^(m + n),
  flat error rate e0), where the true y11 and e11 are known, so each bound
  is checked for soundness;
* population-law matrices of the reference channel at several loss and
  misalignment settings (law.column_law), stored in refdata.json.

Every instance is also checked against the optimum recorded from the seed
commit in refdata.json, within the frozen-output tolerance (rel 1e-6).
"""

from __future__ import annotations

import math
import time

import numpy as np

from mdiqkd import decoy
from mdiqkd.decoy import GainErrorMatrices

from common import Recorder, Tally, load_refdata, paired, peak_alloc_mb, rel_close
from law import MUS

POPULATION_EVERY = 8
SOUND_TOL = 1e-9
# A traced run solves this many instances, whatever --seconds says, so that its
# solver counters repeat exactly for a seed (a few instances need an extra solve).
TRACED_INSTANCES = {7: 240, 30: 48}


def geometric_matrices(y0: float, e0: float) -> GainErrorMatrices:
    gains = np.empty((3, 3))
    for i, mu_i in enumerate(MUS):
        for j, mu_j in enumerate(MUS):
            gains[i, j] = 1.0 - math.exp(-y0 * (mu_i + mu_j))
    errors = np.full((3, 3), e0)
    return GainErrorMatrices(
        mus=MUS, q_rect=gains, q_diag=gains.copy(), e_rect=errors, e_diag=errors.copy()
    )


def population_matrices(entry: dict) -> GainErrorMatrices:
    return GainErrorMatrices(
        mus=tuple(entry["mus"]),
        **{key: np.array(entry[key]) for key in ("q_rect", "q_diag", "e_rect", "e_diag")},
    )


def instances(refdata: dict, truncation: int, seed: int):
    """Endless seeded stream of (geometric params or None, matrices, reference)."""
    ref = refdata["reference"][str(truncation)]
    n_geo = len(ref["geometric"])
    n_pop = len(ref["population"])
    rng = np.random.default_rng([seed, truncation])
    geo_order = rng.permutation(n_geo)
    pop_order = rng.permutation(n_pop)
    k = 0
    while True:
        block, slot = divmod(k, POPULATION_EVERY)
        if slot == POPULATION_EVERY - 1:
            index = int(pop_order[block % n_pop])
            yield None, population_matrices(refdata["population"][index]), ref["population"][index]
        else:
            index = int(geo_order[(k - block) % n_geo])
            y0, e0 = refdata["geometric"][index]
            yield (y0, e0), geometric_matrices(y0, e0), ref["geometric"][index]
        k += 1


def check(params, result, reference) -> tuple[list[str], int]:
    y11, e11 = result.y11_lower, result.e11_upper
    if not (rel_close(y11, reference[0]) and rel_close(e11, reference[1])):
        return [f"bounds off the recorded optimum ({y11!r}, {e11!r})"], 0
    if params is not None:
        y0, e0 = params
        if y11 > 1.0 - (1.0 - y0) ** 2 + SOUND_TOL or e11 < e0 - SOUND_TOL:
            return [f"unsound bounds for y0={y0!r}, e0={e0!r}"], 0
    return [], 0


def warm_up(workdir: str, truncation: int) -> None:
    decoy.analyze_matrices(population_matrices(load_refdata()["population"][0]), truncation=truncation)


def run(seed: int, seconds: float, recorder: Recorder, traced: bool, workdir: str, truncation: int) -> dict:
    refdata = load_refdata()
    stream = instances(refdata, truncation, seed)
    if traced:
        recorder.wrap(decoy, "lp_bound_yield", "decoy.lp_bound_yield")
        recorder.wrap(decoy, "lp_bound_error", "decoy.lp_bound_error")
    latencies: list[float] = []
    ratios: list[float] = []
    tally = Tally()
    start = time.perf_counter()
    while (
        len(latencies) < TRACED_INSTANCES[truncation] if traced
        else time.perf_counter() - start < seconds
    ):
        params, matrices, reference = next(stream)
        times = paired(
            recorder, traced, len(latencies), "decoy.analyze_matrices",
            lambda: decoy.analyze_matrices(matrices, truncation=truncation),
            lambda result: check(params, result, reference),
            tally,
        )
        if traced:
            ratios.append(times[True] / times[False])
        latencies.append(times[traced])

    out = {
        "latencies": latencies,
        "work": len(latencies),
        "tally": tally,
        "notes": [f"instances {len(latencies)} at truncation {truncation}, "
                  f"1 in {POPULATION_EVERY} population-law, the rest geometric"]
        + tally.notes("instances"),
        "ratios": ratios,
    }
    if traced:
        out["bounds"] = len(latencies)
        out["layers"] = _layers(recorder, len(latencies), refdata, truncation)
    return out


def _layers(recorder: Recorder, n: int, refdata: dict, truncation: int) -> dict:
    per = 1e3 / n
    linprog_s = recorder.total("scipy.linprog")
    nested_yield = recorder.total("decoy.lp_bound_yield", parent_name="decoy.lp_bound_error")
    layers = {
        "decoy.lp_yield_ms": per * recorder.total("decoy.lp_bound_yield"),
        "decoy.lp_error_ms": per * (recorder.total("decoy.lp_bound_error") - nested_yield),
        "decoy.assembly_ms": per * (recorder.total("decoy.analyze_matrices") - linprog_s),
    }
    picks = [population_matrices(refdata["population"][0]), geometric_matrices(*refdata["geometric"][0])]
    layers["decoy.peak_alloc_mb"] = max(
        peak_alloc_mb(lambda m=m: decoy.analyze_matrices(m, truncation=truncation)) for m in picks
    )
    return layers
