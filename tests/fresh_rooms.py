"""Fresh-room learning curves of the two forecasters.

Each forecaster trains on the train rooms of the criterion-6 world of
`tests/test_acceptance.py` (100 streams) and is scored on 400 rooms it never
saw: rooms 100 to 499 of the 500-stream world at the same seed. The two
worlds share their first 100 rooms, because each room's generator is seeded
by `[seed, 0x57, i]`. The product forecaster reports HitRate with its
binomial standard error, the statistic forecaster its MSE (original scale,
`horizon_infer` steps).

    PYTHONPATH=src python3 tests/fresh_rooms.py --seeds 101 202 303

pytest does not collect this file; `tests/test_fresh_rooms.py` runs
`fresh_room_curves` on a tiny world.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import time

import livesight  # noqa: F401  (pins BLAS to one thread before numpy loads)
import numpy as np

from livesight import pipeline, prodfore, simgen, statfore
from livesight.config import ProdConfig, SimConfig, StatConfig

CRITERION_6_SIM = SimConfig(streams=100, users=200, n_samples=80000)


def fresh_room_curves(seed, sim=CRITERION_6_SIM, fresh_streams=500,
                      prod_epochs=(10, 40), stat_epochs=(2, 4, 6)):
    """{"prod": {epochs: (HitRate, its standard error)}, "stat": {epochs: MSE},
    "latest": the latest-category baseline's HitRate, "positions": the number
    of scored positions} on rooms `sim.streams` to `fresh_streams - 1`, each
    model trained from scratch on the train rooms of the `sim` world."""
    world = simgen.gen_world(dataclasses.replace(sim, streams=fresh_streams), seed)
    train_rooms, _ = pipeline.split_rooms(sim.streams)
    fresh = range(sim.streams, fresh_streams)
    seqs = [world.events[i] for i in fresh]
    positions = sum(len(s) - 1 for s in seqs)

    def trained(cfg):
        return pipeline.train_forecaster(dataclasses.replace(cfg, seed=seed), world, train_rooms)[0]

    out = {"prod": {}, "stat": {}, "positions": positions}
    for epochs in prod_epochs:
        hits = prodfore.evaluate_hitrate(trained(ProdConfig(epochs=epochs)), seqs)
        p = hits["model"]
        out["prod"][epochs] = (p, math.sqrt(p * (1 - p) / positions))
        out["latest"] = hits["latest"]  # the same for every model
    panels = world.panels[np.asarray(fresh)]
    for epochs in stat_epochs:
        model = trained(StatConfig(epochs=epochs))
        out["stat"][epochs] = statfore.evaluate_statistic(model, panels)["model"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[101, 202, 303])
    for seed in ap.parse_args().seeds:
        t0 = time.monotonic()
        res = fresh_room_curves(seed)
        cells = [f"{e} ep {p:.4f} ± {se:.4f}" for e, (p, se) in res["prod"].items()]
        print(f"seed {seed}: product HitRate over {res['positions']} positions: "
              + ", ".join(cells) + f"; latest {res['latest']:.4f}")
        print(f"seed {seed}: statistic MSE: "
              + ", ".join(f"{e} ep {v:.2f}" for e, v in res["stat"].items())
              + f"  ({time.monotonic() - t0:.1f} s)")


if __name__ == "__main__":
    main()
