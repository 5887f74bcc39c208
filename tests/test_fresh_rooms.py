"""`fresh_rooms.py`, the fresh-room learning-curve script, on a tiny world."""

import dataclasses
import math

from fresh_rooms import fresh_room_curves

from livesight import pipeline, simgen
from livesight.config import SimConfig

TINY_SIM = SimConfig(streams=10, users=50, n_samples=300)


def test_fresh_room_curves_run_on_a_tiny_world():
    res = fresh_room_curves(5, sim=TINY_SIM, fresh_streams=15, prod_epochs=(1,), stat_epochs=(1,))
    world = simgen.gen_world(dataclasses.replace(TINY_SIM, streams=15), 5)
    positions = sum(len(world.events[i]) - 1 for i in range(10, 15))
    assert set(res["prod"]) == set(res["stat"]) == {1}
    (hitrate, se), = res["prod"].values()
    assert res["positions"] == positions > 0
    assert 0 <= hitrate <= 1 and 0 <= res["latest"] <= 1
    assert se == math.sqrt(hitrate * (1 - hitrate) / positions)
    assert res["stat"][1] > 0


def test_the_fresh_world_shares_the_training_rooms():
    # the premise of the script: a world with more streams at the same seed
    # starts with the same rooms, so its first `streams` rooms are the
    # smaller world's and its later rooms are fresh
    small = simgen.gen_world(TINY_SIM, 5)
    big = simgen.gen_world(dataclasses.replace(TINY_SIM, streams=15), 5)
    train_rooms, _ = pipeline.split_rooms(TINY_SIM.streams)
    assert pipeline.training_digest(small, train_rooms) == pipeline.training_digest(big, train_rooms)
