import re


def test_replay_of_its_own_recording_answers_byte_for_byte(
        layer_replay_outputs):
    recorded, replayed = layer_replay_outputs
    for name in ("policy-doorway10", "policy-circle20-noise"):
        casts, queries = map(int, re.search(
            rf"^{name}: (\d+) raycasts in \d+ worlds, (\d+) split queries on "
            rf"\d+ grids, ",
            recorded, re.M).groups())
        assert casts > 0 and queries > 0, recorded
        for function, calls in (("raycast_batch", casts),
                                ("occupied_near_points", queries)):
            assert re.search(
                rf"^{name} {function}: {calls} calls, .*[\d.]+ ms per call "
                rf"\(median of 1\), {calls} of {calls} identical$",
                replayed, re.M), replayed
