import re


def test_replay_of_its_own_recording_deviates_nowhere(layer_replay_outputs):
    recorded, replayed = layer_replay_outputs
    for name in ("policy-doorway10", "policy-circle20-noise"):
        icps, rows = map(int, re.search(
            rf"^{name}: .*, (\d+) ICP calls with (\d+) rows$",
            recorded, re.M).groups())
        assert icps > 0, recorded
        assert re.search(
            rf"^{name} icp_translation: {icps} calls, {rows} rows, [\d.]+ ms "
            rf"per call \(median of 1\)$", replayed, re.M), replayed
    assert replayed.count("p50 0 m, p99 0 m, max 0 m") == 2, replayed
    residuals = re.findall(r"file ([\d.]+) mm, this tree ([\d.]+) mm", replayed)
    assert len(residuals) == 2 and all(a == b for a, b in residuals), replayed
