import dataclasses
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwconvoy import mdpm
from uwconvoy.mdpm import (
    MdpmConfig,
    MdpmTracker,
    SubWindowGrid,
    _BAND_STEP,
    _MOTION_SIGMA,
    _amplitude_matrix,
    _candidate_paths,
    _dtft_kernel,
    _frame_cell_means,
    _median,
    _path_tables,
    _ranked_paths,
)

from oracles import (
    all_adjacent_paths,
    reference_dft_amplitude,
    score_path,
    straight_line_paths,
)


def frames_from_cells(cell_values: np.ndarray, window_size: int = 10):
    """Build frames whose sub-window means equal the given (T, rows, cols) values."""
    block = np.ones((window_size, window_size))
    return [np.kron(cells, block) for cells in cell_values]


def detect(frames, config: MdpmConfig = MdpmConfig()):
    """What a fresh tracker reports after the last of the frames."""
    tracker = MdpmTracker(config)
    return [tracker.push(f) for f in frames][-1]


def amplitude(series, sample_rate: float, frequency: float) -> float:
    """The detector's spectral amplitude of one series at one frequency."""
    row = np.asarray(series, dtype=float)[None, :]
    kernel = _dtft_kernel(row.shape[1], sample_rate, np.array([frequency]))
    return float(_amplitude_matrix(row, kernel)[0, 0])


def tables_for(cells: np.ndarray):
    """The path tables of buffered cell means (T, rows, cols)."""
    length, rows, cols = cells.shape
    return _path_tables(rows, cols, length)


def ranked(cells: np.ndarray):
    """Ranked candidate paths as tuples, with their series and scores."""
    tables = tables_for(cells)
    series, scores, order = _ranked_paths(cells, tables)
    return [(tuple(tables.paths[i].tolist()), series[i], float(scores[i])) for i in order]


# ---------------------------------------------------------------------------
# dtft

def test_dtft_constant_series_is_zero_everywhere():
    series = np.full(32, 0.7)
    for f in (1.0, 1.5, 2.9):
        assert amplitude(series, 15.0, f) == pytest.approx(0.0, abs=1e-12)


def test_dtft_integer_period_sine_peak():
    fs, n = 15.0, 150
    series = np.sin(2 * np.pi * 2.0 * np.arange(n) / fs)
    assert amplitude(series, fs, 2.0) == pytest.approx(75.0, abs=1e-6)
    scan = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    amps = _amplitude_matrix(series[None, :], _dtft_kernel(n, fs, scan))[0]
    assert scan[int(np.argmax(amps))] == 2.0


def test_dtft_matches_reference_sum():
    rng = np.random.default_rng(1)
    series = rng.uniform(0, 1, 24)
    for f in (1.0, 2.2, 3.0):
        assert amplitude(series, 15.0, f) == pytest.approx(
            reference_dft_amplitude(series, 15.0, f), abs=1e-9
        )


def test_dtft_offset_invariance_and_linearity():
    rng = np.random.default_rng(2)
    series = rng.uniform(0, 1, 20)
    base = amplitude(series, 15.0, 2.0)
    assert amplitude(series + 0.35, 15.0, 2.0) == pytest.approx(base, abs=1e-9)
    assert amplitude(series * 3.0, 15.0, 2.0) == pytest.approx(3.0 * base, rel=1e-12)


def test_dtft_preconditions():
    # 6 Hz puts the top of the 1-3 Hz band at Nyquist
    for rate in (math.nan, math.inf, 0.0, -15.0, 6.0):
        with pytest.raises(ValueError, match="sample_rate must be finite and above 6"):
            MdpmConfig(sample_rate=rate)


# ---------------------------------------------------------------------------
# grid

def test_grid_discards_remainders():
    grid = SubWindowGrid.for_frame(320, 240, 30)
    assert (grid.columns, grid.rows) == (10, 8)
    box = grid.cell_bbox(0)
    assert (box.x, box.y) == (0.0, 0.0)
    assert box.w == pytest.approx(30 / 320)
    assert box.h == pytest.approx(30 / 240)
    last = grid.cell_bbox(grid.rows * grid.columns - 1)
    assert last.x == pytest.approx(9 * 30 / 320)
    assert last.y == pytest.approx(7 * 30 / 240)


def test_grid_rejects_tiny_frames():
    with pytest.raises(ValueError):
        SubWindowGrid.for_frame(20, 20, 30)


# ---------------------------------------------------------------------------
# candidate paths

def test_uniform_frames_give_constant_series():
    frames = frames_from_cells(np.full((10, 3, 4), 0.5))
    grid = SubWindowGrid.for_frame(40, 30, 10)
    means = np.stack([_frame_cell_means(f, grid) for f in frames])
    series, _, _ = _ranked_paths(means, tables_for(means))
    assert series.shape == (len(_candidate_paths(3, 4, 10)), 10)
    assert np.all(series == 0.5)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    length=st.integers(1, 10),
)
def test_candidate_paths_match_straight_line_oracle(rows, cols, length):
    paths = _candidate_paths(rows, cols, length)
    assert [tuple(p) for p in paths.tolist()] == straight_line_paths(rows, cols, length)


def _moving_blob_cells(length: int, cols: int, background=0.4, bright=0.95, dim=0.15):
    """Single-row footage with a blob stepping right, alternating brightness."""
    cells = np.full((length, 1, cols), background)
    for t in range(length):
        cells[t, 0, t % cols] = bright if t % 2 == 0 else dim
    return cells


def test_blob_following_series_has_largest_variance():
    directions = {path: series for path, series, _ in ranked(_moving_blob_cells(10, 10))}
    follower_var = float(np.var(directions[tuple(range(10))]))
    for path, series in directions.items():
        if len(set(path)) == 1:  # static paths
            assert float(np.var(series)) < follower_var


def test_mismatched_frame_dimensions_rejected():
    # refused at the second frame, before the buffer fills
    a, b = np.zeros((30, 30)), np.zeros((30, 40))
    with pytest.raises(ValueError, match="dimensions changed mid-stream: 40x30 after 30x30"):
        detect([a, b])


def test_push_takes_only_2d_frames():
    tracker = MdpmTracker()
    assert tracker.push(np.zeros((30, 40))) is None
    with pytest.raises(ValueError, match="2-D"):
        tracker.push(np.zeros(1200))


# ---------------------------------------------------------------------------
# path ranking and pruning

def test_prune_keeps_all_when_p_large():
    directions = ranked(_moving_blob_cells(3, 3))
    assert len(directions) == len(_candidate_paths(1, 3, 3))
    likes = [score for _, _, score in directions]
    assert likes == sorted(likes, reverse=True)
    assert {path for path, _, _ in directions} == {
        tuple(p) for p in _candidate_paths(1, 3, 3).tolist()
    }


def test_prune_winner_matches_exhaustive_oracle_on_3x3():
    # blob walks the diagonal with strongly alternating brightness
    cells = np.full((3, 3, 3), 0.4)
    cells[0, 0, 0] = 0.95
    cells[1, 1, 1] = 0.15
    cells[2, 2, 2] = 0.95
    winner_path, _, winner_likelihood = ranked(cells)[0]
    follower_path = (0, 4, 8)
    assert winner_path == follower_path

    # oracle: score every 8-adjacent path (not just the straight candidates)
    flat = cells.reshape(3, 9)
    all_series = {
        p: [flat[t, p[t]] for t in range(3)] for p in all_adjacent_paths(3, 3, 3)
    }
    top_change = max(
        (s1 - s0) ** 2 for s in all_series.values() for s0, s1 in zip(s, s[1:])
    )
    scores = {
        p: score_path(p, s, 3, 1.0, top_change) for p, s in all_series.items()
    }
    oracle_best = max(scores, key=lambda p: (scores[p], -p[-1]))
    assert oracle_best == follower_path
    assert winner_likelihood == pytest.approx(scores[follower_path], abs=1e-9)


def test_prune_tie_order_on_identical_series():
    directions = ranked(np.full((5, 3, 3), 0.5))
    # stay-in-place paths tie at the top; lowest window indices win
    assert [path for path, _, _ in directions[:4]] == [
        (0,) * 5, (1,) * 5, (2,) * 5, (3,) * 5
    ]


def test_config_sets_only_the_rate():
    names = [f.name for f in dataclasses.fields(MdpmConfig)]
    assert names == ["sample_rate"]
    fixed = (
        MdpmConfig.window_size,
        MdpmConfig.buffer_length,
        MdpmConfig.prune_count,
        MdpmConfig.band,
        MdpmConfig.threshold_factor,
    )
    assert fixed == (30, 10, 10, (1.0, 3.0), 6.0)


# ---------------------------------------------------------------------------
# detection through a fresh tracker

def oscillating_cell_frames(
    n_frames=10,
    rows=8,
    cols=10,
    cell=(4, 5),
    freq=2.0,
    amplitude=0.3,
    noise=0.01,
    seed=0,
    phase=0.0,
):
    rng = np.random.default_rng(seed)
    cells = np.full((n_frames, rows, cols), 0.4)
    if noise:
        cells += rng.normal(0, noise, cells.shape)
    t = np.arange(n_frames) / MdpmConfig().sample_rate
    cells[:, cell[0], cell[1]] = 0.5 + amplitude * np.sin(2 * np.pi * freq * t + phase)
    return frames_from_cells(np.clip(cells, 0, 1), window_size=30)


def test_detect_constant_gray_returns_none():
    frames = frames_from_cells(np.full((10, 8, 10), 0.4), window_size=30)
    assert detect(frames) is None


def test_detect_oscillating_cell():
    frames = oscillating_cell_frames(phase=0.7)
    det = detect(frames)
    assert det is not None
    grid = SubWindowGrid.for_frame(320, 240, 30)
    assert det.window_index == 4 * grid.columns + 5
    assert abs(det.peak_frequency - 2.0) <= 0.3
    assert 1.0 <= det.peak_frequency <= 3.0
    assert 0.0 < det.bbox.p <= 1.0
    # bbox covers the oscillating window's center
    cx = (5 * 30 + 15) / 320
    cy = (4 * 30 + 15) / 240
    assert det.bbox.x <= cx <= det.bbox.x + det.bbox.w
    assert det.bbox.y <= cy <= det.bbox.y + det.bbox.h


def oracle_scan(frames, config):
    """Ranked directions, scan frequencies and every amplitude, from the
    oracles alone: plain-loop path enumeration, `score_path` ranking and
    plain-sum amplitudes over block-mean cell intensities."""
    ws = config.window_size
    rows, cols = (n // ws for n in frames[0].shape)
    means = [
        [
            float(f[r * ws:(r + 1) * ws, c * ws:(c + 1) * ws].mean())
            for r in range(rows)
            for c in range(cols)
        ]
        for f in frames
    ]
    paths = straight_line_paths(rows, cols, len(frames))
    series = {p: [means[t][cell] for t, cell in enumerate(p)] for p in paths}
    top_change = max(
        (s1 - s0) ** 2 for s in series.values() for s0, s1 in zip(s, s[1:])
    )
    score = {
        p: score_path(p, series[p], cols, _MOTION_SIGMA, top_change)
        for p in paths
    }
    ranking = sorted(paths, key=lambda p: (-score[p], p[-1], p))
    fs = config.sample_rate
    scan = [
        round(config.band[0] + k * _BAND_STEP, 10)
        for k in range(int(round((config.band[1] - config.band[0]) / _BAND_STEP)) + 1)
    ]
    amp = {(p, f): reference_dft_amplitude(series[p], fs, f) for p in paths for f in scan}
    return ranking, scan, amp


def oracle_best(ranking, scan, amp, prune_count):
    """Strongest (path, frequency) among the top directions; ties go to the
    lowest terminal window, then the lowest frequency."""
    return max(
        ((p, f) for p in ranking[:prune_count] for f in scan),
        key=lambda pair: (amp[pair], -pair[0][-1], -pair[1]),
    )


def test_detect_matches_public_op_composition(monkeypatch):
    """Detection equals the scoring rule composed from the oracles alone."""
    frames = oscillating_cell_frames(seed=3, phase=2.1)
    config = MdpmConfig()
    det = detect(frames, config)

    ranking, scan, amp = oracle_scan(frames, config)
    median = statistics.median(amp.values())
    best = oracle_best(ranking, scan, amp, config.prune_count)
    assert det is not None and amp[best] > config.threshold_factor * median
    assert det.window_index == best[0][-1]
    assert det.peak_frequency == pytest.approx(best[1], abs=1e-9)
    assert det.amplitude == pytest.approx(amp[best], abs=1e-9)

    # the threshold is the factor times the median over every candidate
    ratio = amp[best] / median
    monkeypatch.setattr(MdpmConfig, "threshold_factor", ratio * 1.001)
    assert detect(frames, config) is None
    monkeypatch.setattr(MdpmConfig, "threshold_factor", ratio * 0.999)
    assert detect(frames, config)


def test_detect_prune_count_matches_oracle_ranking(monkeypatch):
    """Only the top prune_count directions compete for the peak."""
    frames = oscillating_cell_frames(amplitude=0.0, noise=0.05, seed=4)
    # a factor of 0 puts the threshold at 0, so the best survivor always fires
    monkeypatch.setattr(MdpmConfig, "threshold_factor", 0.0)
    config = MdpmConfig()
    ranking, scan, amp = oracle_scan(frames, config)
    winners = set()
    for prune_count in (1, 2, 4, 8, 16, 32):
        best = oracle_best(ranking, scan, amp, prune_count)
        monkeypatch.setattr(MdpmConfig, "prune_count", prune_count)
        det = detect(frames, config)
        assert det is not None and det.window_index == best[0][-1]
        assert det.peak_frequency == pytest.approx(best[1], abs=1e-9)
        assert det.amplitude == pytest.approx(amp[best], abs=1e-9)
        winners.add(best)
    assert len(winners) > 2  # the prune count changes the winning direction


def test_detect_amplitude_tie_goes_to_lowest_window():
    # two cells carry the same oscillation: their static paths tie exactly
    cells = np.full((10, 8, 10), 0.4)
    wave = 0.5 + 0.3 * np.sin(2 * np.pi * 2.0 * np.arange(10) / 15.0)
    cells[:, 5, 7] = wave
    cells[:, 2, 3] = wave
    det = detect(frames_from_cells(cells, window_size=30))
    assert det is not None and det.window_index == 2 * 10 + 3


def test_detect_noise_only_rarely_fires():
    fires = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        cells = 0.4 + rng.normal(0, 0.02 / 30.0, (10, 8, 10))
        frames = frames_from_cells(cells, window_size=30)
        if detect(frames) is not None:
            fires += 1
    assert fires <= 1


def test_detect_buffer_length_requirements():
    frames = oscillating_cell_frames(n_frames=8)
    assert detect(frames) is None  # shorter than the configured buffer
    longer = oscillating_cell_frames(n_frames=14, phase=0.3)
    det = detect(longer)  # uses the most recent 10
    assert det is not None


def test_tracker_matches_one_shot_detection():
    frames = oscillating_cell_frames(n_frames=25, seed=9, phase=0.2)
    tracker = MdpmTracker()
    pushed = [tracker.push(f) for f in frames]
    assert all(r is None for r in pushed[:9])
    for i in range(9, 25):
        expected = detect(frames[i - 9 : i + 1])
        got = pushed[i]
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.window_index == expected.window_index
            assert got.peak_frequency == expected.peak_frequency
            assert got.amplitude == pytest.approx(expected.amplitude, rel=1e-12)


def test_push_builds_the_kernel_and_the_path_tables_once(monkeypatch):
    calls = {"_dtft_kernel": 0, "_path_tables": 0, "_transition_log_scores": 0}

    def counted(name):
        original = getattr(mdpm, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mdpm, name, counted(name))
    tracker = MdpmTracker()
    pushed = [tracker.push(f) for f in oscillating_cell_frames(n_frames=30, seed=2)]
    assert any(pushed)
    assert calls == {"_dtft_kernel": 1, "_path_tables": 1, "_transition_log_scores": 1}


def test_trackers_of_other_grids_and_rates_do_not_share_tables():
    """Trackers fed in turn in one process detect what each does alone."""
    from uwconvoy.sim import CameraModel, FootageScene, Pose

    streams = []
    for width, height in ((320, 240), (640, 480)):
        scene = FootageScene(
            camera=CameraModel(image_width=width, image_height=height),
            rng=np.random.default_rng(width),
        )
        frames = scene.render_sequence(Pose(position=(1.2, 0.0, 0.0)), Pose(), 16, 15.0)
        for rate in (15.0, 10.0):
            streams.append((MdpmConfig(sample_rate=rate), frames))

    alone = []
    for config, frames in streams:
        tracker = MdpmTracker(config)
        alone.append([tracker.push(f) for f in frames])
    trackers = [MdpmTracker(config) for config, _ in streams]
    together = [[] for _ in streams]
    for i in range(16):
        for k, (_, frames) in enumerate(streams):
            together[k].append(trackers[k].push(frames[i]))
    assert together == alone
    # every stream detects, and no two alike, so a table shared by mistake shows
    assert all(any(detections) for detections in alone)
    assert all(a != b for i, a in enumerate(alone) for b in alone[i + 1 :])


def test_median_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(8)
    arrays = [np.array([2.0]), np.array([3.0, 1.0]), np.full((4, 5), 0.25)]
    for n in range(1, 200):
        arrays.append(rng.uniform(0.0, 1.0, n))
        arrays.append(rng.integers(0, 3, (n, 2)).astype(float))
    with_nan = rng.uniform(0.0, 1.0, (7, 3))
    with_nan[2, 1] = math.nan
    for values in arrays:
        assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()
    assert math.isnan(_median(with_nan)) and math.isnan(np.median(with_nan))


def test_detect_never_reports_out_of_band_frequency():
    for seed in range(5):
        frames = oscillating_cell_frames(seed=seed, freq=1.0 + 0.4 * seed, phase=seed)
        det = detect(frames)
        if det is not None:
            assert 1.0 <= det.peak_frequency <= 3.0


# ---------------------------------------------------------------------------
# simulated footage end to end

def test_detect_on_sim_footage_localizes_flipper():
    from uwconvoy.sim import _FLIPPER_DROP, CameraModel, FootageScene, Pose, TargetModel

    scene = FootageScene(
        target=TargetModel(gait_frequency=2.0),
        rng=np.random.default_rng(77),
    )
    leader = Pose(position=(1.2, 0.0, 0.0))
    frames = scene.render_sequence(leader, Pose(), 10, 15.0)
    det = detect(frames)
    assert det is not None
    assert abs(det.peak_frequency - 2.0) <= 0.3
    # image location of the flipper patch center: dead ahead, slightly low
    cam = CameraModel()
    u = 0.5
    el = math.atan2(-_FLIPPER_DROP, 1.2)
    v = 0.5 - el / cam.vertical_fov
    assert det.bbox.x <= u <= det.bbox.x + det.bbox.w
    assert det.bbox.y <= v <= det.bbox.y + det.bbox.h


def test_recall_and_precision_on_sim_sequences():
    """100-frame sequences, target visible for the first half only."""
    from uwconvoy.sim import FootageScene, Pose, TargetModel, project_bbox

    tp = fn = fp = tn = 0
    for i, gait in enumerate((1.5, 2.0, 2.5)):
        scene = FootageScene(
            target=TargetModel(gait_frequency=gait),
            rng=np.random.default_rng(600 + i),
        )
        visible = Pose(position=(1.2, 0.0, 0.0))
        body = project_bbox(scene.camera, Pose(), visible, scene.target)
        hidden = Pose(position=(-5.0, 0.0, 0.0))
        tracker = MdpmTracker()
        for frame_index in range(100):
            leader, box = (visible, body) if frame_index < 50 else (hidden, None)
            frame = scene.render(leader, Pose(), box, scene.background(frame_index / 15.0))
            det = tracker.push(frame)
            if 9 <= frame_index < 50:  # buffers fully inside the visible span
                tp += det is not None
                fn += det is None
            elif frame_index >= 59:  # buffers fully inside the empty span
                fp += det is not None
                tn += det is None
    recall = tp / (tp + fn)
    precision = tp / (tp + fp) if tp + fp else None
    assert recall >= 0.8
    assert precision is not None and precision >= 0.9
