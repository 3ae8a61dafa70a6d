"""Periodic-motion target detection in the frequency domain.

The tracker tiles each frame into non-overlapping square sub-windows and
treats candidate motion directions as sequences of sub-windows across the
frame buffer (straight lines at cell velocities in {-1,0,1}^2, clamped at
the grid border). Directions are scored by a hidden-Markov construction:
Gaussian transition weights over cell displacement and emission weights
proportional to the normalized squared intensity change observed along the
direction. The surviving directions are scanned for high spectral amplitude
in the gait band; a sufficiently strong in-band peak localizes the target
at the direction's terminal sub-window.

Every step runs as one array pipeline over all candidate directions at
once, fed frame by frame through ``MdpmTracker``. Frames carry no time: the
tracker takes them as evenly spaced at ``MdpmConfig.sample_rate``, which
sets the DTFT's frequency axis and must keep the gait band under Nyquist.

A detection's confidence is its amplitude divided by T/2 for a buffer of T
frames, capped at 1; T/2 is the amplitude of a unit sine at a scanned
frequency. On the default footage the confidence peaks near 0.42, so useful
thresholds lie below that.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import BoundingBox

# Floor inside emission logs so zero-change steps stay finite.
_EMISSION_EPS = 1e-12
# Spacing of the scanned frequency grid across the gait band, Hz.
_BAND_STEP = 0.1
# Width of the Gaussian transition weights over cell displacement, in cells.
_MOTION_SIGMA = 1.0


@dataclass(frozen=True)
class SubWindowGrid:
    """Non-overlapping square tiling of a frame; remainders are discarded."""

    window_size: int
    columns: int
    rows: int
    frame_width: int
    frame_height: int

    @classmethod
    def for_frame(cls, frame_width: int, frame_height: int, window_size: int) -> "SubWindowGrid":
        cols = frame_width // window_size
        rows = frame_height // window_size
        if cols == 0 or rows == 0:
            raise ValueError(
                f"frame {frame_width}x{frame_height} smaller than one "
                f"{window_size}px sub-window"
            )
        return cls(window_size, cols, rows, frame_width, frame_height)

    def cell_bbox(self, index: int, confidence: float = 1.0) -> BoundingBox:
        """Normalized box covering one sub-window of the original frame."""
        row, col = divmod(index, self.columns)
        return BoundingBox(
            col * self.window_size / self.frame_width,
            row * self.window_size / self.frame_height,
            self.window_size / self.frame_width,
            self.window_size / self.frame_height,
            confidence,
        )


@dataclass(frozen=True)
class SpectralDetection:
    """A periodic-motion hit: winning sub-window, peak frequency, strength."""

    window_index: int
    peak_frequency: float
    amplitude: float
    bbox: BoundingBox


@dataclass(frozen=True)
class MdpmConfig:
    # the method's fixed parameters: 30 px sub-windows, a 10-frame buffer,
    # the 10 likeliest directions kept, the 1-3 Hz gait band, and detection
    # when the best in-band amplitude exceeds threshold_factor times the
    # median scanned amplitude over all candidate directions
    window_size: ClassVar[int] = 30
    buffer_length: ClassVar[int] = 10
    prune_count: ClassVar[int] = 10
    band: ClassVar[tuple[float, float]] = (1.0, 3.0)
    threshold_factor: ClassVar[float] = 6.0
    # frames per second of the footage; frames are taken as evenly spaced
    sample_rate: float = 15.0

    def __post_init__(self):
        # the band must lie under Nyquist; nan and inf fail the comparison
        if not 2.0 * self.band[1] < self.sample_rate < math.inf:
            raise ValueError(
                f"sample_rate must be finite and above {2.0 * self.band[1]:g}, "
                f"where band {self.band} reaches Nyquist; got {self.sample_rate}"
            )


def _candidate_paths(rows: int, cols: int, length: int) -> np.ndarray:
    """All straight-line sub-window paths, border-clamped and deduplicated.

    Returns flat cell indices, shape (n_paths, length), lexicographically
    sorted for a stable candidate order.
    """
    t = np.arange(length)
    vel = np.array([(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)])
    r0, c0 = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    starts = np.stack([r0.ravel(), c0.ravel()], axis=1)  # (cells, 2)
    # (cells, vel, T): start + t*velocity, clamped inside the grid
    r = np.clip(starts[:, None, 0:1] + t * vel[None, :, 0:1], 0, rows - 1)
    c = np.clip(starts[:, None, 1:2] + t * vel[None, :, 1:2], 0, cols - 1)
    flat = (r * cols + c).reshape(-1, length)
    return np.unique(flat, axis=0)


def _transition_log_scores(paths: np.ndarray, cols: int) -> np.ndarray:
    """Sum of Gaussian displacement log-weights along each path."""
    rows_idx, cols_idx = np.divmod(paths, cols)
    d2 = np.diff(rows_idx, axis=1) ** 2 + np.diff(cols_idx, axis=1) ** 2
    return -d2.sum(axis=1) / (2.0 * _MOTION_SIGMA * _MOTION_SIGMA)


@dataclass(frozen=True)
class _PathTables:
    """What scoring needs of the candidate paths of one grid and buffer length."""

    paths: np.ndarray  # (n_paths, length) flat cell indices, lexicographic
    gather: np.ndarray  # each path's samples as indices into the flattened means
    transition: np.ndarray  # transition log-score of each path
    terminal: np.ndarray  # terminal window of each path


def _path_tables(rows: int, cols: int, length: int) -> _PathTables:
    """The tables of a rows x cols grid for buffers of `length` frames."""
    paths = _candidate_paths(rows, cols, length)
    return _PathTables(
        paths=paths,
        gather=paths + rows * cols * np.arange(length),
        transition=_transition_log_scores(paths, cols),
        terminal=np.ascontiguousarray(paths[:, -1]),
    )


def _emission_log_scores(series: np.ndarray) -> np.ndarray:
    """Sum of normalized squared-change log-weights along each series.

    Normalization is by the largest squared step change over the whole
    candidate set, so scores are comparative within one buffer.
    """
    q = np.diff(series, axis=1) ** 2
    top = q.max()
    return np.log((q + _EMISSION_EPS) / (top + _EMISSION_EPS)).sum(axis=1)


def _ranked_paths(
    means: np.ndarray, tables: _PathTables
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every candidate path over buffered cell means (T, rows, cols).

    Returns the intensity series of the paths in `tables`, their
    log-likelihoods, and the path indices by descending likelihood; ties go
    to the lowest terminal window, then the lexicographically first path
    (lexsort is stable).
    """
    series = means.ravel()[tables.gather]
    scores = tables.transition + _emission_log_scores(series)
    order = np.lexsort((tables.terminal, -scores))
    return series, scores, order


def _frame_cell_means(samples: np.ndarray, grid: SubWindowGrid) -> np.ndarray:
    """Mean intensity of every sub-window in one frame, shape (rows, cols)."""
    ws = grid.window_size
    cropped = samples[: grid.rows * ws, : grid.columns * ws]
    return cropped.reshape(grid.rows, ws, grid.columns, ws).mean(axis=(1, 3))


def _median(values: np.ndarray) -> float:
    """np.median of all of `values`, bit for bit, from a one-kth partition.

    np.median partitions at the middle pair and at the end (its nan check),
    and that costs several times more on a few thousand values.
    """
    flat = values.ravel()
    half = flat.size // 2
    part = np.partition(flat, half)
    # nan sorts last, so any nan lands at or after half
    if np.isnan(part[half:].max()):
        return math.nan
    if flat.size % 2:
        return float(part[half])
    return float((part[:half].max() + part[half]) / 2.0)


def _dtft_kernel(length: int, sample_rate: float, freqs: np.ndarray) -> np.ndarray:
    """DTFT terms of `length` samples at sample_rate, shape (length, n_freqs)."""
    t = np.arange(length)
    return np.exp(-2j * np.pi * np.outer(t, freqs) / sample_rate)


def _amplitude_matrix(series: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """|DTFT| of each mean-removed series at each kernel frequency, (n_series, n_freqs)."""
    centered = series - series.mean(axis=1, keepdims=True)
    return np.abs(centered @ kernel)


class MdpmTracker:
    """Rolling-buffer front end for per-frame detection.

    Buffers the sub-window means of the last buffer_length frames, so each
    pushed frame is reduced exactly once. The DTFT kernel is built with the
    tracker and the path tables with the first frame, so a push builds
    neither.
    """

    def __init__(self, config: MdpmConfig = MdpmConfig()):
        self.config = config
        self.grid: SubWindowGrid | None = None  # set by the first frame
        self._tables: _PathTables | None = None  # set with the grid
        self._means: deque[np.ndarray] = deque(maxlen=config.buffer_length)
        # the scanned frequencies: the gait band in _BAND_STEP steps
        lo, hi = config.band
        self._freqs = lo + _BAND_STEP * np.arange(round((hi - lo) / _BAND_STEP) + 1)
        self._kernel = _dtft_kernel(config.buffer_length, config.sample_rate, self._freqs)

    def push(self, frame: np.ndarray) -> SpectralDetection | None:
        """Add a frame (samples in [0, 1], shape (height, width)); detect once full."""
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError(f"frame must be 2-D (height, width), got shape {frame.shape}")
        height, width = frame.shape
        if self.grid is None:
            self.grid = SubWindowGrid.for_frame(width, height, self.config.window_size)
            self._tables = _path_tables(
                self.grid.rows, self.grid.columns, self.config.buffer_length
            )
        elif (width, height) != (self.grid.frame_width, self.grid.frame_height):
            raise ValueError(
                f"frame dimensions changed mid-stream: {width}x{height} after "
                f"{self.grid.frame_width}x{self.grid.frame_height}"
            )
        self._means.append(_frame_cell_means(frame, self.grid))
        if len(self._means) < self.config.buffer_length:
            return None
        return self._detect(np.stack(self._means))

    def _detect(self, means: np.ndarray) -> SpectralDetection | None:
        """Detection over a full buffer of cell means (T, rows, cols)."""
        config, freqs, terminal = self.config, self._freqs, self._tables.terminal
        series, _, order = _ranked_paths(means, self._tables)
        survivors = order[: config.prune_count]

        amplitudes = _amplitude_matrix(series, self._kernel)
        threshold = config.threshold_factor * _median(amplitudes)

        sub = amplitudes[survivors]
        best_amp = float(sub.max())
        if not best_amp > threshold:
            return None
        hits = np.argwhere(sub == best_amp)
        # lowest terminal window first, then lowest frequency
        key = [(int(terminal[survivors[d]]), float(freqs[k])) for d, k in hits]
        d_best, k_best = hits[min(range(len(key)), key=key.__getitem__)]
        window = int(terminal[survivors[d_best]])
        confidence = min(1.0, best_amp / (means.shape[0] / 2.0))
        return SpectralDetection(
            window_index=window,
            peak_frequency=float(freqs[k_best]),
            amplitude=best_amp,
            bbox=self.grid.cell_bbox(window, confidence),
        )
