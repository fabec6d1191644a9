"""Dataset ingestion, windowed featurization, synthetic data, and the
package's one JSON reader and one output-file writer.

``read_json`` reads a config, a checkpoint or a manifest; a file that is
missing, is not UTF-8 JSON or cannot be read is the caller's error naming
the file. ``open_output`` opens every output file, text or binary, and one
it cannot write is a ConfigError naming it. ``write_csv`` writes every CSV
(dataset streams, loss traces, reports, alpha dumps, rollouts) through it:
floats with ``repr``, which reads back bit-exact, other cells with ``str``,
a cell holding a comma quoted, and each line ending in ``\\n``.

On-disk dataset format: a directory with ``manifest.json`` holding the
trajectory list (no window width, that is ``TrainConfig.window``, and no
frame rate, which nothing reads), and one CSV per agent per trajectory
(header row, fixed column order). The observed agent streams 3 arm joints
(shoulder, elbow, wrist) as 3D positions with the shoulder as origin; the
generated agent streams joint angles. Features are sliding windows of 5
frames: positions plus frame-to-frame deltas for the observed agent
(5 x 3 x 6 = 90 wide), stacked joint angles for the generated agent
(5 x n_joints).
"""

from __future__ import annotations

import contextlib
import csv
import json
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from comotion.errors import ConfigError, DataError

H_COLUMNS = [
    f"{joint}_{ax}" for joint in ("shoulder", "elbow", "wrist") for ax in "xyz"
]


@dataclass
class TrajectoryPair:
    """Time-aligned streams of the observed (h) and generated (r) agents."""

    label: str
    h_frames: np.ndarray  # (T, 9) shoulder/elbow/wrist xyz, shoulder origin
    r_frames: np.ndarray  # (T, n_r) joint angles (or task-space values)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.h_frames = np.asarray(self.h_frames, dtype=np.float64)
        self.r_frames = np.asarray(self.r_frames, dtype=np.float64)
        if self.h_frames.shape[0] != self.r_frames.shape[0]:
            raise DataError(
                f"trajectory {self.label!r}: agents have different lengths "
                f"({self.h_frames.shape[0]} vs {self.r_frames.shape[0]})"
            )
        if not (np.all(np.isfinite(self.h_frames)) and np.all(np.isfinite(self.r_frames))):
            raise DataError(f"trajectory {self.label!r} contains non-finite values")

    @property
    def length(self) -> int:
        return self.h_frames.shape[0]


@dataclass
class Dataset:
    pairs: list[TrajectoryPair]
    assignment: list[str] | None = None  # "train"/"test" per pair

    @property
    def labels(self) -> list[str]:
        return sorted({p.label for p in self.pairs})

    def subset(self, which: str) -> list[TrajectoryPair]:
        if self.assignment is None:
            raise DataError("dataset has no train/test assignment; call split first")
        return [p for p, a in zip(self.pairs, self.assignment) if a == which]


def window_features(frames: np.ndarray, w: int, kind: str) -> np.ndarray:
    """Sliding windows of width ``w``, stride 1.

    kind "positions": each frame contributes, per joint, its 3 positions
    followed by its 3 deltas (first frame's delta is zero), giving
    w * n_joints * 6 columns. kind "joints": plain stacking, w * n_cols.
    """
    frames = np.asarray(frames, dtype=np.float64)
    T = frames.shape[0]
    if kind == "positions":
        if T < w + 1:
            raise DataError(f"need at least {w + 1} frames for position windows, got {T}")
        deltas = np.zeros_like(frames)
        deltas[1:] = frames[1:] - frames[:-1]
        n_joints = frames.shape[1] // 3
        per_frame = np.empty((T, n_joints * 6))
        for j in range(n_joints):
            per_frame[:, 6 * j : 6 * j + 3] = frames[:, 3 * j : 3 * j + 3]
            per_frame[:, 6 * j + 3 : 6 * j + 6] = deltas[:, 3 * j : 3 * j + 3]
    elif kind == "joints":
        if T < w:
            raise DataError(f"need at least {w} frames for joint windows, got {T}")
        per_frame = frames
    else:
        raise ValueError(f"unknown feature kind {kind!r}")
    n_win = T - w + 1
    width = per_frame.shape[1]
    out = np.empty((n_win, w * width))
    for i in range(w):
        out[:, i * width : (i + 1) * width] = per_frame[i : i + n_win]
    return out


def pair_features(pair: TrajectoryPair, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (h windows, r windows) for one trajectory."""
    return (
        window_features(pair.h_frames, w, "positions"),
        window_features(pair.r_frames, w, "joints"),
    )


# ---------------------------------------------------------------------------
# synthetic coupled interactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthInteraction:
    """Parametric reach-hold-retract interaction with coupled agents."""

    name: str = "greeting"
    n_traj: int = 40
    length: int = 100
    noise: float = 0.05


@dataclass(frozen=True)
class SynthSpec:
    interactions: tuple[SynthInteraction, ...] = (SynthInteraction(),)

    @classmethod
    def from_dict(cls, d) -> "SynthSpec":
        """Spec of a ``synth`` config entry; an unknown interaction key or a
        malformed value is a ConfigError naming the field, such as
        ``synth.interactions`` or ``synth.interactions.0.n_traj``."""
        if not isinstance(d, dict):
            raise ConfigError(f"config field synth must be an object, got {d!r}")
        config_keys(d, ("interactions",), "synth")
        entries = config_field(d, "interactions", [{}], "synth.interactions",
                               "a non-empty list", lambda v: isinstance(v, list) and len(v) > 0)
        inter = []
        for k, entry in enumerate(entries):
            name = f"synth.interactions.{k}"
            if not isinstance(entry, dict):
                raise ConfigError(f"config field {name} must be an object, got {entry!r}")
            config_keys(entry, _INTERACTION_RULES, "synth.interactions")
            for key, (what, ok) in _INTERACTION_RULES.items():
                config_field(entry, key, getattr(SynthInteraction, key), f"{name}.{key}", what, ok)
            inter.append(SynthInteraction(**entry))
        return cls(tuple(inter))


def is_int(value) -> bool:
    """An integer config value; JSON ``true`` and ``false`` are not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A real config value; JSON ``true`` and ``false`` are not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_INTERACTION_RULES = {  # SynthInteraction field: (what it must be, its test)
    "name": ("a string", lambda v: isinstance(v, str)),
    "n_traj": ("a positive integer", lambda v: is_int(v) and v > 0),
    # the phase profile divides by zero below 3 frames
    "length": ("an integer of at least 3", lambda v: is_int(v) and v >= 3),
    "noise": ("a non-negative number", lambda v: is_number(v) and v >= 0),
}


def config_field(entry: dict, key: str, default, name: str, what: str, ok):
    """``entry[key]``, or ``default`` when absent; a ConfigError naming the
    field ``name`` unless ``ok(value)``."""
    value = entry.get(key, default)
    if not ok(value):
        raise ConfigError(f"config field {name} must be {what}, got {value!r}")
    return value


def config_keys(entry: dict, known, name: str) -> None:
    """A ConfigError naming ``entry``'s keys outside ``known``, if any."""
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise ConfigError(f"config field {name}: unknown keys {unknown}")


_REST = {"elbow": np.array([0.02, -0.09, -0.26]), "wrist": np.array([0.04, -0.08, -0.52])}
_EXT = {"elbow": np.array([0.24, -0.10, -0.10]), "wrist": np.array([0.50, -0.12, 0.02])}

# generated-agent joint curves, affine in (a*phase, oscillation)
_R_BASE = np.array([-1.1, 0.15, -0.10, 0.25])
_R_PHASE = np.array([1.5, 0.45, -0.50, 0.90])
_R_OSC = np.array([0.0, 0.0, 0.0, 0.20])


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def synth_generate(spec: SynthSpec, rng: np.random.Generator) -> Dataset:
    """Coupled pairs where the generated agent is an affine function of the
    observed agent's (jittered) phase plus i.i.d. noise."""
    if not spec.interactions:
        raise ValueError("empty synthetic spec")
    pairs = []
    for inter in spec.interactions:
        for _ in range(inter.n_traj):
            pairs.append(_one_trajectory(inter, rng))
    return Dataset(pairs)


def _one_trajectory(inter: SynthInteraction, rng: np.random.Generator) -> TrajectoryPair:
    T = inter.length
    t = np.arange(T)
    t1 = int(rng.uniform(0.32, 0.42) * T)
    t2 = int(rng.uniform(0.62, 0.72) * T)
    amp = 1.0 + rng.uniform(-0.15, 0.15)
    phase = np.empty(T)
    phase[:t1] = _smoothstep(t[:t1] / t1)
    phase[t1:t2] = 1.0
    phase[t2:] = _smoothstep((T - 1 - t[t2:]) / (T - 1 - t2))
    osc = np.zeros(T)
    hold = slice(t1, t2)
    u_hold = (t[hold] - t1) / max(t2 - t1, 1)
    osc[hold] = np.sin(4.0 * np.pi * u_hold)
    aphase = amp * phase

    h = np.zeros((T, 9))
    h[:, 3:6] = _REST["elbow"] + aphase[:, None] * (_EXT["elbow"] - _REST["elbow"])
    h[:, 6:9] = _REST["wrist"] + aphase[:, None] * (_EXT["wrist"] - _REST["wrist"])
    h[:, 8] += 0.05 * amp * osc
    r = _R_BASE + aphase[:, None] * _R_PHASE + osc[:, None] * _R_OSC
    if inter.noise > 0:
        h = h + inter.noise * rng.standard_normal(h.shape)
        r = r + inter.noise * rng.standard_normal(r.shape)
    meta = {
        "aphase": aphase,
        "osc": osc,
        "contact_start": t1,
        "contact_end": t2,
        "amp": amp,
    }
    return TrajectoryPair(inter.name, h, r, meta)


# ---------------------------------------------------------------------------
# persistence and splitting
# ---------------------------------------------------------------------------


def read_json(path: str | Path, what: str, error: type[Exception]):
    """The parsed JSON document at ``path``; a file that is missing, is not
    JSON or not UTF-8 text, or cannot be read raises ``error`` naming
    ``what`` and the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise error(f"missing {what}: {path}") from None
    except ValueError as exc:  # not JSON, or not text
        raise error(f"malformed {what} {path}: {exc}") from None
    except OSError as exc:  # a directory, or not readable
        raise error(f"unreadable {what} {path}: {exc.strerror}") from None


@contextlib.contextmanager
def output_errors(path: str | Path):
    """An OSError inside, from creating or writing ``path``, is a
    ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


@contextlib.contextmanager
def open_output(path: str | Path, binary: bool = False):
    """``path`` opened to write text (bytes when ``binary``), its directory
    created; the write-side twin of ``read_json``: an OSError while creating
    the directory (a file of its name exists, say) or opening or writing the
    file (a directory of its name exists) is a ConfigError naming the file."""
    path = Path(path)
    with output_errors(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") if binary else open(path, "w", newline="") as f:
            yield f


def write_csv(path: str | Path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` through ``open_output``;
    floats are written with ``repr`` and other cells with ``str``."""
    with open_output(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, float) else str(x) for x in row])


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    entries = []
    for i, pair in enumerate(dataset.pairs):
        h_name = f"traj{i:04d}_h.csv"
        r_name = f"traj{i:04d}_r.csv"
        write_csv(path / h_name, H_COLUMNS, pair.h_frames)
        write_csv(path / r_name, [f"q{j + 1}" for j in range(pair.r_frames.shape[1])], pair.r_frames)
        meta = {
            k: v for k, v in pair.meta.items() if not isinstance(v, np.ndarray)
        }
        entries.append({"label": pair.label, "h": h_name, "r": r_name, "meta": meta})
    with open_output(path / "manifest.json") as f:
        json.dump({"trajectories": entries}, f, indent=1, sort_keys=True)


def _read_csv(path: Path) -> np.ndarray:
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            rows = [[float(x) for x in row] for row in reader]
    except FileNotFoundError:
        raise DataError(f"missing data file: {path}") from None
    except OSError as exc:  # a directory, or not readable
        raise DataError(f"unreadable data file {path}: {exc.strerror}") from None
    except (ValueError, StopIteration) as exc:  # not numbers, not text, or empty
        raise DataError(f"malformed CSV {path}: {exc}") from None
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(header):
        raise DataError(f"malformed CSV {path}: ragged rows")
    return arr


def load_dataset(path: str | Path) -> Dataset:
    """Read a ``save_dataset`` directory; a manifest key other than
    ``trajectories`` (such as the ``rate`` or ``w`` older manifests carry)
    is ignored."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    manifest = read_json(manifest_path, "manifest", DataError)
    bad = f"malformed manifest {manifest_path}: field"
    entries = manifest.get("trajectories") if isinstance(manifest, dict) else None
    if not (isinstance(entries, list) and entries):
        raise DataError(f"{bad} trajectories must be a non-empty list, got {entries!r}")
    pairs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{bad} trajectories.{i} must be an object, got {entry!r}")
        for key in ("label", "h", "r"):
            if not isinstance(entry.get(key), str):
                raise DataError(f"{bad} trajectories.{i}.{key} must be a string, got {entry.get(key)!r}")
        meta = entry.get("meta", {})
        if not isinstance(meta, dict):
            raise DataError(f"{bad} trajectories.{i}.meta must be an object, got {meta!r}")
        pairs.append(
            TrajectoryPair(
                entry["label"],
                _read_csv(path / entry["h"]),
                _read_csv(path / entry["r"]),
                dict(meta),
            )
        )
    return Dataset(pairs)


def split(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Deterministic stratified train/test assignment.

    Per label, round(fraction * n) trajectories go to train (kept within
    one of the target and never the full label when it has two or more).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    assignment = ["test"] * len(dataset.pairs)
    for label in dataset.labels:
        idx = [i for i, p in enumerate(dataset.pairs) if p.label == label]
        order = rng.permutation(len(idx))
        n_train = int(round(fraction * len(idx)))
        if len(idx) >= 2:
            n_train = min(max(n_train, 1), len(idx) - 1)
        for j in order[:n_train]:
            assignment[idx[j]] = "train"
    return replace(dataset, assignment=assignment)
