"""Seeded inputs and command sequences of the benchmark workloads.

Each workload is a fixed list of `loravg` CLI commands run on files that
`generate` writes from the seed alone.  The program under test only ever
sees those files (and the seed, where a command draws random trials).
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SWEEP_ATOMS = 400
SWEEP_SIDE = 10.0
SWEEP_R = 1.0
SWEEP_TRIALS = 8

LINE_ATOMS = 4000
LINE_LENGTH = 1000.0
LINE_R = 5.0
LINE_K = 60

WEIGHT_RANGE = (0.2, 3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep",
            "Repeated queries on a mid-size explicit matrix: full O(n^3) validation on "
            "every load and hundreds of thresholds, each rebuilding c and A_r f.",
            {"atoms": SWEEP_ATOMS, "trials": {"distribution": 1, "rearrange": SWEEP_TRIALS,
             "equicontinuity": SWEEP_TRIALS, "operator-bound": SWEEP_TRIALS},
             "thresholds_expected": 2 * SWEEP_ATOMS + 1},
        ),
        Workload(
            "large-line",
            "One-shot big arrays on a 4000-atom 1-D l1 cloud: the n x n x d broadcast in "
            "from_cloud, the n x n kernel and the quad norm path; bound by memory.",
            {"atoms": LINE_ATOMS, "witness_k": LINE_K, "fn_decimals": 2},
        ),
    )
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, separators=(",", ":")))
    return path


def _euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """Exactly symmetric Euclidean distances with a zero diagonal."""
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    dist = np.maximum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def generate(name: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's input files for this seed; return them by role."""
    directory.mkdir(parents=True, exist_ok=True)
    if name == "sweep":
        rng = _rng(seed, 1)
        coords = rng.uniform(0.0, SWEEP_SIDE, (SWEEP_ATOMS, 2))
        weights = rng.uniform(*WEIGHT_RANGE, SWEEP_ATOMS)
        space = {"kind": "matrix", "dist": _euclidean_matrix(coords).tolist(),
                 "weights": weights.tolist()}
        return {"space": _write_json(directory / "space.json", space)}
    if name == "large-line":
        rng = _rng(seed, 2)
        coords = np.sort(rng.uniform(0.0, LINE_LENGTH, LINE_ATOMS))
        weights = rng.uniform(*WEIGHT_RANGE, LINE_ATOMS)
        values = np.round(rng.standard_normal(LINE_ATOMS), 2)
        space = {"kind": "cloud", "metric": "l1", "coords": coords[:, None].tolist(),
                 "weights": weights.tolist()}
        return {"space": _write_json(directory / "space.json", space),
                "fn": _write_json(directory / "fn.json", {"values": values.tolist()})}
    raise KeyError(f"unknown workload {name!r}")


def commands(name: str, files: dict[str, Path], seed: int) -> list[list[str]]:
    """The workload's CLI argument lists, in the order they run."""
    space = str(files["space"])
    if name == "sweep":
        verify = ["verify", "--space", space, "--r", f"{SWEEP_R:g}", "--seed", str(seed)]
        trials = ["--trials", str(SWEEP_TRIALS)]
        return [
            ["build-space", "--space", space],
            verify + ["--lemma", "distribution", "--p", "2", "--q", "2", "--trials", "1"],
            verify + ["--lemma", "rearrange", "--p", "2", "--q", "2"] + trials,
            verify + ["--lemma", "equicontinuity", "--p", "2", "--q", "2"] + trials,
            verify + ["--lemma", "operator-bound", "--variant", "double-star",
                      "--p", "3", "--q", "2"] + trials,
        ]
    if name == "large-line":
        fn = str(files["fn"])
        r = f"{LINE_R:g}"
        return [
            ["avg", "--space", space, "--fn", fn, "--r", r],
            ["norm", "--space", space, "--fn", fn, "--variant", "double-star",
             "--p", "3", "--q", "1.5"],
            ["verify", "--lemma", "operator-bound", "--space", space, "--fn", fn,
             "--r", r, "--p", "3", "--q", "2"],
            ["witness", "--space", space, "--r", r, "--k", str(LINE_K),
             "--p", "2", "--q", "2"],
        ]
    raise KeyError(f"unknown workload {name!r}")
