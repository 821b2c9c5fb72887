"""The four workloads: the CLI calls each repetition makes, and the checks on their outputs.

Every check compares an output file against a closed form or a pinned
threshold, never against another run, so a repetition is verified on its own.
Why each workload exists is in README.md next to this file.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONFIGS = Path(__file__).resolve().parent / "configs"
README_CONFIG = CONFIGS / "readme.json"
PHASESPACE_CONFIG = CONFIGS / "verify_phasespace.json"
GRID_CONFIG = CONFIGS / "verify_grid.json"

SAMPLE_TIME = 0.785
SAMPLE_COUNT = 100000
WIGNER_TIME = 3.141
WIGNER_NODES = 128 * 128
RABI_ROWS = 5  # t_end 6.284 / dt 1e-3 sampled every 1571 steps, t = 0 included
# 3 standard errors would fail on 0.27% of seeds by chance alone; at 4 the chance
# is 6e-5 per seed, while a bias of 0.02 photons still fails (SE is about 0.004).
MC_STANDARD_ERRORS = 4.0


@dataclass(frozen=True)
class Workload:
    """One repetition calls ``semicav.cli.main`` with ``--config config --out <dir>``
    followed by each argument list of ``verbs(seed)``. ``check(out, statuses)``
    returns named pass/fail results and measured values; ``hashed`` names the
    seeded outputs that must not change between the repetitions of one
    invocation."""

    config: Path
    verbs: Callable[[int], list[list[str]]]
    check: Callable[[Path, list], tuple[dict[str, bool], dict[str, float]]]
    hashed: tuple[str, ...] = ()


def _read_table(path: Path) -> np.ndarray:
    """Numeric rows of a semicav CSV (one metadata line, one header line)."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def _within(values: np.ndarray, tol: float) -> bool:
    return values.size > 0 and bool(np.all(np.abs(values) <= tol))


def check_rabi(out: Path, statuses: list) -> tuple[dict[str, bool], dict[str, float]]:
    t, pe_oracle, pe_swe, _, n_swe, linf = _read_table(out / "rabi_timeseries.csv").T
    cos2 = np.cos(t) ** 2
    return {
        "exit_status": statuses == [0],
        "rows": t.size == RABI_ROWS,
        "P_e_oracle_cos2": _within(pe_oracle - cos2, 1e-6),
        "P_e_swe_cos2": _within(pe_swe - cos2, 1e-6),
        "n_swe_sin2": _within(n_swe - np.sin(t) ** 2, 1e-5),
        "linf_husimi": _within(linf, 1e-7),
    }, {"max_linf_husimi": float(linf.max())}


def check_verify(out: Path, statuses: list) -> tuple[dict[str, bool], dict[str, float]]:
    report = json.loads((out / "verify.json").read_text())
    checks = report["checks"]
    values = {"swe_err": c["error"] for c in checks if c["name"] == "swe_density_equivalence"}
    return {
        "exit_status": statuses == [0],
        "all_pass": report["all_pass"] is True and len(checks) > 0
        and all(c["pass"] for c in checks),
    }, values


def wigner_closed_form(a2: np.ndarray, t: float) -> np.ndarray:
    """Wigner function of the field after vacuum Rabi oscillation from |e, 0>:
    cos^2 t |0><0| + sin^2 t |1><1|."""
    return (2 / np.pi) * np.exp(-2 * a2) * (np.cos(t) ** 2 + np.sin(t) ** 2 * (4 * a2 - 1))


def check_snapshot(out: Path, statuses: list) -> tuple[dict[str, bool], dict[str, float]]:
    samples = _read_table(out / f"samples_t{SAMPLE_TIME:g}.csv")
    a2 = samples[:, 0] ** 2 + samples[:, 1] ** 2
    norm_err = np.sqrt(np.sum(samples[:, 2:] ** 2, axis=1)) - 1.0
    stderr = a2.std(ddof=1) / np.sqrt(a2.size)
    deviation = abs(a2.mean() - (np.sin(SAMPLE_TIME) ** 2 + 1.0))
    x, y, w = _read_table(out / f"field_wigner_t{WIGNER_TIME:g}.csv").T
    wigner_err = np.abs(w - wigner_closed_form(x ** 2 + y ** 2, WIGNER_TIME))
    return {
        "exit_status": statuses == [0, 0],
        "sample_rows": a2.size == SAMPLE_COUNT,
        "unit_norm_states": _within(norm_err, 1e-12),
        "mc_mean_abs2": bool(deviation <= MC_STANDARD_ERRORS * stderr),
        "wigner_rows": w.size == WIGNER_NODES,
        "wigner_closed_form": _within(wigner_err, 1e-6),
    }, {"mc_deviation_in_se": float(deviation / stderr), "wigner_err": float(wigner_err.max())}


WORKLOADS = {
    "rabi-coeff": Workload(
        config=README_CONFIG,
        verbs=lambda seed: [["rabi"]],
        check=check_rabi,
        hashed=("rabi_timeseries.csv",),
    ),
    "verify-grid": Workload(
        config=GRID_CONFIG,
        verbs=lambda seed: [["--backend", "grid", "verify"]],
        check=check_verify,
    ),
    "snapshot-io": Workload(
        config=README_CONFIG,
        verbs=lambda seed: [
            ["--seed", str(seed), "sample", "--time", str(SAMPLE_TIME),
             "--count", str(SAMPLE_COUNT)],
            ["phasespace", "--kind", "wigner", "--time", str(WIGNER_TIME)],
        ],
        check=check_snapshot,
        hashed=(f"samples_t{SAMPLE_TIME:g}.csv",),
    ),
    "verify-phasespace": Workload(
        config=PHASESPACE_CONFIG,
        verbs=lambda seed: [["verify"]],
        # the coefficient backend's swe_err is round-off, so it is not reported
        check=lambda out, statuses: (check_verify(out, statuses)[0], {}),
    ),
}
