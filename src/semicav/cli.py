"""Scenario runner: configures models, drives the solvers, writes CSV/JSON.

One JSON config document describes a scenario; presets are expanded to
explicit matrices before validation so that every emitted report contains
the matrices actually used. Verbs:

* ``rabi``        side-by-side oracle / SWE run with a time-series CSV
* ``phasespace``  evolve to a time and dump one field on the grid
* ``sample``      draw classical field values at a fixed time
* ``verify``      run the identity suite at config scale, exit 0 iff clean
"""

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from semicav import fockspace, phasespace, swe, unitary

_DEFAULT_CONFIG = {
    "model": {"preset": "two-level", "g": 1.0},
    "fock": {"n_max": 8},
    "grid": {"L": 5.0, "M": 128},
    "time": {"t_end": 6.284, "dt": 1e-3, "sample_stride": 1571},
    "sampling": {"count": 100000, "seed": 20210527},
}


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def _matrix_from_json(model_doc: dict, key: str) -> np.ndarray:
    """``model_doc[key]``, a square list of rows of ``[re, im]`` number pairs, as a
    complex matrix. Refuses, naming the key, any other shape or entry type."""
    rows = _read(model_doc, "model", key, list)
    d = len(rows)
    entries = [z for row in rows if isinstance(row, list) and len(row) == d for z in row]
    if len(entries) != d * d or not all(isinstance(z, list) and len(z) == 2 and all(
            type(x) in (int, float) for x in z) for z in entries):  # bool is not a number
        raise ValueError(f"{key} in model must be a square list of rows of [re, im] "
                         f"number pairs, got {rows!r}")
    return np.array([complex(re, im) for re, im in entries], dtype=complex).reshape(d, d)


def _read(part: dict, section: str, key: str, kind: type, default=None):
    """``part[key]`` (or ``default``, if given, for a missing key) as ``kind``. Refuses,
    naming the key, another JSON type, a boolean and, for ``int``, a fractional number."""
    value = part[key] if default is None else part.get(key, default)
    types, noun = {int: ((int, float), "an integer"), float: ((int, float), "a number"),
                   str: ((str,), "a string"), list: ((list,), "a list"),
                   dict: ((dict,), "an object")}[kind]
    if not isinstance(value, types) or isinstance(value, bool) \
            or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} in {section} must be {noun}, got {value!r}")
    return kind(value)


@dataclass
class ScenarioConfig:
    """Validated scenario description: explicit model matrices, Fock basis and grid."""

    model: unitary.AtomFieldModel
    fock: fockspace.FockBasis
    grid: phasespace.PhaseGrid
    t_end: float
    dt: float
    sample_stride: int
    swe_backend: str
    sample_count: int
    sample_seed: int
    output_dir: str

    def __post_init__(self):
        if self.swe_backend not in ("bargmann", "grid"):
            raise ValueError(f"unknown backend {self.swe_backend!r}")
        for name in ("t_end", "dt"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")
        if self.sample_count < 1:
            raise ValueError(f"sampling count must be >= 1, got {self.sample_count}")
        if self.sample_seed < 0:
            raise ValueError(f"sampling seed must be >= 0, got {self.sample_seed}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"top level must be an object, got {doc!r}")
        model_doc, fock, grid, time = (_read(doc, "top level", section, dict)
                                       for section in ("model", "fock", "grid", "time"))
        sampling = _read(doc, "top level", "sampling", dict, {})
        preset = model_doc.get("preset")
        if preset not in (None, "two-level"):
            raise ValueError(f"unknown model preset {preset!r}")
        model_keys = "preset g detuning omega" if preset else "atom_dim h_ato j omega"
        for section, part, keys in (
                ("top level", doc, "model fock grid time swe_backend sampling output_dir"),
                ("model", model_doc, model_keys), ("fock", fock, "n_max"), ("grid", grid, "L M"),
                ("time", time, "t_end dt sample_stride"), ("sampling", sampling, "count seed")):
            if unknown := sorted(set(part) - set(keys.split())):
                raise ValueError(f"unknown config key(s) {', '.join(unknown)} in {section}")
        if preset:
            model = unitary.two_level_model(
                g=_read(model_doc, "model", "g", float),
                detuning=_read(model_doc, "model", "detuning", float, 0.0),
                omega=_read(model_doc, "model", "omega", float, 1.0),
            )
        else:
            model = unitary.AtomFieldModel(
                atom_dim=_read(model_doc, "model", "atom_dim", int),
                h_ato=_matrix_from_json(model_doc, "h_ato"),
                j=_matrix_from_json(model_doc, "j"),
                omega=_read(model_doc, "model", "omega", float),
            )
        return cls(
            model=model,
            fock=fockspace.FockBasis(_read(fock, "fock", "n_max", int)),
            grid=phasespace.PhaseGrid(_read(grid, "grid", "L", float),
                                      _read(grid, "grid", "M", int)),
            t_end=_read(time, "time", "t_end", float),
            dt=_read(time, "time", "dt", float),
            sample_stride=_read(time, "time", "sample_stride", int, 1),
            swe_backend=_read(doc, "top level", "swe_backend", str, "bargmann"),
            sample_count=_read(sampling, "sampling", "count", int, 10000),
            sample_seed=_read(sampling, "sampling", "seed", int, 0),
            output_dir=_read(doc, "top level", "output_dir", str, "semicav_out"),
        )

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "model": {
                "atom_dim": self.model.atom_dim,
                "h_ato": _matrix_to_json(self.model.h_ato),
                "j": _matrix_to_json(self.model.j),
                "omega": self.model.omega,
            },
            "fock": {"n_max": self.fock.n_max},
            "grid": {"L": self.grid.L, "M": self.grid.M},
            "time": {"t_end": self.t_end, "dt": self.dt, "sample_stride": self.sample_stride},
            "swe_backend": self.swe_backend,
            "output_dir": self.output_dir,
            "sampling": {"count": self.sample_count, "seed": self.sample_seed},
        }

    def composite_space(self) -> fockspace.CompositeSpace:
        return fockspace.CompositeSpace(self.model.atom_dim, self.fock)

    def time_grid(self) -> unitary.TimeGrid:
        return unitary.TimeGrid(0.0, self.t_end, self.dt, self.sample_stride)


def _write_csv(path: Path, header_meta: dict, columns: list[str], table: np.ndarray) -> None:
    """The one CSV writer: a ``# key=value`` metadata line, a header, then each
    row of the ``(N, len(columns))`` float table as shortest round-trip floats.

    Rows go in blocks of 4096, each row keyed by its bytes (``0.0`` and ``-0.0`` print
    apart). A block without repeats is written as formatted, and nothing of it is kept.
    A block that repeats a row, of itself or of the cache (a ``sample`` row of a node drawn
    before), caches each new row, formatted once, and is written from the cache. So memory
    is bounded by one block plus the distinct rows of the blocks with repeats."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = table.view(f"V{table.itemsize * table.shape[1]}").ravel()
    row_format = ",".join(["{}"] * table.shape[1]) + "\r\n"
    lines: dict[bytes, str] = {}
    with open(path, "w", newline="") as fh:
        meta = " ".join(f"{k}={v}" for k, v in header_meta.items())
        fh.write(f"# {meta}\n")
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(table), 4096):
            block = keys[start:start + 4096].tolist()
            new = {key: i for i, key in enumerate(block) if key not in lines}
            rows = table[start:start + 4096][list(new.values())]
            text = (row_format * len(rows)).format(*map(repr, rows.ravel().tolist()))
            if len(new) < len(block):
                lines.update(zip(new, text.splitlines(True)))
                text = "".join(map(lines.__getitem__, block))
            fh.write(text)


def _grid_table(grid: phasespace.PhaseGrid, values: np.ndarray) -> np.ndarray:
    """(M^2, 2 + k) table of x, y and the k real values per node, row-major over the grid."""
    a = grid.nodes().ravel()
    return np.column_stack((a.real, a.imag, values.reshape(a.size, -1)))


def _oracle(config: ScenarioConfig, tgrid: unitary.TimeGrid) -> unitary.Trajectory:
    """The oracle run from the start of both pictures, ``swe.initial_wave`` of atomic level 0."""
    level0 = np.eye(config.model.atom_dim)[0]
    return unitary.evolve_unitary(config.model, swe.initial_wave(level0, config.fock), tgrid)


def _swe(config: ScenarioConfig, tgrid: unitary.TimeGrid, oracle=None) -> list:
    """The SWE run on the config's backend from the start state of ``_oracle``. On the
    coefficient backend the SWE is the oracle's equation, so the waves are the states of
    ``oracle``, an ``_oracle`` run on ``tgrid``, or of one such run made here."""
    if config.swe_backend == "bargmann":
        return (oracle or _oracle(config, tgrid)).states
    return swe.evolve_swe(config.model,
                          swe.initial_wave(np.eye(config.model.atom_dim)[0], config.grid), tgrid)


def cmd_rabi(config: ScenarioConfig) -> dict:
    """Run oracle and SWE side by side; emit rabi_timeseries.csv and report.json.

    Returns the report: the expanded config and one row per sample time, read from what the
    sample holds: the table |Y|² of the oracle's amplitudes, the planes |ψ_i|² of the grid
    wave, and the comparison's ``|a|^2`` moment, minus the vacuum's 1, as the SWE's n."""
    grid = config.grid
    tgrid = config.time_grid()
    trajectory = _oracle(config, tgrid)
    waves = _swe(config, tgrid, trajectory)

    report = {"config": config.to_dict(), "rows": []}
    photons = np.arange(config.fock.dim)
    for t, state, wave in zip(trajectory.times, trajectory.states, waves, strict=True):
        p = np.abs(state.as_matrix()) ** 2
        gwave = swe.evaluate_on_grid(wave, grid)
        comparison = swe.compare_to_oracle(gwave, state, grid)
        p_swe = np.sum(np.abs(gwave.values) ** 2, axis=(1, 2)) * grid.weight
        report["rows"].append({
            "t": float(t),
            "P_atomic_levels_oracle": p.sum(axis=1).tolist(),
            "P_atomic_levels_swe": p_swe.tolist(),
            "n_oracle": float(p.sum(axis=0) @ photons),
            "n_swe_via_noise_subtraction": comparison.moments["|a|^2"]["swe"]["re"] - 1.0,
            "comparison": comparison.to_json_dict(),
        })

    out = Path(config.output_dir)
    _write_csv(
        out / "rabi_timeseries.csv",
        {"scenario": "rabi", "L": grid.L, "M": grid.M, "n_max": config.fock.n_max,
         "backend": config.swe_backend},
        ["t", "P_e_oracle", "P_e_swe", "n_oracle", "n_swe_via_noise_subtraction",
         "linf_husimi"],
        np.array([(row["t"], row["P_atomic_levels_oracle"][0], row["P_atomic_levels_swe"][0],
                   row["n_oracle"], row["n_swe_via_noise_subtraction"],
                   row["comparison"]["linf"]) for row in report["rows"]]),
    )
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def read_field_csv(path) -> tuple[dict, np.ndarray]:
    """Re-load a ``phasespace`` field CSV from its header metadata alone.

    Returns the metadata dict and the (M, M) value array.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ValueError("missing metadata header")
        meta = {}
        for token in header[2:].split():
            key, raw = token.split("=", 1)
            try:
                meta[key] = int(raw) if raw.lstrip("-").isdigit() else float(raw)
            except ValueError:
                meta[key] = raw
        if len(fh.readline().split(",")) != 3:
            raise ValueError("unexpected column layout for a scalar field")
        values = np.loadtxt(fh, delimiter=",", usecols=2)
    M = int(meta["M"])
    return meta, values.reshape(M, M)


def _time_grid_to(config: ScenarioConfig, t: float) -> unitary.TimeGrid:
    """Steps of ``config.dt`` from 0 to ``t``, sampled at both ends only."""
    return unitary.TimeGrid(0.0, t, config.dt, max(1, round(t / config.dt)))


def cmd_phasespace(config: ScenarioConfig, t: float, kind: str) -> Path:
    """Evolve to time ``t`` and dump the requested field as CSV."""
    if kind not in ("wigner", "husimi", "swe-density"):
        raise ValueError(f"unknown field kind {kind!r}")
    grid = config.grid
    space = config.composite_space()
    tgrid = _time_grid_to(config, t)
    meta = {"kind": kind, "L": grid.L, "M": grid.M, "time": t, "n_max": config.fock.n_max}
    if kind == "swe-density":
        wave = swe.evaluate_on_grid(_swe(config, tgrid)[-1], grid)
        column, values = "density", swe.field_density(wave).values
    else:
        state = _oracle(config, tgrid).states[-1]
        rho_field = fockspace.partial_trace_atom(unitary.density_operator(state), space)
        if kind == "wigner":
            column, values = "value", phasespace.wigner(rho_field, grid).values
        else:
            column, values = "value", phasespace.husimi_function(rho_field, grid).values
    path = Path(config.output_dir) / f"field_{kind}_t{t:g}.csv"
    _write_csv(path, meta, ["x", "y", column], _grid_table(grid, np.real(values)))
    return path


def cmd_sample(config: ScenarioConfig, t: float) -> Path:
    """Draw classical field samples at time ``t`` and write them as CSV."""
    wave = swe.evaluate_on_grid(_swe(config, _time_grid_to(config, t))[-1], config.grid)
    samples = swe.sample_field(wave, config.sample_count, config.sample_seed)
    path = Path(config.output_dir) / f"samples_t{t:g}.csv"
    state_cols = [f"{part}_psi{i}" for i in range(wave.atom_dim) for part in ("re", "im")]
    table = np.column_stack((samples.a.real, samples.a.imag,
                             samples.conditional_state.view(float)))
    _write_csv(path, {"kind": "samples", "time": t, "count": config.sample_count,
                      "seed": config.sample_seed, "L": config.grid.L, "M": config.grid.M},
               ["a_re", "a_im", *state_cols], table)
    return path


def _verify_identities(config: ScenarioConfig) -> list[dict]:
    """Measured error and threshold for each cross-picture identity."""
    rng = np.random.default_rng(11)
    space = config.composite_space()
    grid = config.grid
    checks: list[dict] = []

    def record(name: str, error: float, threshold: float) -> None:
        checks.append({"name": name, "error": float(error), "threshold": float(threshold),
                       "pass": bool(error <= threshold)})

    # ladder superoperators commute on operators supported below the edge
    basis = config.fock
    a = fockspace.annihilation(basis)
    ad = a.conj().T
    worst = 0.0
    keep = basis.dim - 2
    for _ in range(20):
        op = np.zeros((basis.dim, basis.dim), complex)
        op[:keep, :keep] = rng.normal(size=(keep, keep)) + 1j * rng.normal(size=(keep, keep))
        comm = (fockspace.symmetric_product(a, fockspace.symmetric_product(ad, op))
                - fockspace.symmetric_product(ad, fockspace.symmetric_product(a, op)))
        worst = max(worst, float(np.max(np.abs(comm))))
    record("superop_commutativity", worst, 1e-10)

    # characteristic function: product-form route equals direct displacement.
    # The identity needs headroom between state support and truncation edge,
    # so this check floors the mode dimension independently of the config.
    chi_basis = fockspace.FockBasis(max(24, basis.n_max))
    worst = 0.0
    supp = chi_basis.dim // 2 - 2
    for _ in range(10):
        v = np.zeros(chi_basis.dim, complex)
        v[:supp] = rng.normal(size=supp) + 1j * rng.normal(size=supp)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        lam = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.random())
        two = phasespace.superop_characteristic_function(rho, lam, chi_basis).value
        one = phasespace.characteristic_function(rho, lam).value
        worst = max(worst, abs(two - one))
    record("characteristic_two_routes", worst, 1e-8)

    # shared random composite state, supported below the truncation edge
    d, nf = space.atom_dim, space.fock.dim
    low = (rng.normal(size=(d, nf - 2)) + 1j * rng.normal(size=(d, nf - 2)))
    v = np.concatenate([np.pad(low[i], (0, 2)) for i in range(d)])
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())

    # smoothing a sharp density must reproduce the coherent-state diagonal
    direct = phasespace.husimi_density(rho, space, grid)
    sharp = phasespace.sharp_density(rho, space, grid)
    smoothed = phasespace._convolve_with_kernel(sharp.values, grid)
    record("husimi_two_routes", float(np.max(np.abs(smoothed - direct.values))),
           5.0 * grid.tol)

    # sharp and coarse moment identities, monomials up to degree 2, each read from the
    # field's atomic trace, formed once
    sharp_tr, q_fn = (phasespace.PhaseFunction(grid, np.einsum("iixy->xy", f.values))
                      for f in (sharp, direct))
    worst_sharp = worst_coarse = 0.0
    q_moments = {}
    for j, k in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        obs = phasespace.SemiclassicalObservable.from_poly({(j, k): 1.0})
        op_side = phasespace.symmetric_moment_oracle(obs, rho, basis)
        ps_side = phasespace.phase_space_moment(sharp_tr, j, k)
        worst_sharp = max(worst_sharp, abs(op_side - ps_side))
        op_coarse = phasespace.symmetric_moment_oracle(phasespace.coarse_grain(obs), rho, basis)
        q_moments[j, k] = phasespace.phase_space_moment(q_fn, j, k)
        worst_coarse = max(worst_coarse, abs(op_coarse - q_moments[j, k]))
    del sharp, direct, smoothed, sharp_tr, q_fn  # the SWE block below reads none of them
    record("sharp_moment_identity", worst_sharp, 1e-5)
    record("coarse_moment_identity", worst_coarse, 1e-5)

    # shifted number operator against the second moment of the Q-function
    shifted = phasespace.symmetric_moment_oracle(
        phasespace.SemiclassicalObservable.from_poly({(1, 1): 1.0, (0, 0): 0.5}), rho, basis)
    record("number_shift_identity", abs(shifted - q_moments[1, 1]), 1e-5)

    # photon number by noise subtraction, against the amplitudes' Fock populations
    exact_n = float((np.abs(v.reshape(d, nf)) ** 2).sum(axis=0) @ np.arange(nf))
    record("photon_number_identity", abs(q_moments[1, 1].real - 1.0 - exact_n), 1e-4)

    # swe against the oracle on a quarter Rabi period
    quarter = np.pi / 4.0
    n_steps = max(1, int(round(quarter / config.dt)))
    tgrid = _time_grid_to(config, n_steps * config.dt)
    oracle = _oracle(config, tgrid)
    state = oracle.states[-1]
    gwave = swe.evaluate_on_grid(_swe(config, tgrid, oracle)[-1], grid)
    comparison = swe.compare_to_oracle(gwave, state, grid)
    swe_threshold = 1e-7 if config.swe_backend == "bargmann" else 1e-3 * comparison.oracle_max
    record("swe_density_equivalence", comparison.linf, swe_threshold)

    record("total_probability", abs(gwave.total_probability() - 1.0), grid.tol)

    # the comparison's |a|^2 moment against the coarse-grained operator route
    op_value = phasespace.symmetric_moment_oracle(
        phasespace.coarse_grain(phasespace.SemiclassicalObservable.abs_square()),
        unitary.density_operator(state), basis)
    record("swe_expectation_match",
           abs(comparison.moments["|a|^2"]["swe"]["re"] - float(np.real(op_value))), 1e-5)

    return checks


def cmd_verify(config: ScenarioConfig) -> tuple[int, dict]:
    """Run the identity suite; exit status 0 iff every check passes."""
    checks = _verify_identities(config)
    report = {"all_pass": all(c["pass"] for c in checks), "checks": checks}
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "verify.json").write_text(json.dumps(report, indent=2) + "\n")
    return (0 if report["all_pass"] else 1), report


def _load_config(args) -> ScenarioConfig:
    """The config file or the built-in defaults, with the command-line overrides
    applied through the constructor so that they are validated like the file."""
    if args.config:
        config = ScenarioConfig.from_file(args.config)
    else:
        config = ScenarioConfig.from_dict(_DEFAULT_CONFIG)
    overrides = {"swe_backend": args.backend, "output_dir": args.out,
                 "sample_seed": args.seed, "sample_count": getattr(args, "count", None)}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="semicav",
                                     description="cavity-QED semiclassical simulator")
    parser.add_argument("--config", help="path to a scenario JSON document")
    parser.add_argument("--backend", choices=["bargmann", "grid"],
                        help="override the SWE backend")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("rabi", help="oracle vs SWE time series")
    p_field = sub.add_parser("phasespace", help="dump one phase-space field")
    p_field.add_argument("--time", type=float, default=0.0)
    p_field.add_argument("--kind", choices=["wigner", "husimi", "swe-density"],
                         default="husimi")
    p_sample = sub.add_parser("sample", help="draw classical field samples")
    p_sample.add_argument("--time", type=float, default=0.0)
    p_sample.add_argument("--count", type=int)
    sub.add_parser("verify", help="run the identity suite")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except (OSError, KeyError, TypeError, ValueError) as err:
        parser.error(f"config is missing the key {err}" if isinstance(err, KeyError) else str(err))
    try:
        _time_grid_to(config, getattr(args, "time", 0.0))  # rabi and verify take no --time
    except (OverflowError, ValueError):
        parser.error(f"--time {args.time:g} is not a non-negative multiple of dt {config.dt:g}")
    if args.verb == "verify":
        try:  # the kernel depends on the grid alone; the checks of the other verbs need a state
            phasespace.vacuum_kernel(config.grid)
        except ValueError as err:
            parser.error(f"grid L {config.grid.L:g}, M {config.grid.M} is too coarse: {err}")
    oracle = args.verb in ("rabi", "verify") or getattr(args, "kind", None) in ("wigner", "husimi")
    if oracle or config.swe_backend == "bargmann":  # the runs that reach integrate_coupling
        try:
            unitary.check_coupling_dt(config.model, config.composite_space(), config.dt)
        except ValueError as err:
            parser.error(f"dt {config.dt:g} in time is too coarse: {err}")

    if args.verb == "rabi":
        try:
            config.time_grid()
        except (OverflowError, ValueError):
            parser.error(f"t_end {config.t_end:g} in time is not a multiple of dt {config.dt:g}")
        report = cmd_rabi(config)
        print(f"wrote {Path(config.output_dir) / 'rabi_timeseries.csv'} "
              f"({len(report['rows'])} samples)")
        return 0
    if args.verb == "phasespace":
        path = cmd_phasespace(config, args.time, args.kind)
        print(f"wrote {path}")
        return 0
    if args.verb == "sample":
        path = cmd_sample(config, args.time)
        print(f"wrote {path}")
        return 0
    if args.verb == "verify":
        status, report = cmd_verify(config)
        for check in report["checks"]:
            state = "pass" if check["pass"] else "FAIL"
            print(f"{check['name']}: error {check['error']:.3e} "
                  f"(threshold {check['threshold']:.1e}) {state}")
        return status
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
