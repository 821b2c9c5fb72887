import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicav.cli import (
    ScenarioConfig,
    cmd_phasespace,
    cmd_rabi,
    cmd_sample,
    cmd_verify,
    main,
    read_field_csv,
)
import semicav
from semicav import fockspace, phasespace, swe, unitary
from semicav.cli import _write_csv
from semicav.unitary import AtomFieldModel


def small_config(tmp_path, **overrides):
    doc = {
        "model": {"preset": "two-level", "g": 1.0, "detuning": 0.0, "omega": 1.0},
        "fock": {"n_max": 6},
        "grid": {"L": 5.0, "M": 64},
        "time": {"t_end": 0.5, "dt": 1e-3, "sample_stride": 100},
        "swe_backend": "bargmann",
        "sampling": {"count": 2000, "seed": 11},
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return ScenarioConfig.from_dict(doc)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is recorded; returns the list of the
    positional arguments of each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# the names of verify's checks, in the order verify.json lists them
VERIFY_CHECKS = ["superop_commutativity", "characteristic_two_routes", "husimi_two_routes",
                 "sharp_moment_identity", "coarse_moment_identity", "number_shift_identity",
                 "photon_number_identity", "swe_density_equivalence", "total_probability",
                 "swe_expectation_match"]

finite = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def scenario_configs(draw):
    d = draw(st.integers(1, 3))
    entries = st.lists(st.tuples(finite, finite), min_size=d * d, max_size=d * d)
    A = np.array([complex(re, im) for re, im in draw(entries)]).reshape(d, d)
    j = np.array([complex(re, im) for re, im in draw(entries)]).reshape(d, d)
    return ScenarioConfig(
        model=AtomFieldModel(d, h_ato=A + A.conj().T, j=j,
                             omega=draw(st.floats(0.0, 1e3, allow_nan=False))),
        fock=fockspace.FockBasis(draw(st.integers(2, 40))),
        grid=phasespace.PhaseGrid(draw(st.floats(0.1, 20.0)), 2 ** draw(st.integers(5, 9))),
        t_end=draw(st.floats(1e-3, 1e3)),
        dt=draw(st.floats(1e-6, 1.0)),
        sample_stride=draw(st.integers(1, 10 ** 6)),
        swe_backend=draw(st.sampled_from(["bargmann", "grid"])),
        sample_count=draw(st.integers(1, 10 ** 6)),
        sample_seed=draw(st.integers(0, 2 ** 32 - 1)),
        output_dir=draw(st.text(min_size=1, max_size=20)),
    )


def read_csv(path):
    with open(path) as fh:
        header = fh.readline()
        assert header.startswith("# ")
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [row for row in reader]
    return header, columns, rows


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        config = small_config(tmp_path)
        doc = config.to_dict()
        again = ScenarioConfig.from_dict(doc)
        assert again.to_dict() == doc

    def test_preset_expands_to_explicit_matrices(self, tmp_path):
        config = small_config(tmp_path)
        doc = config.to_dict()
        assert "preset" not in doc["model"]
        assert doc["model"]["j"][1][0] == [1.0, 0.0]
        assert doc["model"]["h_ato"][0][0] == [0.5, 0.0]

    def test_backend_validation(self, tmp_path):
        with pytest.raises(ValueError):
            small_config(tmp_path, swe_backend="magnus")

    @pytest.mark.parametrize("overrides, message", [
        ({"fock": {"n_max": 1}}, "n_max must be >= 2"),
        ({"grid": {"L": 5.0, "M": 100}}, "power of two"),
        ({"grid": {"L": -2.0, "M": 64}}, "L must be positive"),
        ({"time": {"t_end": 0.5, "dt": -1.0, "sample_stride": 100}}, "dt must be positive"),
        ({"time": {"t_end": 0.5, "dt": 0.0, "sample_stride": 100}}, "dt must be positive"),
        ({"time": {"t_end": -1.0, "dt": 1e-3, "sample_stride": 100}}, "t_end must be positive"),
        ({"time": {"t_end": 0.5, "dt": 1e-3, "sample_stride": 0}}, "sample_stride"),
        ({"sampling": {"count": 0, "seed": 1}}, "sampling count"),
        ({"sampling": {"count": 10, "seed": -1}}, "sampling seed"),
        ({"time": {"t_end": 0.5, "dt": 1e-3, "sample_strid": 100}}, "sample_strid in time"),
        ({"seed": 3}, "seed in top level"),
        ({"model": {"preset": "two-level", "g": 1.0, "detunning": 0.1}}, "detunning in model"),
        ({"model": {"preset": "three-level", "g": 1.0}}, "preset 'three-level'"),
        ({"model": {"atom_dim": 1, "h_ato": [[[0, 0]]], "j": [[[1, 0]]], "omega": 1.0,
                    "g": 1.0}}, "g in model"),
        ({"fock": {"n_max": 6, "M": 64}}, "M in fock"),
        ({"grid": {"L": 5.0, "M": 64, "n": 1}}, "n in grid"),
        ({"sampling": {"count": 10, "sed": 1}}, "sed in sampling"),
        ({"model": {"preset": "two-level", "g": 1.0, "omega": float("nan")}}, "must be finite"),
        ({"fock": {"n_max": 4.7}}, "n_max in fock must be an integer, got 4.7"),
        ({"grid": {"L": 5.0, "M": 64.5}}, "M in grid must be an integer"),
        ({"time": {"t_end": 0.5, "dt": 1e-3, "sample_stride": 99.5}}, "sample_stride in time"),
        ({"sampling": {"count": 10.5, "seed": 1}}, "count in sampling must be an integer"),
        ({"sampling": {"count": 10, "seed": 1.5}}, "seed in sampling must be an integer"),
        ({"sampling": {"count": True, "seed": 1}}, "count in sampling must be an integer, got True"),
        ({"fock": {"n_max": "6"}}, "n_max in fock must be an integer, got '6'"),
        ({"fock": 5}, "fock in top level must be an object, got 5"),
        ({"sampling": [10, 1]}, "sampling in top level must be an object"),
        ({"model": {"preset": "two-level", "g": "x"}}, "g in model must be a number, got 'x'"),
        ({"model": {"atom_dim": 1, "h_ato": 0, "j": [[[1, 0]]], "omega": 1.0}},
         "h_ato in model must be a list"),
        ({"swe_backend": 1}, "swe_backend in top level must be a string"),
        ({"model": {"atom_dim": 1, "h_ato": [[["x", 0]]], "j": [[[1, 0]]], "omega": 1.0}},
         r"h_ato in model must be a square list of rows of \[re, im\] number pairs"),
        ({"model": {"atom_dim": 1, "h_ato": [[[0, 0]]], "j": [[[1]]], "omega": 1.0}},
         "j in model must be a square list"),
        ({"model": {"atom_dim": 1, "h_ato": [[[0, 0]]], "j": [[[True, 0]]], "omega": 1.0}},
         "j in model must be a square list"),
        ({"model": {"atom_dim": 2, "h_ato": [[[0, 0], [0, 0]], [[0, 0]]],
                    "j": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "omega": 1.0}},
         "h_ato in model must be a square list"),
        ({"model": {"atom_dim": 1, "h_ato": [[0]], "j": [[[1, 0]]], "omega": 1.0}},
         "h_ato in model must be a square list"),
        ({"model": {"atom_dim": 0, "h_ato": [], "j": [], "omega": 1.0}},
         "atom_dim must be >= 1, got 0"),
    ])
    def test_invalid_values_are_refused_at_load(self, tmp_path, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_config(tmp_path, **overrides)

    def test_json_nan_is_refused(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config(tmp_path).to_dict()).replace(
            '"omega": 1.0', '"omega": NaN'))
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioConfig.from_file(path)

    def test_shipped_configs_load(self):
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text()
        docs = [json.loads(readme.split("A config document looks like\n\n```json\n")[1]
                           .split("```")[0])]
        configs = sorted((root / "perfbench" / "configs").glob("*.json"))
        docs += [json.loads(path.read_text()) for path in configs]
        assert len(docs) == 4
        for doc in docs:
            ScenarioConfig.from_dict(doc)

    def test_missing_sampling_loads_as_the_defaults(self, tmp_path):
        # from_dict is the one source of the defaults, and to_dict records them
        doc = small_config(tmp_path).to_dict()
        del doc["sampling"]
        config = ScenarioConfig.from_dict(doc)
        assert (config.sample_count, config.sample_seed) == (10000, 0)
        again = config.to_dict()
        assert list(again)[-1] == "sampling"
        assert again["sampling"] == {"count": 10000, "seed": 0}
        assert ScenarioConfig.from_dict(again).to_dict() == again

    def test_from_file(self, tmp_path):
        config = small_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ScenarioConfig.from_file(path)
        assert loaded.to_dict() == config.to_dict()


class TestJsonFloats:
    @settings(max_examples=50, deadline=None)
    @given(scenario_configs())
    def test_config_json_round_trip(self, config):
        doc = config.to_dict()
        again = ScenarioConfig.from_dict(json.loads(json.dumps(doc)))
        assert again.to_dict() == doc
        assert (again.sample_count, again.sample_seed) == (config.sample_count,
                                                           config.sample_seed)

    def test_17_digit_round_trip(self, tmp_path):
        # cmd_rabi returns what it writes: every float of report.json loads back
        # bit-equal to the returned report
        config = small_config(tmp_path)
        report = cmd_rabi(config)
        payload = json.loads((Path(config.output_dir) / "report.json").read_text())
        assert payload == report


class TestRabiCommand:
    # the grid case at L 6, M 32: at L 5, M 64 its linf reads 4.9e-7, over the 1e-7 bound
    @pytest.mark.parametrize("backend, L, M", [("bargmann", 5.0, 64), ("grid", 6.0, 32)],
                             ids=["bargmann", "grid"])
    def test_timeseries_and_report(self, tmp_path, monkeypatch, backend, L, M):
        couplings = count_calls(monkeypatch, unitary, "integrate_coupling")
        swe_runs = count_calls(monkeypatch, swe, "evolve_swe")
        comparisons = count_calls(monkeypatch, swe, "compare_to_oracle")
        expectations = count_calls(monkeypatch, swe, "swe_expectation")
        observables = count_calls(monkeypatch, phasespace.SemiclassicalObservable,
                                  "__post_init__")
        config = small_config(tmp_path, swe_backend=backend, grid={"L": L, "M": M})
        report = cmd_rabi(config)
        # one oracle run; the coefficient backend's waves are its states
        assert (len(couplings), len(swe_runs)) == (1, int(backend == "grid"))
        # one readout per sample, from the comparison and the amplitudes alone
        assert len(comparisons) == len(report["rows"])
        assert (len(expectations), len(observables)) == (0, 0)
        header, columns, rows = read_csv(Path(config.output_dir) / "rabi_timeseries.csv")
        assert f"backend={backend}" in header
        assert columns[0] == "t" and "P_e_oracle" in columns
        assert len(rows) == len(report["rows"]) == 6
        for row in rows:
            t = float(row[0])
            assert float(row[1]) == pytest.approx(np.cos(t) ** 2, abs=1e-8)
            assert float(row[2]) == pytest.approx(np.cos(t) ** 2, abs=1e-6)
            assert float(row[4]) == pytest.approx(np.sin(t) ** 2, abs=1e-4)
            assert float(row[5]) <= 1e-7
        with open(Path(config.output_dir) / "report.json") as fh:
            payload = json.load(fh)
        times = [r["t"] for r in payload["rows"]]
        assert times == sorted(times)
        assert payload["config"]["model"]["atom_dim"] == 2

    # the largest deviations read 4.4e-12 and 2.1e-10 (coefficient), 5.5e-14 and 4.1e-13 (grid)
    @pytest.mark.parametrize("backend, L, dt, t_end, stride, p_tol, n_tol", [
        ("bargmann", 5.0, 1e-3, 0.5, 100, 1e-10, 1e-8),
        ("grid", 8.0, 4e-3, 0.4, 25, 1e-12, 1e-11),
    ], ids=["bargmann", "grid"])
    def test_every_level_on_three_levels(self, tmp_path, three_level_model, backend, L, dt,
                                         t_end, stride, p_tol, n_tol):
        config = small_config(tmp_path, swe_backend=backend, fock={"n_max": 10},
                              grid={"L": L, "M": 64},
                              time={"t_end": t_end, "dt": dt, "sample_stride": stride})
        config.model = three_level_model
        rows = cmd_rabi(config)["rows"]
        assert len(rows) == round(t_end / dt) // stride + 1
        for row in rows:
            p_swe, p_oracle = row["P_atomic_levels_swe"], row["P_atomic_levels_oracle"]
            assert len(p_swe) == len(p_oracle) == 3
            np.testing.assert_allclose(p_swe, p_oracle, rtol=0, atol=p_tol)
            assert abs(row["n_swe_via_noise_subtraction"] - row["n_oracle"]) <= n_tol
            assert abs(sum(p_swe) - row["comparison"]["moments"]["1"]["swe"]["re"]) <= 1e-15

    def test_runs_at_the_preflight_limit(self, tmp_path):
        # dt ||H_I|| = 0.0495 passes the 0.05 refusal; both pictures then hold the run
        # to one probability tolerance, so the SWE finishes where the oracle does
        doc = {"model": {"preset": "two-level", "g": 1.0}, "fock": {"n_max": 8},
               "grid": {"L": 5.0, "M": 128},
               "time": {"t_end": 6.3, "dt": 0.0175, "sample_stride": 360}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "rabi"]) == 0

    def test_deterministic_report(self, tmp_path):
        config = small_config(tmp_path)
        cmd_rabi(config)
        first = (Path(config.output_dir) / "report.json").read_bytes()
        cmd_rabi(config)
        second = (Path(config.output_dir) / "report.json").read_bytes()
        assert first == second


class TestPhasespaceCommand:
    def test_initial_husimi_is_gaussian(self, tmp_path):
        config = small_config(tmp_path)
        path = cmd_phasespace(config, 0.0, "husimi")
        header, columns, rows = read_csv(path)
        assert "kind=husimi" in header and "M=64" in header
        assert columns == ["x", "y", "value"]
        assert len(rows) == 64 * 64
        for row in rows[:: 697]:
            x, y, value = (float(v) for v in row)
            assert value == pytest.approx(np.exp(-(x * x + y * y)) / np.pi, abs=1e-8)

    def test_half_period_density_ring(self, tmp_path):
        config = small_config(tmp_path, time={"t_end": 1.57, "dt": 1e-3, "sample_stride": 157})
        path = cmd_phasespace(config, 1.57, "swe-density")
        _, _, rows = read_csv(path)
        for row in rows[:: 313]:
            x, y, value = (float(v) for v in row)
            r2 = x * x + y * y
            expected = (np.cos(1.57) ** 2 + r2 * np.sin(1.57) ** 2) * np.exp(-r2) / np.pi
            assert value == pytest.approx(expected, abs=1e-6)

    def test_wigner_negative_after_half_period(self, tmp_path):
        # at half period the whole excitation sits in the mode, so the field
        # is the one-photon state with its negative dip at the origin
        config = small_config(tmp_path, time={"t_end": 1.57, "dt": 1e-3, "sample_stride": 157})
        path = cmd_phasespace(config, 1.57, "wigner")
        _, _, rows = read_csv(path)
        values = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert values[(0.0, 0.0)] < -0.6

    def test_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_phasespace(small_config(tmp_path), 0.0, "glauber")

    @pytest.mark.parametrize("kind", ["husimi", "wigner"])
    def test_truncation_overflow_writes_no_field(self, tmp_path, kind):
        # a sigma_x current does not conserve excitations, so by t = 1.5 the
        # oracle's probability reaches the top level of an n_max 4 mode
        sz = [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
        sx = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config(
            tmp_path, model={"atom_dim": 2, "h_ato": sz, "j": sx, "omega": 1.0},
            fock={"n_max": 4}).to_dict()))
        with pytest.raises(RuntimeError, match="truncation edge"):
            main(["--config", str(path), "phasespace", "--kind", kind, "--time", "1.5"])
        assert not (tmp_path / "out" / f"field_{kind}_t1.5.csv").exists()

    def test_zero_time_runs_the_evolve_path(self, tmp_path):
        # t = 0 is an ordinary run of zero steps, so the oracle's dt guard applies
        config = small_config(tmp_path, time={"t_end": 0.5, "dt": 0.1, "sample_stride": 1})
        with pytest.raises(ValueError, match="reduce dt"):
            cmd_phasespace(config, 0.0, "wigner")
        with pytest.raises(ValueError, match="must not precede"):
            cmd_phasespace(small_config(tmp_path), -0.5, "husimi")
        with pytest.raises(ValueError, match="integer"):
            cmd_phasespace(small_config(tmp_path), 0.0005, "husimi")


class TestSampleCommand:
    def test_writes_deterministic_samples(self, tmp_path):
        config = small_config(tmp_path)
        config = replace(config, sample_count=1000, sample_seed=5)
        path = cmd_sample(config, 0.0)
        first = path.read_bytes()
        path = cmd_sample(config, 0.0)
        assert path.read_bytes() == first
        header, columns, rows = read_csv(path)
        assert "seed=5" in header
        assert columns[:2] == ["a_re", "a_im"]
        assert len(rows) == 1000
        # initial wave: conditional state is the excited atom everywhere
        for row in rows[::97]:
            assert float(row[2]) == pytest.approx(1.0, abs=1e-12)
            assert float(row[5]) == pytest.approx(0.0, abs=1e-12)

    def test_config_without_sampling_draws_what_it_records(self, tmp_path):
        doc = small_config(tmp_path).to_dict()
        del doc["sampling"]
        config = ScenarioConfig.from_dict(doc)
        header, _, rows = read_csv(cmd_sample(config, 0.0))
        assert len(rows) == config.sample_count == 10000
        assert config.sample_seed == 0 and " count=10000 seed=0 " in header

    def test_conditional_states_average_to_reduced_atomic_state(self, tmp_path):
        # the conditional states read back from the CSV average, E[c c+], to the
        # oracle's Tr_field rho at the sample time, entry by entry within 5 standard errors
        config = replace(small_config(tmp_path), sample_count=20000, sample_seed=1)
        table = np.loadtxt(cmd_sample(config, 0.5), delimiter=",", skiprows=2)
        c = table[:, 2:].view(complex)
        space = config.composite_space()
        initial = unitary.product_initial_state(np.eye(space.atom_dim)[0],
                                                np.eye(space.fock.dim)[0], space)
        state = unitary.evolve_unitary(config.model, initial, config.time_grid()).states[-1]
        rho_atom = fockspace.partial_trace_field(unitary.density_operator(state), space)
        outer = c[:, :, None] * c[:, None, :].conj()
        se = outer.std(axis=0, ddof=1) / np.sqrt(len(c))  # sqrt(E|x - Ex|^2 / N) per entry
        deviation = np.abs(outer.mean(axis=0) - rho_atom)
        assert np.all(deviation <= 5.0 * se), (deviation, se)
        assert 0.2 < rho_atom[1, 1].real < 0.3  # sin^2(0.5): the atom has moved

    def test_rows_repeat_per_node(self, tmp_path):
        # a sample's row is its node and the state normalized there, so a node
        # drawn twice gives the same line twice: at most M^2 distinct lines
        config = replace(small_config(tmp_path, fock={"n_max": 8}, grid={"L": 5.0, "M": 128}),
                         sample_count=2000, sample_seed=1)
        with open(cmd_sample(config, 0.785), newline="") as fh:
            lines = fh.readlines()[2:]
        assert len(lines) == 2000
        line_at_node = {}
        for line in lines:
            fields = line.removesuffix("\r\n").split(",")
            assert fields == [repr(float(field)) for field in fields]
            assert line_at_node.setdefault((fields[0], fields[1]), line) == line
        assert len(set(lines)) == len(line_at_node) <= config.grid.M ** 2
        assert len(line_at_node) < len(lines)


class TestVerifyCommand:
    # L 6, M 32 is coarse, but the state fits: no check may refuse it
    @pytest.mark.parametrize("L, M, backend", [
        (5.0, 64, "bargmann"), (6.0, 32, "bargmann"), (6.0, 32, "grid"),
    ], ids=["L5-M64", "L6-M32", "grid-L6-M32"])
    def test_default_config_passes(self, tmp_path, monkeypatch, L, M, backend):
        couplings = count_calls(monkeypatch, unitary, "integrate_coupling")
        swe_runs = count_calls(monkeypatch, swe, "evolve_swe")
        comparisons = count_calls(monkeypatch, swe, "compare_to_oracle")
        long_ways = [count_calls(monkeypatch, module, name) for module, name in (
            (swe, "swe_expectation"), (phasespace, "photon_number_from_husimi"),
            (fockspace.CompositeSpace, "field_operator"))]
        moments = count_calls(monkeypatch, phasespace, "phase_space_moment")
        config = small_config(tmp_path, fock={"n_max": 8}, grid={"L": L, "M": M},
                              swe_backend=backend)
        status, report = cmd_verify(config)
        assert (len(couplings), len(swe_runs)) == (1, int(backend == "grid"))
        # one readout per check: six sharp and six coarse moments, each from a traced field,
        # and the SWE's |a|^2 integral from the one comparison
        assert len(comparisons) == 1
        assert [len(calls) for calls in long_ways] == [0, 0, 0]
        assert len(moments) == 12
        assert not any(isinstance(args[0], phasespace.OperatorPhaseField) for args in moments)
        assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
        assert status == 0
        assert report["all_pass"]
        photon = next(c for c in report["checks"] if c["name"] == "photon_number_identity")
        assert photon["error"] <= 1e-4
        payload = json.loads((Path(config.output_dir) / "verify.json").read_text())
        assert payload["all_pass"] is True

    def test_three_level_model_passes(self, tmp_path, three_level_model):
        config = small_config(tmp_path, fock={"n_max": 10}, grid={"L": 6.0, "M": 128},
                              time={"t_end": 0.5, "dt": 2e-3, "sample_stride": 250})
        config.model = three_level_model
        status, report = cmd_verify(config)
        assert status == 0, [c for c in report["checks"] if not c["pass"]]
        assert len(report["checks"]) == 10

    def test_corrupted_kernel_is_detected(self, tmp_path, monkeypatch):
        def too_wide(grid):
            # unvalidated kernel with 1.2 times the vacuum noise amplitude
            s2 = 1.2 ** 2
            r2 = np.abs(grid.nodes()) ** 2
            return (2.0 / (np.pi * s2)) * np.exp(-2.0 * r2 / s2)

        monkeypatch.setattr(phasespace, "vacuum_kernel", too_wide)
        config = small_config(tmp_path, fock={"n_max": 8})
        status, report = cmd_verify(config)
        assert status == 1
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert failed == {"husimi_two_routes"}

    @pytest.mark.parametrize("backend", ["bargmann", "grid"])
    def test_wrong_kernel_moment_fails_its_two_checks(self, tmp_path, monkeypatch, backend):
        # the shared Q side merges no checks: coarse_grain's kernel moment p!/2^p, read as
        # p!/2^(p+1) (coarse_grain is the one caller of factorial in phasespace), fails the
        # two checks that go through it; number_shift_identity's operator side is written
        # out by hand
        monkeypatch.setattr(phasespace, "factorial", lambda p: factorial(p) / 2)
        config = small_config(tmp_path, fock={"n_max": 8}, grid={"L": 6.0, "M": 32},
                              swe_backend=backend)
        status, report = cmd_verify(config)
        assert status == 1
        errors = {c["name"]: c["error"] for c in report["checks"] if not c["pass"]}
        assert set(errors) == {"coarse_moment_identity", "swe_expectation_match"}
        # the planted route reads (n + 1/2)/2 + 1/4 for the Q's n + 1, n = sin^2 t at the
        # quarter period's last step, t = 0.785
        n = np.sin(0.785) ** 2
        assert errors["swe_expectation_match"] == pytest.approx((n + 1) / 2, abs=1e-5)

    @pytest.mark.parametrize("backend", ["bargmann", "grid"])
    def test_parity_on_the_column_index_fails_its_two_checks(self, tmp_path, monkeypatch,
                                                             backend):
        # blocks times (-1)^n (-1)^m move sharp_density's parity from the row index n of
        # B_nm to the column index m, which gives W(-a): the sharp odd moments flip sign,
        # and its smoothing no longer meets the direct Husimi density; the SWE checks read
        # no sharp density
        chi_on_grid = phasespace._chi_on_grid

        def column_parity(blocks, lam):
            n = np.arange(blocks.shape[0])
            return chi_on_grid(blocks * ((-1.0) ** np.add.outer(n, n))[:, :, None, None], lam)

        monkeypatch.setattr(phasespace, "_chi_on_grid", column_parity)
        config = small_config(tmp_path, fock={"n_max": 8}, grid={"L": 6.0, "M": 32},
                              swe_backend=backend)
        status, report = cmd_verify(config)
        assert status == 1
        errors = {c["name"]: c["error"] for c in report["checks"] if not c["pass"]}
        assert set(errors) == {"husimi_two_routes", "sharp_moment_identity"}
        assert errors["husimi_two_routes"] == pytest.approx(0.156, abs=5e-4)
        assert errors["sharp_moment_identity"] == pytest.approx(1.21, abs=5e-3)

    @pytest.mark.parametrize("backend", ["bargmann", "grid"])
    def test_reflection_from_the_unsigned_sum_fails_its_two_checks(self, tmp_path,
                                                                  monkeypatch, backend):
        # chi(-lam) formed from E + O instead of E - O is chi(lam): every node below row
        # M/2 off column 0 then holds the sharp density at -a, so the same two checks as
        # the column parity's fail, at other values
        chi_pair = phasespace._chi_pair

        def unsigned(*args):
            plus, _ = chi_pair(*args)
            return plus, plus

        monkeypatch.setattr(phasespace, "_chi_pair", unsigned)
        config = small_config(tmp_path, fock={"n_max": 8}, grid={"L": 6.0, "M": 32},
                              swe_backend=backend)
        status, report = cmd_verify(config)
        assert status == 1
        errors = {c["name"]: c["error"] for c in report["checks"] if not c["pass"]}
        assert set(errors) == {"husimi_two_routes", "sharp_moment_identity"}
        assert errors["husimi_two_routes"] == pytest.approx(0.1557, abs=5e-4)
        assert errors["sharp_moment_identity"] == pytest.approx(1.182, abs=5e-3)


class TestFieldSerialization:
    def test_scalar_field_round_trip(self, tmp_path):
        # each kind the phasespace verb writes reloads node for node; at t = 0
        # the field is the vacuum Gaussian of its kind
        config = small_config(tmp_path)
        x = config.grid.axis()
        r2 = x[:, None] ** 2 + x[None, :] ** 2
        closed_forms = {"husimi": np.exp(-r2) / np.pi, "swe-density": np.exp(-r2) / np.pi,
                        "wigner": 2.0 / np.pi * np.exp(-2.0 * r2)}
        for kind, expected in closed_forms.items():
            path = cmd_phasespace(config, 0.0, kind)
            meta, values = read_field_csv(path)
            assert (meta["kind"], meta["M"], meta["L"], meta["time"]) == (kind, 64, 5.0, 0)
            table = np.loadtxt(path, delimiter=",", skiprows=2)
            np.testing.assert_array_equal(table[:, 0].reshape(64, 64), np.broadcast_to(
                x[:, None], (64, 64)))
            np.testing.assert_array_equal(values.ravel(), table[:, 2])
            np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_refuses_non_field_csv(self, tmp_path):
        config = small_config(tmp_path)
        with pytest.raises(ValueError, match="column layout"):
            read_field_csv(cmd_sample(config, 0.0))
        bare = tmp_path / "bare.csv"
        bare.write_text("x,y,value\n0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="metadata header"):
            read_field_csv(bare)


class TestMain:
    def test_cli_phasespace_smoke(self, tmp_path):
        config = small_config(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        out_dir = str(tmp_path / "cli_out")
        status = main(["--config", str(cfg_path), "--out", out_dir,
                       "phasespace", "--time", "0", "--kind", "husimi"])
        assert status == 0
        assert (Path(out_dir) / "field_husimi_t0.csv").exists()

    def test_cli_sample_smoke(self, tmp_path):
        config = small_config(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        out_dir = str(tmp_path / "cli_out")
        status = main(["--config", str(cfg_path), "--out", out_dir, "--seed", "9",
                       "sample", "--time", "0", "--count", "100"])
        assert status == 0
        _, _, rows = read_csv(Path(out_dir) / "samples_t0.csv")
        assert len(rows) == 100

    @pytest.mark.parametrize("args, message", [
        (["--seed", "-3", "sample"], "sampling seed"),
        (["sample", "--count", "-5"], "sampling count"),
        (["sample", "--count", "0"], "sampling count"),
        (["phasespace", "--time", "0.0005"], "--time 0.0005 is not a non-negative multiple"),
        (["sample", "--time", "-1"], "--time -1 is not a non-negative multiple"),
        (["--config", "missing.json", "rabi"], "No such file or directory: 'missing.json'"),
    ])
    def test_bad_overrides_refused_before_evolving(self, tmp_path, monkeypatch, capsys, args,
                                                   message):
        def evolve(*_):
            raise AssertionError("evolved before the overrides were validated")

        monkeypatch.setattr(unitary, "evolve_unitary", evolve)
        monkeypatch.setattr(swe, "evolve_swe", evolve)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["--out", str(tmp_path / "out")] + args)
        assert exit_info.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("semicav: error: ") and message in last
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t_end, dt, message", [
        (0.5005, 1e-3, "t_end 0.5005 in time is not a multiple of dt 0.001"),
        (1e300, 1e-10, "t_end 1e+300 in time is not a multiple of dt 1e-10"),  # steps overflow
    ])
    def test_rabi_refuses_t_end_off_the_dt_lattice(self, tmp_path, monkeypatch, capsys,
                                                   t_end, dt, message):
        # loading such a config is fine: sample, phasespace and verify never read t_end
        path = tmp_path / "config.json"
        doc = small_config(tmp_path).to_dict()
        doc["time"].update(t_end=t_end, dt=dt)
        path.write_text(json.dumps(doc))
        assert ScenarioConfig.from_file(path).t_end == t_end

        def evolve(*_):
            raise AssertionError("evolved before t_end was validated")

        monkeypatch.setattr(unitary, "evolve_unitary", evolve)
        monkeypatch.setattr(swe, "evolve_swe", evolve)
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(path), "--out", str(tmp_path / "out"), "rabi"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"semicav: error: {message}"
        assert not (tmp_path / "out").exists()

    def test_verify_refuses_a_coarse_grid_before_evolving(self, tmp_path, monkeypatch, capsys):
        # the vacuum kernel depends on L and M alone, so verify refuses such a grid up front
        path = tmp_path / "config.json"
        doc = small_config(tmp_path).to_dict()
        doc["grid"] = {"L": 20.0, "M": 32}
        path.write_text(json.dumps(doc))

        def evolve(*_):
            raise AssertionError("evolved before the grid was validated")

        monkeypatch.setattr(unitary, "evolve_unitary", evolve)
        monkeypatch.setattr(swe, "evolve_swe", evolve)
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(path), "--out", str(tmp_path / "out"), "verify"])
        assert exit_info.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("semicav: error: grid L 20, M 32 is too coarse: "
                               "kernel integral 1.177")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["rabi"], ["verify"], ["phasespace", "--kind", "wigner"],
        ["--backend", "grid", "phasespace", "--kind", "husimi"],
        ["sample"], ["phasespace", "--kind", "swe-density"],
    ], ids=["rabi", "verify", "wigner", "husimi-grid-backend", "sample", "swe-density"])
    def test_coarse_dt_refused_before_evolving(self, tmp_path, monkeypatch, capsys, args):
        # every run that reaches the coefficient picture: the oracle, or the coefficient backend
        path = tmp_path / "config.json"
        doc = small_config(tmp_path).to_dict()
        doc["time"]["dt"] = 0.1
        path.write_text(json.dumps(doc))

        def evolve(*_):
            raise AssertionError("evolved before dt was validated")

        monkeypatch.setattr(unitary, "evolve_unitary", evolve)
        monkeypatch.setattr(swe, "evolve_swe", evolve)
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(path), "--out", str(tmp_path / "out")] + args)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "semicav: error: dt 0.1 in time is too coarse: dt * ||H_I|| exceeds 0.05; reduce dt")
        assert not (tmp_path / "out").exists()

    def test_coarse_dt_left_to_grid_only_runs(self, tmp_path):
        # the grid backend never reaches the coefficient picture, so dt 0.1 is not refused
        path = tmp_path / "config.json"
        doc = small_config(tmp_path).to_dict()
        doc["time"]["dt"] = 0.1
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir), "--backend", "grid",
                     "sample", "--time", "0", "--count", "10"]) == 0
        assert (out_dir / "samples_t0.csv").exists()

    @pytest.mark.parametrize("args, runs", [
        (["rabi"], 1), (["verify"], 1), (["sample", "--time", "0.1"], 1),
        (["phasespace", "--kind", "swe-density", "--time", "0.1"], 1),
        (["phasespace", "--kind", "wigner", "--time", "0.1"], 1),
        (["--backend", "grid", "sample", "--time", "0.01"], 0),
    ], ids=["rabi", "verify", "sample", "swe-density", "wigner", "grid-sample"])
    def test_one_coupling_run_per_verb(self, tmp_path, monkeypatch, args, runs):
        # a coefficient-backend SWE run is the oracle run, so no verb integrates the
        # coupling ODE twice; the grid backend's sample never reaches it
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config(tmp_path).to_dict()))
        calls = count_calls(monkeypatch, unitary, "integrate_coupling")
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), *args]) == 0
        assert len(calls) == runs

    @pytest.mark.parametrize("section, value, message", [
        ("fock", 5, "fock in top level must be an object, got 5"),
        ("model", {"preset": "two-level", "g": "x"}, "g in model must be a number, got 'x'"),
        ("fock", {"n_max": 4.7}, "n_max in fock must be an integer, got 4.7"),
        ("model", {"atom_dim": 1, "h_ato": [[["x", 0]]], "j": [[[1, 0]]], "omega": 1.0},
         "h_ato in model must be a square list of rows of [re, im] number pairs, "
         "got [[['x', 0]]]"),
        (None, [1], "top level must be an object, got [1]"),
    ])
    def test_mistyped_config_value_names_its_key(self, tmp_path, capsys, section, value, message):
        # section None replaces the whole document
        path = tmp_path / "config.json"
        doc = small_config(tmp_path).to_dict()
        doc = value if section is None else {**doc, section: value}
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(path), "rabi"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"semicav: error: {message}"

    def test_config_errors_exit_with_usage_status(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        doc = small_config(tmp_path).to_dict()
        del doc["fock"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(path), "rabi"])
        assert exit_info.value.code == 2
        assert "config is missing the key 'fock'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["rabi", "phasespace", "sample", "verify"])
    def test_every_verb_runs_from_defaults(self, tmp_path, verb):
        out_dir = tmp_path / "defaults"
        assert main(["--out", str(out_dir), verb]) == 0
        assert any(out_dir.iterdir())

    def test_verbs_load_no_scipy(self, tmp_path):
        # src/ runs on numpy alone. A fresh interpreter, because the tests import
        # scipy; with sys.modules["scipy"] set to None any import of it raises.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config(tmp_path).to_dict()))
        verbs = [["verify"], ["rabi"], ["sample"],
                 *(["phasespace", "--kind", kind] for kind in ("wigner", "husimi", "swe-density")),
                 ["--backend", "grid", "phasespace", "--kind", "swe-density", "--time", "0.1"],
                 ["--backend", "grid", "sample", "--time", "0.1"]]
        script = ("import sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from semicav.cli import main\n"
                  f"print([main(['--config', {str(path)!r}, *verb]) for verb in {verbs!r}])\n"
                  "print(sorted(m for m, module in sys.modules.items()\n"
                  "             if m.startswith('scipy') and module is not None))\n")
        src = str(Path(semicav.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, cwd=tmp_path, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == [str([0] * len(verbs)), "[]"]


def csv_module_bytes(columns, table):
    """The reference for ``_write_csv``: the csv.writer loop it replaced."""
    expected = io.StringIO(newline="")
    expected.write("# kind=test L=5.0\n")
    writer = csv.writer(expected)
    writer.writerow(columns)
    for row in table:
        writer.writerow([repr(float(v)) for v in row])
    return expected.getvalue().encode()


def rows_with_repeats(kind):
    rng = np.random.default_rng(3)
    if kind == "empty":
        return np.zeros((0, 3))
    if kind == "all-distinct":
        return rng.normal(size=(4096 + 9, 3))
    if kind == "repeat-after-first-block":
        table = rng.normal(size=(2 * 4096 + 5, 3))
        table[[17, 4096, 4097, 2 * 4096 + 4]] = table[5]  # first seen in block 1
        return table
    if kind == "signed-zero":
        # equal as floats, not as bytes: keyed by value they would print alike
        return np.array([[1.5, 0.0, 2.0], [1.5, -0.0, 2.0]] * 3000)
    special = np.array([[np.nan, 1.0, -np.nan], [np.inf, -np.inf, 0.0], [5e-324, -5e-324, 1.0]])
    return special[rng.integers(0, 3, 5000)]


class TestCsvWriter:
    def test_bytes_match_the_csv_module(self, tmp_path):
        # the reference is the csv.writer loop the block writer replaced, over
        # more than one block and the floats whose repr is special
        rng = np.random.default_rng(2)
        table = rng.normal(size=(4096 + 7, 3)) * 10.0 ** rng.integers(-300, 300, (4103, 3))
        table[:5, 0] = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
        columns = ["a", "b_re", "b_im"]
        path = tmp_path / "table.csv"
        _write_csv(path, {"kind": "test", "L": 5.0}, columns, table)
        assert path.read_bytes() == csv_module_bytes(columns, table)

    @pytest.mark.parametrize("kind", ["repeat-after-first-block", "signed-zero",
                                      "special-floats", "all-distinct", "empty"])
    def test_repeated_rows_match_the_csv_module(self, tmp_path, kind):
        table = rows_with_repeats(kind)
        columns = ["a", "b_re", "b_im"]
        path = tmp_path / "table.csv"
        _write_csv(path, {"kind": "test", "L": 5.0}, columns, table)
        assert path.read_bytes() == csv_module_bytes(columns, table)

    def test_each_distinct_row_is_formatted_once(self, tmp_path, monkeypatch):
        # 1e4 rows drawn from 50: the float conversions scale with the distinct rows
        rng = np.random.default_rng(4)
        table = rng.normal(size=(50, 3))[rng.integers(0, 50, 10 ** 4)]
        assert len(np.unique(table, axis=0)) == 50
        calls = []
        monkeypatch.setattr(semicav.cli, "repr", lambda x: calls.append(x) or repr(x),
                            raising=False)
        path = tmp_path / "table.csv"
        _write_csv(path, {"kind": "test", "L": 5.0}, ["a", "b", "c"], table)
        assert len(calls) <= 50 * 3
        monkeypatch.undo()
        assert path.read_bytes() == csv_module_bytes(["a", "b", "c"], table)

    def test_memory_without_repeats_does_not_grow_with_the_rows(self, tmp_path):
        # a block without repeats is written as formatted and nothing of it is kept;
        # one column, because tracemalloc slows each of the many small allocations
        rng = np.random.default_rng(5)
        peaks = []
        for n_rows in (16384, 4 * 16384):
            table = rng.normal(size=(n_rows, 1))
            tracemalloc.start()
            try:
                _write_csv(tmp_path / "table.csv", {"kind": "test"}, ["a"], table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks
