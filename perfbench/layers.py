"""Which semicav functions the traced run wraps, and the per-layer metrics derived from them.

Layers are semicav's modules. Span names are the metric prefixes. A metric of
a hook that is absent (renamed or deleted by a refactor) or never called on a
workload reads 0; ``trace.absent_hooks`` counts the absent ones.
"""

from pathlib import Path

from tracer import Hook, Tracer

SEMICAV_MODULES = ["semicav", "semicav.fockspace", "semicav.unitary", "semicav.phasespace",
                   "semicav.swe", "semicav.cli"]


def _planes(args, kwargs, result):
    """Number of 2-D transforms in one fft2/ifft2 call over axes (0, 1)."""
    x = args[0]
    return {"planes": x.size // (x.shape[0] * x.shape[1])}


def _chi_terms(args, kwargs, result):
    """(m, n) pairs of the Laguerre double loop, m >= n, for an (n_max+1)-square block."""
    n = args[0].shape[0]
    return {"terms": n * (n + 1) // 2}


def _csv_size(args, kwargs, result):
    path = Path(args[0])
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    # one metadata line and one header line precede the data rows
    return {"rows": lines - 2, "bytes": path.stat().st_size}


HOOKS = [
    Hook("semicav.fockspace", "tensor", "fockspace.tensor", span=False),
    Hook("semicav.unitary", "rotated_current", "unitary.rotated_current", span=False),
    Hook("semicav.unitary", "interaction_hamiltonian", "unitary.interaction_hamiltonian",
         span=False),
    Hook("semicav.unitary", "rk4_step", "unitary.rk4_step"),
    Hook("semicav.unitary", "evolve_unitary", "unitary.evolve_unitary"),
    Hook("semicav.swe", "SemiclassicalWave.__post_init__", "swe.wave_validation", span=False),
    Hook("semicav.swe", "FieldSample.__post_init__", "swe.field_sample", span=False),
    Hook("semicav.swe", "step_bargmann", "swe.step_bargmann"),
    Hook("semicav.swe", "GridStepper.step", "swe.grid_step"),
    Hook("semicav.swe", "GridStepper.rhs", "swe.grid_rhs"),
    Hook("scipy.fft", "fft2", "fft2", measure=_planes),
    Hook("scipy.fft", "ifft2", "ifft2", measure=_planes),
    Hook("semicav.swe", "evolve_swe", "swe.evolve_swe",
         measure=lambda args, kwargs, result: {"waves": len(result)}),
    Hook("semicav.swe", "sample_field", "swe.sample_field"),
    Hook("semicav.phasespace", "_chi_on_grid", "phasespace.chi_on_grid", measure=_chi_terms),
    Hook("semicav.phasespace", "sharp_density", "phasespace.sharp_density"),
    Hook("semicav.phasespace", "husimi_density", "phasespace.husimi_density"),
    Hook("semicav.phasespace", "wigner", "phasespace.wigner"),
    Hook("semicav.phasespace", "_convolve_with_kernel", "phasespace.convolve"),
    Hook("semicav.phasespace", "characteristic_function", "phasespace.characteristic_function"),
    Hook("semicav.cli", "_write_csv", "cli.write_csv", measure=_csv_size),
    Hook("semicav.cli", "dumps_17g", "cli.dumps_17g", outermost=True,
         measure=lambda args, kwargs, result: {"bytes": len(result.encode())}),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.summary()
    under_rhs = tracer.summary(parent="swe.grid_rhs")
    counts = tracer.counts

    def calls(name):
        return counts.get(name, 0)

    def total(name):
        return spans[name].total if name in spans else 0.0

    def mean(name, scale):
        return total(name) / calls(name) * scale if calls(name) else 0.0

    def attr(stats, name, key):
        return stats[name].attrs.get(key, 0) if name in stats else 0

    rhs_calls = calls("swe.grid_rhs")
    fft_planes = attr(under_rhs, "fft2", "planes") + attr(under_rhs, "ifft2", "planes")
    validations = counts.get("swe.wave_validation", 0)
    return {
        "unitary.rk4_step.us": mean("unitary.rk4_step", 1e6),
        "unitary.rk4_step.calls": calls("unitary.rk4_step"),
        "unitary.interaction_hamiltonian.calls": calls("unitary.interaction_hamiltonian"),
        "unitary.rotated_current.calls": calls("unitary.rotated_current"),
        "fockspace.tensor.calls": calls("fockspace.tensor"),
        "unitary.evolve_unitary.s": total("unitary.evolve_unitary"),
        "swe.step_bargmann.us": mean("swe.step_bargmann", 1e6),
        "swe.step_bargmann.calls": calls("swe.step_bargmann"),
        "swe.evolve_swe.s": total("swe.evolve_swe"),
        "swe.wave_keep_ratio": (attr(spans, "swe.evolve_swe", "waves") / validations
                                if validations else 0.0),
        "swe.grid_rhs.calls": rhs_calls,
        "swe.grid_rhs.ms": mean("swe.grid_rhs", 1e3),
        "swe.grid_rhs.fft_s": sum(under_rhs[n].total for n in ("fft2", "ifft2") if n in under_rhs),
        "swe.grid_rhs.pointwise_s": spans["swe.grid_rhs"].self_time if rhs_calls else 0.0,
        "swe.grid_rhs.fft_planes": fft_planes / rhs_calls if rhs_calls else 0.0,
        "swe.grid_step.self_ms": (spans["swe.grid_step"].self_time / calls("swe.grid_step") * 1e3
                                  if calls("swe.grid_step") else 0.0),
        "phasespace.chi_on_grid.s": total("phasespace.chi_on_grid"),
        "phasespace.chi_on_grid.terms": attr(spans, "phasespace.chi_on_grid", "terms"),
        "phasespace.sharp_density.s": total("phasespace.sharp_density"),
        "phasespace.husimi_density.s": total("phasespace.husimi_density"),
        "phasespace.wigner.s": total("phasespace.wigner"),
        "phasespace.convolve.s": total("phasespace.convolve"),
        "phasespace.characteristic_function.s": total("phasespace.characteristic_function"),
        "swe.sample_field.s": total("swe.sample_field"),
        "swe.field_sample.objects": calls("swe.field_sample"),
        "cli.write_csv.s": total("cli.write_csv"),
        "cli.csv_rows": attr(spans, "cli.write_csv", "rows"),
        "cli.csv_bytes": attr(spans, "cli.write_csv", "bytes"),
        "cli.dumps_17g.s": total("cli.dumps_17g"),
        "cli.json_bytes": attr(spans, "cli.dumps_17g", "bytes"),
        "trace.spans": len(tracer.spans),
        "trace.absent_hooks": len(tracer.absent),
    }
