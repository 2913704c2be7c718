"""Outside-in tracer: spans around the public functions of each nlsnf module.

The program is not changed.  `Tracer.install` replaces a function in the
module that defines it *and* in every other `nlsnf.*` module that imported it
by name (birkhoff and dynamics import `resolvent_limit`, `lie_series`,
`packet_form` and `project_modes` that way); patching only the defining
module would miss those calls.  Spans stay in memory as
[name, start, end, parent, run_id, attrs] and are written out by the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _model_bytes(model, args, kwargs):
    return {"model_bytes": sum(v.nbytes for v in vars(model).values()
                               if hasattr(v, "nbytes"))}


def _packets_attrs(packets, args, kwargs):
    gaps = [float(np.linalg.norm(p.gram_lap - p.gram) / np.linalg.norm(p.gram))
            for p in packets if p.gram_lap is not None and np.linalg.norm(p.gram) > 0]
    return {"clipped_mass": float(sum(p.clipped_mass for p in packets)),
            "lap_hist_rel_gap": max(gaps, default=0.0)}


def _simulate_attrs(record, args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"samples": len(record.times),
            "steps": int(round(config.t_end / config.dt))}


def _normal_form_attrs(nf, args, kwargs):
    return {"chi_terms": sum(led.chi_terms for led in nf.ledgers),
            "z_terms": len(nf.z_part), "remainder_terms": len(nf.remainder)}


# (module, attribute path, hook computing span attributes from the result).
# Hooks run after the span has ended, so they are not timed.
TARGETS = [
    ("spectral", "build_operator", _model_bytes),
    ("spectral", "resolvent_apply", None),
    ("spectral", "resolvent_limit", None),
    ("spectral", "spectral_density_form", None),
    ("spectral", "histogram_density", None),
    ("spectral", "density_gram", None),
    ("spectral", "pv_gram", None),
    ("spectral", "project_modes", None),
    ("spectral", "export_eigenpairs_csv", None),
    ("hamalg", "expand_potential_energy", None),
    ("hamalg", "lie_series", lambda r, a, k: {"dropped": r[1].count}),
    ("hamalg", "lie_derivative", lambda r, a, k: {"terms": len(r)}),
    ("hamalg", "HamExpansion.merged", None),
    ("hamalg", "check_reality", None),
    ("hamalg", "expansion_to_records", None),
    ("resonance", "resonance_budget", None),
    ("resonance", "check_hypotheses", None),
    ("resonance", "build_index_sets",
     lambda r, a, k: {"bigM": len(r.big_m), "M": len(r.minimal)}),
    ("resonance", "catalog_report", None),
    ("birkhoff", "normal_form", _normal_form_attrs),
    ("birkhoff", "normal_form_round", None),
    ("birkhoff", "solve_homological", None),
    ("birkhoff", "reduce_to_minimal", None),
    ("fgr", "build_packets", _packets_attrs),
    ("fgr", "rayleigh_report", None),
    ("fgr", "packet_form", None),
    ("dynamics", "simulate", _simulate_attrs),
    ("dynamics", "step", None),
    ("dynamics", "build_zeta_couplings", None),
    ("dynamics", "build_g_couplings", None),
    ("dynamics", "zeta_transform", None),
    ("dynamics", "g_transform", None),
    ("cli", "main", None),
    ("cli", "cmd_pipeline", None),
    ("cli", "cmd_simulate", None),
    ("cli", "run_pipeline", None),
    ("cli", "build_model_from_config", None),
    ("cli", "save_expansion", None),
    ("cli", "write_trajectory_csv", None),
]

# An untraced job still needs the step count and time of `simulate` for the
# loop rate: one span per job.
UNTRACED_TARGETS = [t for t in TARGETS if t[:2] == ("dynamics", "simulate")]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []   # targets the program no longer has

    def _wrap(self, name: str, fn, hook):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(result, args, kwargs)
            return result

        return traced

    def install(self, targets=TARGETS):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nlsnf" or n.startswith("nlsnf."))]
        for module_name, path, hook in targets:
            owner = sys.modules[f"nlsnf.{module_name}"]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(f"{module_name}.{path}", original, hook)
            if owner_path:  # a method: the class attribute is the only binding
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced job (names as in BENCHMARK.json)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(list)
    layer_self = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        total[s[0]] += s[2] - s[1]
        calls[s[0]] += 1
        layer_self[s[0].split(".")[0]] += own
        if s[5]:
            attrs[s[0]].append(s[5])

    def attr_sum(name, key):
        return sum(a[key] for a in attrs[name])

    def attr_last(name, key):
        return attrs[name][-1][key] if attrs[name] else 0

    density = ("spectral.spectral_density_form", "spectral.histogram_density",
               "spectral.density_gram", "spectral.pv_gram")
    def in_simulate(name):
        """Durations of the `name` spans that `simulate` calls directly."""
        return [s[2] - s[1] for s in spans
                if s[0] == name and s[3] >= 0 and spans[s[3]][0] == "dynamics.simulate"]

    # rayleigh_report also calls packet_form, about ten times as often as the
    # monitor does; only the monitor's calls are counted here
    monitor_forms = in_simulate("fgr.packet_form")
    monitor_s = total["dynamics.simulate"] - sum(in_simulate("dynamics.step"))
    samples = attr_sum("dynamics.simulate", "samples")
    generated = attr_sum("hamalg.lie_derivative", "terms")
    dropped = attr_sum("hamalg.lie_series", "dropped")
    return {
        "spectral.build_operator_s": total["spectral.build_operator"],
        "spectral.model_bytes": attr_last("spectral.build_operator", "model_bytes"),
        "spectral.resolvent_apply_calls": calls["spectral.resolvent_apply"],
        "spectral.resolvent_apply_s": total["spectral.resolvent_apply"],
        "spectral.resolvent_limit_calls": calls["spectral.resolvent_limit"],
        "spectral.resolvent_limit_s": total["spectral.resolvent_limit"],
        "spectral.density_calls": sum(calls[n] for n in density),
        "spectral.density_s": sum(total[n] for n in density),
        "spectral.lap_hist_rel_gap": attr_last("fgr.build_packets", "lap_hist_rel_gap"),
        "hamalg.lie_series_calls": calls["hamalg.lie_series"],
        "hamalg.lie_series_s": total["hamalg.lie_series"],
        "hamalg.lie_derivative_s": total["hamalg.lie_derivative"],
        "hamalg.merge_calls": calls["hamalg.HamExpansion.merged"],
        "hamalg.merge_s": total["hamalg.HamExpansion.merged"],
        "hamalg.expand_s": total["hamalg.expand_potential_energy"],
        "hamalg.terms_generated": generated,
        "hamalg.terms_dropped": dropped,
        "hamalg.kept_ratio": 1.0 - dropped / generated if generated else 0.0,
        "birkhoff.normal_form_s": total["birkhoff.normal_form"],
        "birkhoff.solve_homological_s": total["birkhoff.solve_homological"],
        "birkhoff.self_s": layer_self["birkhoff"],
        "birkhoff.chi_terms": attr_last("birkhoff.normal_form", "chi_terms"),
        "birkhoff.z_terms": attr_last("birkhoff.normal_form", "z_terms"),
        "birkhoff.remainder_terms": attr_last("birkhoff.normal_form", "remainder_terms"),
        "resonance.check_hypotheses_s": total["resonance.check_hypotheses"],
        "resonance.build_index_sets_s": total["resonance.build_index_sets"],
        "resonance.bigM_size": attr_last("resonance.build_index_sets", "bigM"),
        "resonance.M_size": attr_last("resonance.build_index_sets", "M"),
        "fgr.build_packets_s": total["fgr.build_packets"],
        "fgr.rayleigh_report_s": total["fgr.rayleigh_report"],
        "fgr.packet_form_calls": len(monitor_forms),
        "fgr.packet_form_s": sum(monitor_forms),
        "fgr.clipped_mass": attr_last("fgr.build_packets", "clipped_mass"),
        "dynamics.step_calls": calls["dynamics.step"],
        "dynamics.step_us": (1e6 * total["dynamics.step"] / calls["dynamics.step"]
                             if calls["dynamics.step"] else 0.0),
        "dynamics.monitor_s": monitor_s,
        "dynamics.monitor_ms_per_sample": 1e3 * monitor_s / samples if samples else 0.0,
        "dynamics.simulate_s": total["dynamics.simulate"],
        "dynamics.couplings_s": (total["dynamics.build_zeta_couplings"]
                                 + total["dynamics.build_g_couplings"]),
        "cli.run_pipeline_s": total["cli.run_pipeline"],
        "cli.self_s": layer_self["cli"],
    }
