"""Span tracing of qdice's modules from outside the package.

``Tracer.install`` replaces every public function of the six modules (and
the construction hooks of their public classes) with a wrapper that records
a span: name, start, end, parent span and operation id. The replacement is
made in every qdice namespace that holds the function, so bindings another
module imported (``qdice.wcf.apply_u_eta``, ``qdice.dicer.run_protocol``)
are traced too. Spans live in compact arrays until the run ends.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("qsim", "wcf", "adversary", "fairness", "dicer", "cli")


def _arg(args: tuple, kwargs: dict, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False                      # spans only inside timed operations
        self._restore: list[tuple[object, str, object]] = []
        # counts recorded at the span boundaries
        self.items: dict[int, int] = {}          # span -> trials or samples
        self.events = 0                          # transcript events built
        self.first_runs: list[int] = []          # run_protocol on a new config
        self._seen: set = set()
        self.refine_wins = 0
        self.residual_evals = 0
        self.cli_command: dict[int, str] = {}    # successful cli.main span -> subcommand

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        hook = _HOOKS.get(qualname)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            if qualname == "fairness.find_root" and args:
                args = (self._counted(args[0]),) + args[1:]
            self.stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, index, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, f):
        def residual(x):
            self.residual_evals += 1
            return f(x)

        return residual

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and class-construction hook."""
        modules = [m for name, m in sys.modules.items() if name == "qdice" or name.startswith("qdice.")]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"qdice.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._set(module, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod) and not attr.startswith("_"):
                self._set(cls, attr, classmethod(self.wrap(qualname, member.__func__)))
            elif attr == "__post_init__":
                self._set(cls, attr, self.wrap(qualname, member))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.zeros(0, np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64) \
            if len(self.start) else np.zeros(0)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers; a layer function never called leaves its
        metric out, which the result check reports as missing."""
        name, parent, dur, self_time = self.arrays()
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64)
        by_layer = np.bincount(layer_of[name], weights=self_time, minlength=len(LAYERS)) \
            if len(name) else np.zeros(len(LAYERS))
        total = float(by_layer.sum())
        out: dict[str, float] = {"trace.spans": float(len(name))}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(by_layer[i])
            if total > 0:
                out[f"{layer}.self_share"] = float(by_layer[i]) / total
        out["qsim.calls"] = float(np.count_nonzero(layer_of[name] == 0)) if len(name) else 0.0

        def spans_of(*qualnames):
            ids = [self._ids[q] for q in qualnames if q in self._ids]
            return np.flatnonzero(np.isin(name, ids))

        def median_us(key, *qualnames, scale=1e6):
            picked = spans_of(*qualnames)
            if len(picked):
                out[key] = float(np.median(dur[picked])) * scale

        def per_item_us(key, qualname):
            picked = spans_of(qualname)
            items = sum(self.items.get(int(i), 0) for i in picked)
            if items:
                out[key] = float(dur[picked].sum()) / items * 1e6

        for fn in ("apply_u_eta", "projective_test", "overlap", "ket"):
            median_us(f"qsim.{fn}.us", f"qsim.{fn}")
        median_us("wcf.trial_rng.us", "wcf.trial_rng")
        median_us("wcf.run_protocol.us", "wcf.run_protocol")
        per_item_us("wcf.run_trials.us_per_trial", "wcf.run_trials")
        runs = spans_of("wcf.run_protocol")
        if len(runs):
            out["wcf.events_per_trial"] = self.events / len(runs)
            out["wcf.seen_config_share"] = 1.0 - len(self.first_runs) / len(runs)
        if self.first_runs:
            out["wcf.first_run.us"] = float(np.median(dur[self.first_runs])) * 1e6
        per_item_us("dicer.simulate_dice.us_per_trial", "dicer.simulate_dice")
        ladders = spans_of("dicer.simulate_dice")
        ladder_trials = sum(self.items.get(int(i), 0) for i in ladders)
        if ladder_trials:
            # nearest simulate_dice ancestor of every span; parents precede children
            sd_id = self._ids["dicer.simulate_dice"]
            ancestor = np.full(len(name), -1, dtype=np.int64)
            for i in range(len(name)):
                if name[i] == sd_id:
                    ancestor[i] = i
                elif parent[i] >= 0:
                    ancestor[i] = ancestor[parent[i]]
            flips = np.count_nonzero((ancestor >= 0)[runs]) if len(runs) else 0
            out["dicer.stage_flips"] = flips / ladder_trials
        median_us("dicer.compose.us", "dicer.worst_case_losing_prob", "dicer.bias_bound_check",
                  "dicer.expected_coalition_losing")
        median_us("dicer.optimize_three_sided.us", "dicer.optimize_three_sided")
        median_us("adversary.max_delta_family.ms", "adversary.max_delta_family", scale=1e3)
        points = spans_of("adversary.brute_force_alice")
        if len(points):
            refine = spans_of("adversary.alice_value_at_delta_via_states")
            out["adversary.refine_evals_per_point"] = len(refine) / len(points)
        families = spans_of("adversary.max_delta_family")
        if len(families):
            out["adversary.refine_win_ratio"] = self.refine_wins / len(families)
        per_item_us("adversary.sample_cheat_values.us_per_sample", "adversary.sample_cheat_values")
        median_us("adversary.general_cheat_value.us", "adversary.general_cheat_value")
        median_us("fairness.find_root.us", "fairness.find_root")
        roots = spans_of("fairness.find_root")
        if len(roots):
            out["fairness.residual_evals"] = self.residual_evals / len(roots)
        for command in ("simulate", "cheat", "solve", "bound-check"):
            picked = [i for i, c in self.cli_command.items() if c == command]
            if picked:
                out[f"cli.{command}.ms"] = float(np.median(dur[picked])) * 1e3
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps({
                    "id": i, "op": self.op[i], "name": self.names[self.name[i]],
                    "start": self.start[i], "end": self.end[i], "parent": self.parent[i],
                }, separators=(",", ":")) + "\n")


# -- counts taken at span boundaries -------------------------------------------


def _run_protocol(tracer: Tracer, index: int, args, kwargs, outcome) -> None:
    tracer.events += len(outcome.transcript.events)
    key = (_arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "cheat"))
    if key not in tracer._seen:
        tracer._seen.add(key)
        tracer.first_runs.append(index)


def _items(position: int, name: str):
    def hook(tracer: Tracer, index: int, args, kwargs, result) -> None:
        tracer.items[index] = _arg(args, kwargs, position, name)

    return hook


def _max_delta_family(tracer: Tracer, index: int, args, kwargs, result) -> None:
    grid_points = _arg(args, kwargs, 1, "grid_points", 10_000)
    _, delta = result
    # the refined optimum lies between grid nodes; a grid win returns a node
    if float(np.linspace(0.0, 1.0, grid_points)[round(delta * (grid_points - 1))]) != delta:
        tracer.refine_wins += 1


def _cli_main(tracer: Tracer, index: int, args, kwargs, code) -> None:
    argv = _arg(args, kwargs, 0, "argv")
    if code == 0 and argv:
        tracer.cli_command[index] = argv[0]


_HOOKS = {
    "wcf.run_protocol": _run_protocol,
    "wcf.run_trials": _items(2, "trials"),
    "dicer.simulate_dice": _items(1, "trials"),
    "adversary.sample_cheat_values": _items(1, "n_samples"),
    "adversary.max_delta_family": _max_delta_family,
    "cli.main": _cli_main,
}
