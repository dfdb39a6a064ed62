"""Per-layer tracing by wrapping ccarm's public functions where callers find them.

Each traced function is replaced, in every ccarm module that imported it, by a
wrapper that records a span: calls, inclusive time and self time (inclusive
minus the time of spans it caused).  Kernel functions are wrapped on the
kernel module object, which every caller reaches as ``core.<name>``.  Spans
stay in memory; ``restore`` puts the original functions back.
"""

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("ccarm", "ccarm.cli", "ccarm.sim", "ccarm.statics", "ccarm.stiffness",
           "ccarm.kinematics", "ccarm.model")

KINEMATICS = ("configuration_to_joints", "forward_kinematics", "jacobian_q_psi",
              "jacobian_v_psi", "jacobian_w_psi", "jacobian_x_psi")
MODEL = ("wrap_configuration", "default_parameters", "load_parameters")


class Tracer:
    """Wraps ccarm on ``install`` and accumulates counters until ``restore``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.allocation_keys = set()
        self._stack = []        # [span name, time spent in child spans]
        self._patched = []      # (owner, attribute, original)

    # ------------------------------------------------------------- spans
    def _wrap(self, name, fn, on_call=None, on_return=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    # --------------------------------------------------------- callbacks
    def _count_rows(self, records):
        self.counts["sim.rows"] += len(records)

    def _count_reaim(self, args, kwargs):
        if self._inside("sim.run_stiffness_sweep"):
            self.counts["sim.reaim_passes"] += 1

    def _allocation_key(self, signature):
        def record(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = bound.arguments
            wrench = values.get("w_ext")
            self.allocation_keys.add((
                values.get("params"), values.get("psi"),
                None if wrench is None else wrench.as_vector().tobytes(),
                float(values.get("pretension", 0.0)),
            ))
        return record

    def _kernel_result(self, iters_key, failures_key):
        def record(result):
            self.counts[iters_key] += int(result[2])
            self.counts[failures_key] += not result[4]
        return record

    # ---------------------------------------------------------- patching
    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        cli, sim, statics, stiffness, kinematics, model = modules[1:]
        targets = [
            ("cli.main", cli.main, {}),
            ("sim.run_stiffness_sweep", sim.run_stiffness_sweep,
             {"on_return": self._count_rows}),
            ("sim.solve_deflection", sim.solve_deflection, {"on_call": self._count_reaim}),
            ("sim.solve_perching_reaction", sim.solve_perching_reaction, {}),
            ("statics.allocate_tensions", statics.allocate_tensions,
             {"on_call": self._allocation_key(inspect.signature(statics.allocate_tensions))}),
            ("stiffness.task_stiffness", stiffness.task_stiffness, {}),
        ]
        targets += [("kinematics", getattr(kinematics, n), {}) for n in KINEMATICS]
        targets += [("model", getattr(model, n), {}) for n in MODEL]
        for name, fn, hooks in targets:
            wrapper = self._wrap(name, fn, **hooks)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

        core = importlib.import_module("ccarm._kernels").core
        for kernel, iters in (("solve_deflection", "newton_iters"),
                              ("solve_tip_constraint", "iters")):
            name = f"kernels.{kernel}"
            hook = self._kernel_result(f"{name}.{iters}", f"{name}.failures")
            self._patch(core, kernel, self._wrap(name, getattr(core, kernel), on_return=hook))
        return self

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self):
        for table in (self.calls, self.total, self.self_time, self.counts):
            table.clear()
        self.allocation_keys.clear()

    def snapshot(self):
        """Counters of the work traced since the last reset.

        "counts" holds every integer counter, including "<span>.calls" and
        the number of distinct allocation inputs; "total" and "self" hold
        seconds per span.
        """
        counts = {f"{name}.calls": n for name, n in self.calls.items()}
        counts.update(self.counts)
        counts["statics.allocate_tensions.distinct"] = len(self.allocation_keys)
        return {"counts": counts, "total": dict(self.total), "self": dict(self.self_time)}
