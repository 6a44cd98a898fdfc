"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``packbounds`` layer from
outside the package: every module namespace that holds a reference to a
wrapped function gets the wrapper, so calls made through ``from .specfun
import integrate`` are seen as well as calls made through ``eb.kl_bound``.
A span records wall time (``perf_counter``) and the calling thread's CPU
time (``thread_time``); parents are tracked per thread.  Spans stay in
memory and are turned into per-layer metrics when a pass ends.

Recording happens only while ``Recorder.op`` is set, so the benchmark's own
output checks, which call into the package between ops, leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

LAYERS = ("cli", "euclid_bounds", "orthopoly", "specfun", "spherical_lp", "hyperbolic")

# cli's other public functions run under cli.main inside the layer itself;
# wrapping them would move the layer's own time out of cli.main.self_s.
LAYER_ENTRY_POINTS = {"cli": ("main",)}
CLASS_METHODS = (("orthopoly", "GegenbauerContext", ("largest_root", "eval_normalized_table")),)


# Per-call facts kept on the span, keyed by span name: (args, kwargs, result) -> info.
def _probes(modules):
    mc = inspect.signature(modules["hyperbolic"].overlap_monte_carlo)
    return {
        "orthopoly.largest_root": lambda a, kw, r: (a[0].n, a[1]),
        "orthopoly.eval_normalized_table": lambda a, kw, r: r.shape[1],
        "specfun.integrate": lambda a, kw, r: (r.nevals, r.converged),
        "spherical_lp.lp_solve_spherical": lambda a, kw, r: (
            r.diagnostics["rounds"],
            r.certified,
            r.diagnostics["correction_shift"],
        ),
        "spherical_lp.simplex_minimize": lambda a, kw, r: r.iterations,
        "hyperbolic.overlap_monte_carlo": lambda a, kw, r: mc.bind(*a, **kw).arguments["samples"],
    }


class Span:
    __slots__ = ("id", "name", "op", "tid", "parent", "nested", "t0", "t1", "c0", "c1",
                 "child_s", "failed", "info")


class Recorder:
    """Installs wrappers into the package and collects spans per op."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.op: int | None = None
        self.op_thread: dict[int, int] = {}
        self.op_wall: dict[int, float] = {}
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self._probes = _probes(modules)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec, probe, local = self, self._probes.get(name), self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = rec.op
            if op is None:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.depth = {}
            depth = local.depth
            d = depth.get(name, 0)
            s = Span()
            s.id, s.name, s.op, s.tid = next(rec._ids), name, op, threading.get_ident()
            s.parent = stack[-1] if stack else None
            s.nested, s.child_s, s.failed, s.info = d > 0, 0.0, False, None
            depth[name] = d + 1
            stack.append(s)
            s.c0 = time.thread_time()
            s.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.failed = True
                raise
            finally:
                s.t1 = time.perf_counter()
                s.c1 = time.thread_time()
                stack.pop()
                depth[name] = d
                if s.parent is not None:
                    s.parent.child_s += s.t1 - s.t0
                rec.spans.append(s)
            if probe is not None:
                s.info = probe(args, kwargs, result)
            return result

        return traced

    def targets(self):
        """(span name, owner, attribute) for every function the recorder wraps."""
        out = []
        for layer in LAYERS:
            mod = self.modules[layer]
            names = LAYER_ENTRY_POINTS.get(layer) or [
                n for n in mod.__all__
                if inspect.isfunction(getattr(mod, n)) and getattr(mod, n).__module__ == mod.__name__
            ]
            out += [(f"{layer}.{n}", mod, n) for n in names]
        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(self.modules[layer], cls_name)
            out += [(f"{layer}.{m}", cls, m) for m in methods]
        return out

    def install(self) -> None:
        namespaces = list(self.modules.values())
        for name, owner, attr in self.targets():
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def reset(self) -> None:
        self.spans, self.op_thread, self.op_wall = [], {}, {}

    # -- output -----------------------------------------------------------------

    def write(self, path) -> None:
        """All spans of the pass as CSV, ordered by span id."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,thread,name,t0,t1,cpu0,cpu1,failed\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                parent = "" if s.parent is None else s.parent.id
                fh.write(f"{s.id},{parent},{s.op},{s.tid},{s.name},{s.t0!r},{s.t1!r},"
                         f"{s.c0!r},{s.c1!r},{int(s.failed)}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, better; the traced run reports exactly these (overhead_s is
# filled in by the runner, which also times the untraced passes).
PER_LAYER = {
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.threads": ("count", "lower"),
    "cli.wait_s": ("s", "lower"),
}
for _f in ("rogers_bound", "levenshtein_bound", "kl_bound", "cz_bound"):
    PER_LAYER.update({f"euclid_bounds.{_f}.calls": ("count", "lower"),
                      f"euclid_bounds.{_f}.s": ("s", "lower"),
                      f"euclid_bounds.{_f}.self_s": ("s", "lower")})
PER_LAYER.update({
    "euclid_bounds.kl_spherical_code_bound.calls": ("count", "lower"),
    "euclid_bounds.kl_spherical_code_bound.s": ("s", "lower"),
    "orthopoly.largest_root.calls": ("count", "lower"),
    "orthopoly.largest_root.distinct": ("count", "lower"),
    "orthopoly.largest_root.reuse": ("count", "lower"),
    "orthopoly.largest_root.s": ("s", "lower"),
    "orthopoly.largest_root.busy_s": ("s", "lower"),
    "orthopoly.eval_normalized_table.calls": ("count", "lower"),
    "orthopoly.eval_normalized_table.points": ("count", "lower"),
    "orthopoly.eval_normalized_table.s": ("s", "lower"),
    "specfun.integrate.calls": ("count", "lower"),
    "specfun.integrate.nevals": ("count", "lower"),
    "specfun.integrate.unconverged": ("count", "lower"),
    "specfun.integrate.s": ("s", "lower"),
    "specfun.integrate.self_s": ("s", "lower"),
    "specfun.bessel_first_zero.calls": ("count", "lower"),
    "specfun.bessel_first_zero.s": ("s", "lower"),
    "specfun.incomplete_beta.calls": ("count", "lower"),
    "spherical_lp.lp_solve_spherical.calls": ("count", "lower"),
    "spherical_lp.lp_solve_spherical.failed": ("count", "lower"),
    "spherical_lp.lp_solve_spherical.s": ("s", "lower"),
    "spherical_lp.lp_solve_spherical.self_s": ("s", "lower"),
    "spherical_lp.lp_solve_spherical.rounds": ("count", "lower"),
    "spherical_lp.simplex_minimize.calls": ("count", "lower"),
    "spherical_lp.simplex_minimize.iterations": ("count", "lower"),
    "spherical_lp.simplex_minimize.s": ("s", "lower"),
    "spherical_lp.verify_certificate.calls": ("count", "lower"),
    "spherical_lp.verify_certificate.s": ("s", "lower"),
    "spherical_lp.transfer_g_to_f.calls": ("count", "lower"),
    "spherical_lp.transfer_g_to_f.s": ("s", "lower"),
    "spherical_lp.certified_share": ("share", "higher"),
    "spherical_lp.shift_max": ("1", "lower"),
    "hyperbolic.overlap_finite.calls": ("count", "lower"),
    "hyperbolic.overlap_finite.s": ("s", "lower"),
    "hyperbolic.overlap_finite.self_s": ("s", "lower"),
    "hyperbolic.overlap_monte_carlo.calls": ("count", "lower"),
    "hyperbolic.overlap_monte_carlo.samples": ("count", "lower"),
    "hyperbolic.overlap_monte_carlo.s": ("s", "lower"),
    "hyperbolic.hyp_ball_volume.calls": ("count", "lower"),
    "hyperbolic.hyp_ball_volume.s": ("s", "lower"),
    "hyperbolic.hyp_bound_optimized.calls": ("count", "lower"),
    "hyperbolic.hyp_bound_optimized.s": ("s", "lower"),
    "hyperbolic.hyp_density_bound.calls": ("count", "lower"),
    "hyperbolic.overlap_limit.calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("share", "higher"),
})


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass, before ``trace.overhead_s``.

    ``s`` sums the wall time of spans not nested in a span of the same name
    on the same thread; ``self_s`` sums each span's wall time minus that of
    its children on the same thread; ``busy_s`` is ``s`` in thread CPU time.
    """
    stats: dict[str, float] = {}
    for name, _, _ in rec.targets():
        for stat in ("calls", "s", "self_s", "busy_s"):
            stats[f"{name}.{stat}"] = 0
    roots: dict[tuple[int, int], set] = {}
    threads: dict[int, set] = {}
    wait = 0.0
    root_wall = 0.0
    lp_ok = lp_certified = 0
    extra = dict.fromkeys(
        ("orthopoly.eval_normalized_table.points", "specfun.integrate.nevals",
         "specfun.integrate.unconverged", "spherical_lp.lp_solve_spherical.failed",
         "spherical_lp.lp_solve_spherical.rounds", "spherical_lp.simplex_minimize.iterations",
         "spherical_lp.shift_max", "hyperbolic.overlap_monte_carlo.samples"), 0)
    for s in rec.spans:
        wall, name = s.t1 - s.t0, s.name
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += wall - s.child_s
        if not s.nested:
            stats[f"{name}.s"] += wall
            stats[f"{name}.busy_s"] += s.c1 - s.c0
        threads.setdefault(s.op, set()).add(s.tid)
        if s.parent is None:
            if s.tid == rec.op_thread[s.op]:
                root_wall += wall
            else:
                wait += wall - (s.c1 - s.c0)
        info = s.info
        if name == "orthopoly.largest_root" and info is not None:
            roots.setdefault(s.op, set()).add(info)
        elif name == "orthopoly.eval_normalized_table" and info is not None:
            extra[f"{name}.points"] += info
        elif name == "specfun.integrate":
            extra[f"{name}.nevals"] += info[0] if info else 0
            extra[f"{name}.unconverged"] += s.failed or not info[1]
        elif name == "spherical_lp.lp_solve_spherical":
            if s.failed:
                extra[f"{name}.failed"] += 1
            else:
                lp_ok += 1
                extra[f"{name}.rounds"] += info[0]
                lp_certified += bool(info[1])
                extra["spherical_lp.shift_max"] = max(extra["spherical_lp.shift_max"], info[2])
        elif name == "spherical_lp.simplex_minimize" and info is not None:
            extra[f"{name}.iterations"] += info
        elif name == "hyperbolic.overlap_monte_carlo" and info is not None:
            extra[f"{name}.samples"] += info
    stats.update(extra)
    distinct = sum(len(v) for v in roots.values())
    stats["orthopoly.largest_root.distinct"] = distinct
    stats["orthopoly.largest_root.reuse"] = stats["orthopoly.largest_root.calls"] - distinct
    stats["cli.threads"] = max((len(v) for v in threads.values()), default=0)
    stats["cli.wait_s"] = wait
    stats["spherical_lp.certified_share"] = lp_certified / lp_ok if lp_ok else 0.0
    op_wall = sum(rec.op_wall.values())
    stats["trace.coverage"] = root_wall / op_wall if op_wall else 0.0
    return {k: stats[k] for k in PER_LAYER if k != "trace.overhead_s"}
