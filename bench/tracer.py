"""Spans around the calls `suretune` modules make into each other.

The tracer wraps, from outside the package, the callables one module uses
to reach another, and restores them on `uninstall`.  A module-level
function is replaced in every `suretune` namespace that binds it, so both
`simulate._bootstrap_stats` and `bootstrap._bootstrap_stats` see the
wrapper.  A target that a later version renames or removes is reported as
absent instead of raising.

Each span is a list [name, start, end, parent, family_module, count]: the
parent is the index of the enclosing span (-1 at top level), family_module
is the module defining the class of `self` for family methods, and count
is the work the call did (rows tuned, values drawn, bytes drawn, Monte Carlo
directions, peak traced bytes).  Spans stay in memory until the run ends.
"""

import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

# (module, attribute path, counter) for each wrapped callable.  Family
# `tune`/`tune_batch` methods are found on every class the package defines.
TARGETS = (
    ("core", "GaussianModel.draw", "size"),
    ("core", "_df_stats", None),
    ("core", "mc_edf", None),
    ("bootstrap", "_bootstrap_stats", None),
    ("bootstrap", "_replicates", "nbytes"),
    ("simulate", "_implicit_diff_stats", None),
    ("simulate", "run_simulation", None),
    ("simulate", "write_csv", None),
    ("stein", "edf_implicit_diff", None),
    ("stein", "tune_hetero_shrink", None),
    ("subsets", "make_nested", "tracemalloc"),
    ("bounds", "general_theta_bound", None),
    ("bounds", "gaussian_surface_area_ball", "directions"),
    ("cli", "main", None),
)
FAMILY_METHODS = ("tune", "tune_batch")


def _count(kind, args, result):
    if kind == "size":
        return int(np.size(result))
    if kind == "nbytes":
        return int(getattr(result, "nbytes", 0))
    if kind == "directions":
        return int(getattr(result, "directions", 0))
    if kind == "rows":
        shape = np.shape(args[1]) if len(args) > 1 else ()
        return int(shape[0]) if len(shape) == 2 else 1
    return 0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans, self._stack, self.absent = [], [], []
        self._undo = []

    def _span(self, name, fn, kind):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fam = type(args[0]).__module__.rsplit(".", 1)[-1] if kind == "rows" else ""
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, fam, 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            own_tracemalloc = kind == "tracemalloc" and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if own_tracemalloc:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if kind not in (None, "tracemalloc"):
                span[5] = _count(kind, args, result)
            return result

        return wrapper

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self):
        """Wrap every target; spans of this installation go to a new list."""
        self.spans, self._stack, self.absent = [], [], []
        modules = self._modules()
        for mod_name, path, kind in TARGETS:
            mod = sys.modules.get(f"{self.package.__name__}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                self.absent.append(f"{mod_name}.{path}")
                continue
            original = owner.__dict__[attr]
            wrapper = self._span(f"{mod_name}.{path}", original, kind)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._patch(m, key, wrapper)
        for mod in modules:
            mod_name = mod.__name__.rsplit(".", 1)[-1]
            for cls in list(vars(mod).values()):
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                for attr in FAMILY_METHODS:
                    fn = cls.__dict__.get(attr)
                    if inspect.isfunction(fn):
                        self._patch(cls, attr,
                                    self._span(f"{mod_name}.{cls.__name__}.{attr}", fn, "rows"))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanIndex:
    """Queries over one body's spans: totals, counts, self time, ancestry."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                self.child_time[s[3]] += s[2] - s[1]

    def has_ancestor(self, span, pred):
        parent = span[3]
        while parent >= 0:
            if pred(self.spans[parent]):
                return True
            parent = self.spans[parent][3]
        return False

    def outermost(self, pred):
        """Spans matching pred with no matching ancestor (no double counting)."""
        return [s for s in self.spans if pred(s) and not self.has_ancestor(s, pred)]

    def seconds(self, pred):
        return sum(s[2] - s[1] for s in self.outermost(pred))

    def self_seconds(self, pred):
        return sum(s[2] - s[1] - self.child_time[i]
                   for i, s in enumerate(self.spans) if pred(s))


def named(name):
    return lambda s: s[0] == name


def tune_batch_of(module):
    return lambda s: s[0].endswith(".tune_batch") and (module is None or s[4] == module)


# Per-layer metric -> (unit, target spans it needs).  A metric whose targets
# are all absent is reported as absent.
LAYER_METRICS = {
    "bootstrap.stats_calls": ("count", ("bootstrap._bootstrap_stats",)),
    "bootstrap.stats_s": ("s", ("bootstrap._bootstrap_stats",)),
    "bootstrap.draw_s": ("s", ("bootstrap._replicates",)),
    "bootstrap.refit_s": ("s", ("bootstrap._bootstrap_stats",)),
    "bootstrap.draw_bytes": ("bytes", ("bootstrap._replicates",)),
    "shrinkage.tune_batch_calls": ("count", ()),
    "shrinkage.tune_batch_s": ("s", ()),
    "shrinkage.rows_per_call": ("rows/call", ()),
    "stein.implicit_diff_calls": ("count", ("stein.edf_implicit_diff",)),
    "stein.implicit_diff_s": ("s", ("stein.edf_implicit_diff",)),
    "stein.tune_hetero_s": ("s", ("stein.tune_hetero_shrink",)),
    "stein.scalar_tunes_per_row": ("calls/row", ("stein.tune_hetero_shrink",)),
    "subsets.make_nested_s": ("s", ("subsets.make_nested",)),
    "subsets.tune_batch_s": ("s", ()),
    "subsets.make_nested_peak_mb": ("MB", ("subsets.make_nested",)),
    "bounds.general_theta_s": ("s", ("bounds.general_theta_bound",)),
    "bounds.surface_area_calls": ("count", ("bounds.gaussian_surface_area_ball",)),
    "bounds.mc_directions": ("count", ("bounds.gaussian_surface_area_ball",)),
    "softthresh.tune_batch_s": ("s", ()),
    "softthresh.rows_tuned": ("count", ()),
    "core.draw_s": ("s", ("core.GaussianModel.draw",)),
    "core.draw_values": ("count", ("core.GaussianModel.draw",)),
    "core.df_stats_s": ("s", ("core._df_stats",)),
    "core.mc_edf_s": ("s", ("core.mc_edf",)),
    "simulate.run_s": ("s", ("simulate.run_simulation",)),
    "simulate.self_s": ("s", ("simulate.run_simulation",)),
    "simulate.write_csv_s": ("s", ("simulate.write_csv",)),
    "cli.main_s": ("s", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",)),
}


def layer_metrics(spans):
    """Per-layer values for the spans of one workload body."""
    ix = SpanIndex(spans)
    count = lambda pred: len(ix.outermost(pred))
    work = lambda pred: sum(s[5] for s in ix.outermost(pred))

    boot = named("bootstrap._bootstrap_stats")
    replicates = named("bootstrap._replicates")
    refit = lambda s: (tune_batch_of(None)(s) and s[3] >= 0
                       and ix.spans[s[3]][0].startswith("bootstrap."))
    shrink = tune_batch_of("shrinkage")
    implicit = named("stein.edf_implicit_diff")
    hetero = named("stein.tune_hetero_shrink")
    any_batch = tune_batch_of(None)
    hetero_rows = work(tune_batch_of("stein"))
    scalar_in_batch = sum(1 for s in ix.spans if hetero(s) and ix.has_ancestor(s, any_batch))
    nested = named("subsets.make_nested")
    soft = tune_batch_of("softthresh")
    surface = named("bounds.gaussian_surface_area_ball")
    draw = named("core.GaussianModel.draw")
    run = named("simulate.run_simulation")
    main = named("cli.main")
    shrink_calls = count(shrink)

    return {
        "bootstrap.stats_calls": count(boot),
        "bootstrap.stats_s": ix.seconds(boot),
        "bootstrap.draw_s": ix.seconds(replicates),
        "bootstrap.refit_s": ix.seconds(refit),
        "bootstrap.draw_bytes": work(replicates),
        "shrinkage.tune_batch_calls": shrink_calls,
        "shrinkage.tune_batch_s": ix.seconds(shrink),
        "shrinkage.rows_per_call": work(shrink) / shrink_calls if shrink_calls else 0.0,
        "stein.implicit_diff_calls": count(implicit),
        "stein.implicit_diff_s": ix.seconds(implicit),
        "stein.tune_hetero_s": ix.seconds(hetero),
        "stein.scalar_tunes_per_row": scalar_in_batch / hetero_rows if hetero_rows else 0.0,
        "subsets.make_nested_s": ix.seconds(nested),
        "subsets.tune_batch_s": ix.seconds(tune_batch_of("subsets")),
        "subsets.make_nested_peak_mb": max((s[5] for s in ix.spans if nested(s)), default=0)
        / 2**20,
        "bounds.general_theta_s": ix.seconds(named("bounds.general_theta_bound")),
        "bounds.surface_area_calls": count(surface),
        "bounds.mc_directions": work(surface),
        "softthresh.tune_batch_s": ix.seconds(soft),
        "softthresh.rows_tuned": work(soft),
        "core.draw_s": ix.seconds(draw),
        "core.draw_values": work(draw),
        "core.df_stats_s": ix.seconds(named("core._df_stats")),
        "core.mc_edf_s": ix.seconds(named("core.mc_edf")),
        "simulate.run_s": ix.seconds(run),
        "simulate.self_s": ix.self_seconds(run),
        "simulate.write_csv_s": ix.seconds(named("simulate.write_csv")),
        "cli.main_s": ix.seconds(main),
        "cli.self_s": ix.self_seconds(main),
    }


def absent_metrics(absent):
    """Metrics whose every required target is missing from the package."""
    gone = set(absent)
    return sorted(m for m, (_, needs) in LAYER_METRICS.items()
                  if needs and all(t in gone for t in needs))
