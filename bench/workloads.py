"""The benchmark's workloads: inputs from the seed, a warm-up, a body, checks.

Each workload is a closed loop with one client: the runner calls `body()`
again only after the previous call has returned.  Every call goes through
the `suretune` package's module attributes at call time, so the tracer's
wrappers see it.

desk         `suretune simulate --preset desk` through `suretune.cli.main`.
             n is small, so per-call Python overhead dominates.
paper-n5000  one paper-scale cell (weak_sparsity, n = 5000, B = 1000) through
             `simulate --config`.  Per-call overhead is negligible; draws and
             the 40 MB replicate buffer dominate.
library-mix  six public-API calls that never enter `simulate`: the
             heteroskedastic tuner, the ridge rotation, the bootstrap over a
             tuner with no closed form, the nested-chain bounds, the nested
             subset chain and soft thresholding.

The seed reaches the simulation workloads through the global `--seed` flag
only.  Library calls use no `directions=`, `chi2_draws=` or `seed=` on
`general_theta_bound`, so exact geometry can replace its Monte Carlo path
without breaking the benchmark.
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0

# library-mix sizes; the Monte Carlo references in reference/library_mix.json
# were computed for exactly these models.
LIB_SIZES = {
    "hetero_n": 50,
    "hetero_reps": 2000,
    "ridge_rows": 300,
    "ridge_cols": 60,
    "ridge_reps": 1000,
    "boot_B": 1000,
    "gtb_p": 10,
    "nested_rows": 300,
    "nested_p": 150,
    "nested_reps": 2000,
    "soft_n": 1000,
    "soft_reps": 5000,
}


def hetero_model():
    n = LIB_SIZES["hetero_n"]
    sigmas = np.geomspace(0.5, 5.0, n)
    theta0 = 4.0 / np.sqrt(np.arange(1, n + 1))
    return theta0, sigmas


def ridge_spectrum():
    """Designed singular values (sd ratio 100) and rotated mean, descending d."""
    p = LIB_SIZES["ridge_cols"]
    d = np.geomspace(100.0, 1.0, p)
    alpha0 = 1.0 / np.sqrt(np.arange(1, p + 1))
    return d, alpha0


def soft_theta0():
    n = LIB_SIZES["soft_n"]
    return 4.0 / np.sqrt(np.arange(1, n + 1))


def run_cli(st, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = st.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"suretune {' '.join(argv)} exited with {code}")
    return buf.getvalue()


# Simulation workload -> (`simulate` arguments, default-seed reference CSV).
SIMULATIONS = {
    "desk": (["--preset", "desk"], "desk_seed0.csv"),
    "paper-n5000": (["--config", str(HERE / "paper_n5000.cfg")], "paper_n5000_seed0.csv"),
}


def sim_argv(name, seed):
    return ["--seed", str(seed), "simulate", *SIMULATIONS[name][0]]


class SimWorkload:
    """A simulation grid run through the command line front end."""

    def __init__(self, st, seed, name):
        self.st = st
        self.seed = seed
        self.name = name
        self.argv = sim_argv(name, seed)
        self.reference_text = (REFERENCE / SIMULATIONS[name][1]).read_text(encoding="ascii")
        self.ops_per_body = len(checks.parse_sim_csv(self.reference_text))

    def warm_up(self):
        run_cli(self.st, ["--seed", str(self.seed), "simulate",
                           "--config", str(HERE / "warmup.cfg")])

    def body(self):
        return run_cli(self.st, self.argv)

    def check(self, output):
        return checks.check_sim_csv(output, self.reference_text, self.seed == DEFAULT_SEED)


class LibraryMix:
    """A fixed list of public-API calls with inputs drawn from the seed."""

    name = "library-mix"
    ops_per_body = len(checks.LIBRARY_CHECKS)

    def __init__(self, st, seed):
        self.st = st
        self.seed = seed
        self.inputs = make_library_inputs(seed)

    @functools.cached_property
    def reference(self):
        return json.loads((REFERENCE / "library_mix.json").read_text())

    def warm_up(self):
        st, inp = self.st, self.inputs
        theta0, sigmas = hetero_model()
        fam = st.HeteroShrinkFamily(sigmas)
        st.mc_edf(fam, st.GaussianModel(theta0, sigmas=sigmas), reps=2, seed=0)
        st.ridge_as_hetero(inp["ridge_X"], inp["ridge_y"], inp["ridge_sigma"]).tune()
        st.bootstrap_edf(fam, inp["boot_y"], st.BootstrapConfig(B=2, seed=0))
        st.general_theta_bound(inp["gtb_mu"][:2])
        coll = st.make_nested(inp["nested_X"][:, :4], 1.0)
        st.mc_edf(coll, st.GaussianModel(np.zeros(coll.n), sigma=1.0), reps=2, seed=0)
        soft = st.SoftThreshFamily(LIB_SIZES["soft_n"], 1.0)
        st.mc_edf(soft, st.GaussianModel(soft_theta0(), sigma=1.0), reps=2, seed=0)

    def body(self):
        out = {}
        for op, call in (
            ("hetero_mc", self._hetero_mc),
            ("ridge", self._ridge),
            ("bootstrap", self._bootstrap),
            ("general_theta", self._general_theta),
            ("nested", self._nested),
            ("soft_mc", self._soft_mc),
        ):
            try:
                out[op] = call()
            except Exception as exc:  # one failed call must not stop the others
                out[op] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    @staticmethod
    def _report(rep):
        return {"value": float(rep.value), "se": float(rep.std_error), "reps": int(rep.reps)}

    def _hetero_mc(self):
        st = self.st
        theta0, sigmas = hetero_model()
        rep = st.mc_edf(st.HeteroShrinkFamily(sigmas), st.GaussianModel(theta0, sigmas=sigmas),
                        reps=LIB_SIZES["hetero_reps"], seed=self.inputs["seeds"][0])
        return self._report(rep)

    def _ridge(self):
        st, inp = self.st, self.inputs
        rot = st.ridge_as_hetero(inp["ridge_X"], inp["ridge_y"], inp["ridge_sigma"])
        fit = rot.tune()
        model = st.GaussianModel(rot.Vt @ inp["ridge_beta"], sigmas=rot.family.sigmas)
        rep = st.mc_edf(rot.family, model, reps=LIB_SIZES["ridge_reps"],
                        seed=self.inputs["seeds"][1])
        return {
            "d": [float(v) for v in rot.d],
            "s_hat": float(fit.s_hat),
            "sure_min": float(fit.sure_min),
            "coef": [float(v) for v in rot.coef(fit.s_hat)],
            "mc": self._report(rep),
        }

    def _bootstrap(self):
        st = self.st
        _, sigmas = hetero_model()
        cfg = st.BootstrapConfig(B=LIB_SIZES["boot_B"], sampler="parametric",
                                 seed=self.inputs["seeds"][2])
        return self._report(st.bootstrap_edf(st.HeteroShrinkFamily(sigmas),
                                             self.inputs["boot_y"], cfg))

    def _general_theta(self):
        rep = self.st.general_theta_bound(self.inputs["gtb_mu"])
        out = {"windowed": float(rep.windowed), "alternate": float(rep.alternate),
               "cap": float(rep.cap), "p": int(rep.p)}
        for field in ("windowed_se", "alternate_se"):
            if hasattr(rep, field):
                out[field] = float(getattr(rep, field))
        return out

    def _nested(self):
        st = self.st
        coll = st.make_nested(self.inputs["nested_X"], 1.0)
        rep = st.mc_edf(coll, st.GaussianModel(np.zeros(coll.n), sigma=1.0),
                        reps=LIB_SIZES["nested_reps"], seed=self.inputs["seeds"][3])
        return {"ranks": [int(r) for r in coll.ranks], "mc": self._report(rep)}

    def _soft_mc(self):
        st = self.st
        rep = st.mc_edf(st.SoftThreshFamily(LIB_SIZES["soft_n"], 1.0),
                        st.GaussianModel(soft_theta0(), sigma=1.0),
                        reps=LIB_SIZES["soft_reps"], seed=self.inputs["seeds"][4])
        return self._report(rep)

    @functools.cached_property
    def check_context(self):
        """Independent references for this seed; computed once per run."""
        st, inp = self.st, self.inputs
        _, sigmas = hetero_model()
        fam = st.HeteroShrinkFamily(sigmas)
        try:
            fitted = fam.tune(inp["boot_y"]).theta_hat
            cross = self._report(st.mc_edf(fam, st.GaussianModel(fitted, sigmas=sigmas),
                                           reps=LIB_SIZES["hetero_reps"], seed=inp["seeds"][5]))
        except Exception as exc:  # reported as a failure of the bootstrap call
            cross = {"error": f"cross-check failed: {type(exc).__name__}: {exc}"}
        return {
            "inputs": inp,
            "sizes": LIB_SIZES,
            "refs": self.reference["mc_reference"],
            "boot_cross": cross,
            "gtb_exact": checks.general_theta_exact(inp["gtb_mu"]),
        }

    def check(self, output):
        seed_ref = self.reference["seed_results"] if self.seed == DEFAULT_SEED else None
        return checks.check_library_mix(output, self.check_context, seed_ref)


def make_library_inputs(seed):
    """Designs, data vectors and call seeds for library-mix, all from `seed`."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    n_rows, p = LIB_SIZES["ridge_rows"], LIB_SIZES["ridge_cols"]
    d, alpha0 = ridge_spectrum()
    U, _ = np.linalg.qr(rng.standard_normal((n_rows, p)))
    V, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sigma = 1.0
    beta = V @ alpha0
    X = (U * d) @ V.T
    y = X @ beta + sigma * rng.standard_normal(n_rows)
    theta0, sigmas = hetero_model()
    return {
        "ridge_d": d,
        "ridge_U": U,
        "ridge_X": X,
        "ridge_y": y,
        "ridge_beta": beta,
        "ridge_sigma": sigma,
        "boot_y": theta0 + sigmas * rng.standard_normal(theta0.shape[0]),
        "gtb_mu": rng.standard_normal(LIB_SIZES["gtb_p"]),
        "nested_X": rng.standard_normal((LIB_SIZES["nested_rows"], LIB_SIZES["nested_p"])),
        "seeds": [int(s) for s in rng.integers(0, 2**32, size=6)],
    }


WORKLOADS = ("desk", "paper-n5000", "library-mix")


def make(name, st, seed):
    if name in SIMULATIONS:
        return SimWorkload(st, seed, name)
    if name == "library-mix":
        return LibraryMix(st, seed)
    raise ValueError(f"unknown workload {name!r}")

