"""Regenerate the benchmark's recorded reference outputs.

    python3 bench/make_reference.py

Writes, under bench/reference/:

desk_seed0.csv, paper_n5000_seed0.csv
    the simulation workloads' CSV at the default seed, byte for byte;
library_mix.json
    `seed_results`: every library-mix result at the default seed;
    `mc_reference`: long Monte Carlo runs of the fixed library-mix models,
    drawn from seeds the benchmark never uses, against which any seed's
    estimate is compared within 4 combined standard errors.  The nested
    chain's null reference is simulated without the package.

Run it only when the package's outputs are meant to change, and say why in
the change that commits the new files.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import suretune as st  # noqa: E402
import suretune.cli  # noqa: E402,F401
import workloads as wls  # noqa: E402

REF_SEED = 1_000_003
REF_REPS = {"hetero_mc": 100_000, "ridge_mc": 50_000, "soft_mc": 100_000,
            "nested_mc": 2_000_000}


def long_mc(family, model, reps, seed, chunk=10_000):
    """Pool independent mc_edf runs of `chunk` reps into one estimate."""
    values, ses = [], []
    for k in range(reps // chunk):
        rep = st.mc_edf(family, model, reps=chunk, seed=[seed, k])
        values.append(rep.value)
        ses.append(rep.std_error)
    values, ses = np.array(values), np.array(ses)
    return {"value": float(values.mean()),
            "se": float(np.sqrt(np.sum(ses**2)) / len(ses)), "reps": int(reps)}


def nested_null_edf_reference(reps, seed, p=wls.LIB_SIZES["nested_p"], chunk=20_000):
    """Null excess df of Cp over a full-rank nested chain, without the package.

    Under theta0 = 0 the squared projections on the chain's orthonormal
    increments are i.i.d. chi-square(1), whatever the design.  Cp picks the
    prefix k maximising S_k - 2k (smallest k on ties), and the excess df is
    E[S_khat - khat] with S_k the first k squared increments.
    """
    rng = np.random.default_rng(seed)
    stats = []
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        z2 = rng.standard_normal((m, p)) ** 2
        S = np.concatenate([np.zeros((m, 1)), np.cumsum(z2, axis=1)], axis=1)
        k = np.argmax(S - 2.0 * np.arange(p + 1), axis=1)
        stats.append(S[np.arange(m), k] - k)
        done += m
    stats = np.concatenate(stats)
    return {"value": float(stats.mean()), "se": float(stats.std(ddof=1) / math.sqrt(reps)),
            "reps": int(reps)}


def mc_references():
    theta0, sigmas = wls.hetero_model()
    d, alpha0 = wls.ridge_spectrum()
    soft = st.SoftThreshFamily(wls.LIB_SIZES["soft_n"], 1.0)
    return {
        "hetero_mc": long_mc(st.HeteroShrinkFamily(sigmas),
                             st.GaussianModel(theta0, sigmas=sigmas),
                             REF_REPS["hetero_mc"], REF_SEED),
        "ridge_mc": long_mc(st.HeteroShrinkFamily(1.0 / d),
                            st.GaussianModel(alpha0, sigmas=1.0 / d),
                            REF_REPS["ridge_mc"], REF_SEED + 1),
        "soft_mc": long_mc(soft, st.GaussianModel(wls.soft_theta0(), sigma=1.0),
                           REF_REPS["soft_mc"], REF_SEED + 2),
        "nested_mc": nested_null_edf_reference(REF_REPS["nested_mc"], REF_SEED + 3),
    }


def main():
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    seed = wls.DEFAULT_SEED
    for name, (_, fname) in wls.SIMULATIONS.items():
        (out / fname).write_text(wls.run_cli(st, wls.sim_argv(name, seed)), encoding="ascii")
        print(f"wrote {fname}", flush=True)
    doc = {"seed_results": wls.LibraryMix(st, seed).body(), "mc_reference": mc_references()}
    (out / "library_mix.json").write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote library_mix.json")


if __name__ == "__main__":
    main()
