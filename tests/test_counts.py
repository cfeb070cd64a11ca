"""Every integer size, seed or component index a caller passes is checked by one rule,
``spaces._count``: an integer (Python or numpy, not a bool) of at least
its least value, or the calling module's ``InputError`` naming it.  A
new count parameter costs one row of ``COUNTS`` (and of ``CLI_COUNTS``
if a flag sets it)."""

import pathlib

import numpy as np
import pytest

from ofpca import (
    BadRank,
    DistributionSimConfig,
    InputError,
    InvalidObject,
    KernelSurface,
    NetworkSimConfig,
    ObjectSample,
    SpaceKind,
    eigendecompose,
    fit_fpca,
    jacobi_polynomial,
    mise_report,
    network_sim_basis,
)
from ofpca.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SMALL_DESIGN = DistributionSimConfig(n=4, n_times=9, m=8)
SURFACE = KernelSurface(np.linspace(0.0, 1.0, 5), np.eye(5))
EIGEN = eigendecompose(SURFACE, k=3)
SAMPLE = ObjectSample(SpaceKind("scalar", 1), np.linspace(0.0, 1.0, 6),
                      np.random.default_rng(3).normal(size=(5, 6, 1)))

# (parameter, the name its error gives, least value, error class, call with it)
COUNTS = [
    ("SpaceKind.dim", "dim", 1, InvalidObject, lambda v: SpaceKind("quantile", v)),
    ("DistributionSimConfig.n", "n", 2, InvalidObject, lambda v: DistributionSimConfig(n=v)),
    ("DistributionSimConfig.n_times", "n_times", 3, InvalidObject,
     lambda v: DistributionSimConfig(n=4, n_times=v)),
    ("DistributionSimConfig.m", "m", 2, InvalidObject, lambda v: DistributionSimConfig(n=4, m=v)),
    ("DistributionSimConfig.seed", "seed", 0, InvalidObject,
     lambda v: DistributionSimConfig(n=4, seed=v)),
    ("NetworkSimConfig.n", "n", 2, InvalidObject, lambda v: NetworkSimConfig(n=v)),
    ("NetworkSimConfig.n_times", "n_times", 3, InvalidObject,
     lambda v: NetworkSimConfig(n=4, n_times=v)),
    ("NetworkSimConfig.seed", "seed", 0, InvalidObject, lambda v: NetworkSimConfig(n=4, seed=v)),
    ("jacobi_polynomial.n", "n", 0, InvalidObject, lambda v: jacobi_polynomial(v, 4.0, 3.0, 0.5)),
    ("network_sim_basis.j", "j", 1, InvalidObject, lambda v: network_sim_basis(v, 0.5)),
    ("mise_report.runs", "runs", 1, InvalidObject, lambda v: mise_report(SMALL_DESIGN, runs=v)),
    ("mise_report.n_components", "n_components", 1, BadRank,
     lambda v: mise_report(SMALL_DESIGN, runs=1, n_components=v)),
    ("eigendecompose.k", "k", 1, BadRank, lambda v: eigendecompose(SURFACE, k=v)),
    ("fit_fpca.n_components", "n_components", 1, BadRank, lambda v: fit_fpca(SAMPLE, n_components=v)),
    ("EigenSystem.integral", "component", 1, BadRank, lambda v: EIGEN.integral(v)),
]


@pytest.mark.parametrize("name, least, error, call", [row[1:] for row in COUNTS],
                         ids=[row[0] for row in COUNTS])
def test_count_rule(name, least, error, call):
    assert issubclass(error, InputError)
    for bad in (True, False, np.True_, 2.5, float(least), np.nan, np.inf, "3", None, least - 1):
        with pytest.raises(error, match=f"^{name} must be an integer >= {least}, got "):
            call(bad)
    call(np.int64(least))
    call(np.int32(least + 1))


def test_counts_are_stored_as_int():
    assert type(SpaceKind("quantile", np.int64(3)).dim) is int
    for cfg in (DistributionSimConfig(n=np.int64(4), n_times=np.int32(5), m=np.int16(6),
                                      seed=np.uint64(7)),
                NetworkSimConfig(n=np.int64(4), n_times=np.int32(5), seed=np.uint8(7))):
        assert all(type(value) is int for value in vars(cfg).values())


# (argv without --out, the error message)
CLI_COUNTS = [
    (["simulate", "--design", "dist", "--n", "1"], "n must be an integer >= 2, got 1"),
    (["simulate", "--design", "dist", "--n", "5", "--T", "2"],
     "n_times must be an integer >= 3, got 2"),
    (["simulate", "--design", "dist", "--n", "5", "--m", "1"], "m must be an integer >= 2, got 1"),
    (["simulate", "--design", "net", "--n", "5", "--seed", "-1"],
     "seed must be an integer >= 0, got -1"),
    (["mise", "--design", "net", "--n", "5", "--runs", "0"], "runs must be an integer >= 1, got 0"),
    (["mise", "--design", "net", "--n", "5", "--runs", "1", "--components", "0"],
     "n_components must be an integer >= 1, got 0"),
    (["fit", DATA / "scalar_fixture.json", "--components", "0"],
     "n_components must be an integer >= 1, got 0"),
    (["fit", DATA / "scalar_fixture.json", "--components", "99"],
     "n_components must be in [1, 12], got 99"),
]


@pytest.mark.parametrize("argv, message", CLI_COUNTS, ids=[" ".join(map(str, argv[:1] + argv[-2:]))
                                                          for argv, _ in CLI_COUNTS])
def test_cli_count_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([str(a) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
