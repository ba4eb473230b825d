"""Benchmarks for the extension features (DESIGN.md E1-E4).

Not paper figures — these keep the extensions honest: EXP documents
must not blow up the core algorithms, ELCA must cost about as much as
SLCA (same single scan), the threshold variant must track PrStack, and
the Monte-Carlo estimator's cost must scale with the sample count.
"""

import random

import pytest

from repro import threshold_search
from repro.bench.runner import measure_callable
from repro.core.monte_carlo import monte_carlo_search
from repro.core.prstack import prstack_search
from repro.datagen import generate_mondial, make_probabilistic
from repro.index.storage import Database

_CACHE = {}


def exp_database() -> Database:
    """Mondial with a third of injected nodes being EXP."""
    if "db" not in _CACHE:
        document = make_probabilistic(
            generate_mondial(), mux_fraction=0.34, exp_fraction=0.33,
            seed=673)
        _CACHE["db"] = Database.from_document(document)
    return _CACHE["db"]


KEYWORDS = ["united", "states", "organization"]


@pytest.mark.parametrize("variant", ["slca", "elca"])
def test_semantics_cost(benchmark, report, variant):
    database = exp_database()

    def search():
        return prstack_search(database.index, KEYWORDS, 10,
                              elca=variant == "elca")

    benchmark.pedantic(search, rounds=3, iterations=1)
    measurement = measure_callable(search, repeats=1)
    report.add_row(
        "Extensions - semantics and variants (Mondial with EXP nodes)",
        ["feature", "time_ms", "results"],
        [f"prstack-{variant}", f"{measurement.response_time_ms:9.2f}",
         measurement.result_count])


def test_threshold_cost(benchmark, report):
    database = exp_database()

    def search():
        return threshold_search(database.index, KEYWORDS, 0.05)

    benchmark.pedantic(search, rounds=3, iterations=1)
    measurement = measure_callable(search, repeats=1)
    report.add_row(
        "Extensions - semantics and variants (Mondial with EXP nodes)",
        ["feature", "time_ms", "results"],
        ["threshold-0.05", f"{measurement.response_time_ms:9.2f}",
         measurement.result_count])


@pytest.mark.parametrize("samples", [25, 100])
def test_monte_carlo_cost(benchmark, report, samples):
    database = exp_database()

    def search():
        return monte_carlo_search(database.index, KEYWORDS, 10,
                                  samples=samples,
                                  rng=random.Random(673))

    measurement = benchmark.pedantic(
        lambda: measure_callable(search, repeats=1),
        rounds=1, iterations=1)
    report.add_row(
        "Extensions - semantics and variants (Mondial with EXP nodes)",
        ["feature", "time_ms", "results"],
        [f"monte-carlo-{samples}",
         f"{measurement.response_time_ms:9.2f}",
         measurement.result_count])
