"""Tests for the runtime invariant sanitizer (the dynamic half of
``repro.analysis``).

Three layers: direct unit tests of every check method, integration
tests proving sanitized queries behave identically to plain ones, and
corruption tests proving the sanitizer actually fires — a broken
harvest (mass drift) and shrunken EagerTopK bounds (unsound pruning)
must both raise :class:`SanitizerError` where an unsanitized run stays
silent.
"""

import pytest

from repro import DocumentBuilder, topk_search
from repro.analysis import (NULL_SANITIZER, Sanitizer, SanitizerError,
                            sanitize_from_env)
from repro.core.distribution import DistTable
from repro.core.heap import TopKHeap
from repro.encoding.dewey import DeweyCode
from repro.exceptions import ReproError
from repro.obs import MetricsCollector, SpanTracer


def code(text: str) -> DeweyCode:
    return DeweyCode.parse(text)


class TestProbabilityCheck:
    def test_in_range_passes(self):
        sanitizer = Sanitizer()
        for value in (0.0, 0.5, 1.0, 1.0 + 1e-9, -1e-9):
            sanitizer.check_probability(value, "test")
        assert sanitizer.checks == 5

    @pytest.mark.parametrize("value", [1.5, -0.2, 2.0])
    def test_out_of_range_raises(self, value):
        with pytest.raises(SanitizerError, match="outside"):
            Sanitizer().check_probability(value, "test")

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ReproError, match="epsilon"):
            Sanitizer(epsilon=-1.0)


class TestTableCheck:
    def test_valid_tables_pass(self):
        sanitizer = Sanitizer()
        sanitizer.check_table(DistTable.unit(), "unit")
        sanitizer.check_table(DistTable({0: 0.3, 1: 0.5}, lost=0.2),
                              "mixed")

    def test_mass_drift_raises(self):
        with pytest.raises(SanitizerError, match="table mass"):
            Sanitizer().check_table(DistTable({0: 0.4}, lost=0.2), "bad")

    def test_out_of_range_entry_raises(self):
        with pytest.raises(SanitizerError, match="outside"):
            Sanitizer().check_table(DistTable({1: 1.5}, lost=-0.5), "bad")


class TestMuxAndOrderChecks:
    def test_mux_mass_within_one_passes(self):
        Sanitizer().check_mux_mass(0.95, "mux")

    def test_mux_mass_above_one_raises(self):
        with pytest.raises(SanitizerError, match="sum to"):
            Sanitizer().check_mux_mass(1.5, "mux")

    def test_negative_mux_mass_raises(self):
        with pytest.raises(SanitizerError, match="negative"):
            Sanitizer().check_mux_mass(-0.5, "mux")

    def test_increasing_order_passes(self):
        sanitizer = Sanitizer()
        sanitizer.check_order(None, code("1.2"))
        sanitizer.check_order(code("1.2"), code("1.3"))

    def test_non_increasing_order_raises(self):
        with pytest.raises(SanitizerError, match="document-order"):
            Sanitizer().check_order(code("1.3"), code("1.2"))
        with pytest.raises(SanitizerError, match="document-order"):
            Sanitizer().check_order(code("1.2"), code("1.2"))


class TestEmissionAndHeapChecks:
    def test_emission_within_path_passes(self):
        Sanitizer().check_emission(code("1.2"), 0.3, 0.5)

    def test_emission_above_path_raises(self):
        with pytest.raises(SanitizerError, match="exceeds its path"):
            Sanitizer().check_emission(code("1.2"), 0.6, 0.5)

    def test_heap_property_violation_raises(self):
        with pytest.raises(SanitizerError, match="heap invariant"):
            Sanitizer().check_heap([0.5, 0.1], {}, 3)

    def test_oversized_heap_raises(self):
        with pytest.raises(SanitizerError, match="holds 2"):
            Sanitizer().check_heap([], {"a": 0.1, "b": 0.2}, 1)

    def test_heap_offers_are_checked(self):
        heap = TopKHeap(2, sanitizer=Sanitizer())
        assert heap.offer(code("1.1"), 0.5)
        with pytest.raises(SanitizerError):
            heap.offer(code("1.2"), 1.5)


class TestBoundBookkeeping:
    def test_record_bound_rejects_node_above_path(self):
        with pytest.raises(SanitizerError, match="exceeds its path"):
            Sanitizer().record_bound(code("1.2"), 0.3, 0.4)

    def test_verify_bounds_accepts_dominating_bounds(self):
        sanitizer = Sanitizer()
        sanitizer.record_bound(code("1.2"), 0.8, 0.6)
        sanitizer.verify_bounds({code("1.2"): 0.5, code("1"): 0.2})

    def test_verify_bounds_catches_unsound_node_bound(self):
        sanitizer = Sanitizer()
        sanitizer.record_bound(code("1.2"), 0.8, 0.1)
        with pytest.raises(SanitizerError, match="Properties 4-5"):
            sanitizer.verify_bounds({code("1.2"): 0.5})

    def test_verify_bounds_catches_unsound_path_bound(self):
        sanitizer = Sanitizer()
        sanitizer.record_bound(code("1.2"), 0.3, 0.1)
        with pytest.raises(SanitizerError, match="Properties 1-3"):
            sanitizer.verify_bounds({code("1"): 0.6})


class TestNullSanitizerAndEnv:
    def test_null_sanitizer_checks_nothing(self):
        NULL_SANITIZER.check_probability(42.0, "nonsense")
        NULL_SANITIZER.check_mux_mass(9.0, "nonsense")
        NULL_SANITIZER.verify_bounds({})
        assert NULL_SANITIZER.enabled is False
        assert NULL_SANITIZER.summary() == {}

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("yes", True), ("TRUE", True),
        ("0", False), ("false", False), ("No", False), ("", False),
    ])
    def test_env_values(self, value, expected):
        assert sanitize_from_env({"REPRO_SANITIZE": value}) is expected

    def test_env_unset_is_off(self):
        assert sanitize_from_env({}) is False


class TestTraceContext:
    def test_failure_quotes_trace_tail(self):
        collector = MetricsCollector(tracer=SpanTracer())
        with collector.time("eager.climb"):
            collector.event("eager.process", code="1.2", entries=3)
        sanitizer = Sanitizer(collector=collector)
        with pytest.raises(SanitizerError) as error:
            sanitizer.check_probability(2.0, "test")
        assert "trace tail" in str(error.value)
        assert "eager.process(code=1.2, entries=3)" in str(error.value)
        assert "eager.climb" not in str(error.value)  # a phase, no event

    def test_failure_without_trace_is_plain(self):
        with pytest.raises(SanitizerError) as error:
            Sanitizer().check_probability(2.0, "test")
        assert "trace tail" not in str(error.value)


class TestSanitizedSearch:
    @pytest.mark.parametrize("algorithm", ["prstack", "eager"])
    def test_identical_results_with_summary(self, figure1_db, algorithm):
        plain = topk_search(figure1_db, ["k1", "k2"], k=5, algorithm=algorithm)
        sanitized = topk_search(figure1_db, ["k1", "k2"], k=5,
                                algorithm=algorithm, sanitize=True)
        assert sanitized.codes() == plain.codes()
        assert sanitized.probabilities() == plain.probabilities()
        summary = sanitized.stats["sanitizer"]
        assert summary["checks"] > 0
        assert summary["violations"] == 0

    def test_default_run_has_no_sanitizer_stats(self, figure1_db):
        outcome = topk_search(figure1_db, ["k1", "k2"], k=5)
        assert "sanitizer" not in outcome.stats

    def test_eager_bounds_verified_on_small_input(self, figure1_db):
        outcome = topk_search(figure1_db, ["k1", "k2"], k=1,
                              algorithm="eager", sanitize=True)
        if outcome.stats["sanitizer"]["bounds_recorded"]:
            assert outcome.stats["sanitizer_bound_check"] == "verified"

    def test_env_variable_enables_sanitizer(self, figure1_db, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        outcome = topk_search(figure1_db, ["k1", "k2"], k=3)
        assert outcome.stats["sanitizer"]["checks"] > 0
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        outcome = topk_search(figure1_db, ["k1", "k2"], k=3)
        assert "sanitizer" not in outcome.stats

    def test_random_documents_pass_sanitized(self, pdoc_factory):
        for seed in range(5):
            document = pdoc_factory(seed, max_nodes=24)
            for algorithm in ("prstack", "eager"):
                sanitized = topk_search(document, ["k1", "k2"], k=4,
                                        algorithm=algorithm, sanitize=True)
                plain = topk_search(document, ["k1", "k2"], k=4,
                                    algorithm=algorithm)
                assert sanitized.codes() == plain.codes()


def build_residual_root_doc():
    """mid (edge 0.5) answers inside its subtree; when mid is absent the
    root still covers both keywords through w/v — so the root keeps an
    exact SLCA probability of 0.5 that any sound bound must dominate."""
    builder = DocumentBuilder("root")
    with builder.ind():
        with builder.element("mid", prob=0.5):
            builder.leaf("x", text="alpha")
            builder.leaf("y", text="beta")
    builder.leaf("w", text="alpha")
    builder.leaf("v", text="beta")
    return builder.build()


class TestCorruptionIsCaught:
    def test_broken_harvest_fires_table_check(self, figure1_db,
                                              monkeypatch):
        import repro.core.engine as engine_module
        honest_init = engine_module.StackEngine.__init__

        def with_leaky_harvest(self, full_mask, sink, *args, **kwargs):
            def leaky_harvest(table, self_mask):
                # Corruption: harvested mass vanishes instead of moving
                # to ``lost``, so the table no longer sums to 1.
                table.apply_self_mask(self_mask)
                return table.masks.pop(full_mask, 0.0)

            honest_init(self, full_mask, sink, *args,
                        ordinary_step=leaky_harvest, **kwargs)

        # The engine's ordinary-node step is where harvesting happens.
        monkeypatch.setattr(engine_module.StackEngine, "__init__",
                            with_leaky_harvest)
        # Unsanitized, the corruption passes silently...
        topk_search(figure1_db, ["k1", "k2"], k=3, algorithm="prstack")
        # ...the sanitizer is what catches it.
        with pytest.raises(SanitizerError, match="table mass"):
            topk_search(figure1_db, ["k1", "k2"], k=3,
                        algorithm="prstack", sanitize=True)

    def test_shrunken_bounds_fail_the_crosscheck(self, monkeypatch):
        import repro.core.eager as eager_module
        document = build_residual_root_doc()
        honest = eager_module.candidate_bounds

        # Honest bounds verify cleanly on this document...
        outcome = topk_search(document, ["alpha", "beta"], k=1,
                              algorithm="eager", sanitize=True)
        assert outcome.stats["sanitizer"]["bounds_recorded"] > 0
        assert outcome.stats["sanitizer_bound_check"] == "verified"

        def shrunken(node_type, path_probability, regions):
            path_bound, node_bound = honest(node_type, path_probability,
                                            regions)
            return path_bound * 0.01, node_bound * 0.01

        monkeypatch.setattr(eager_module, "candidate_bounds", shrunken)
        # ...shrunken (unsound) bounds are exposed by the exact
        # PrStack cross-check after the search.
        with pytest.raises(SanitizerError, match="unsound"):
            topk_search(document, ["alpha", "beta"], k=1,
                        algorithm="eager", sanitize=True)
