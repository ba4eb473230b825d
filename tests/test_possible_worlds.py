"""Unit tests for exact possible-world enumeration (Section II)."""

import random

import pytest

from repro import (DocumentBuilder, enumerate_possible_worlds,
                   sample_possible_world)
from repro.exceptions import ModelError
from repro.prxml.possible_worlds import (count_possible_worlds,
                                         world_probability_total)


class TestEnumeration:
    def test_deterministic_document_single_world(self):
        builder = DocumentBuilder("a")
        builder.leaf("b")
        builder.leaf("c")
        worlds = enumerate_possible_worlds(builder.build())
        assert len(worlds) == 1
        assert worlds[0].probability == pytest.approx(1.0)
        assert len(worlds[0].node_ids) == 3

    def test_ind_child_subsets(self):
        builder = DocumentBuilder("a")
        with builder.ind():
            builder.leaf("x", prob=0.6)
            builder.leaf("y", prob=0.5)
        worlds = enumerate_possible_worlds(builder.build())
        assert len(worlds) == 4
        probabilities = sorted(w.probability for w in worlds)
        assert probabilities == pytest.approx(
            sorted([0.3, 0.3, 0.2, 0.2]))

    def test_mux_at_most_one_child(self):
        builder = DocumentBuilder("a")
        with builder.mux():
            builder.leaf("x", prob=0.5)
            builder.leaf("y", prob=0.3)
        worlds = enumerate_possible_worlds(builder.build())
        assert len(worlds) == 3
        by_size = {len(w.node_ids): w.probability for w in worlds}
        assert by_size[1] == pytest.approx(0.2)  # neither chosen
        for world in worlds:
            labels = [n.label for n in world.root.iter_subtree()]
            assert not ("x" in labels and "y" in labels)

    def test_paper_example_2_seven_worlds(self, fragment_doc):
        """Figure 2: the C1 subtree yields 7 worlds with probabilities
        0.5, 0.063, 0.3, 0.007, 0.027, 0.103 (and the parent branch's
        absence mass 1 - 0.15 here, since our fragment hangs C1 at
        Pr(path) = 0.15)."""
        worlds = enumerate_possible_worlds(fragment_doc)
        with_c1 = [w for w in worlds
                   if any(n.label == "C1" for n in w.root.iter_subtree())]
        probabilities = sorted(
            round(w.probability / 0.15, 6) for w in with_c1)
        assert probabilities == pytest.approx(
            sorted([0.5, 0.063, 0.3, 0.007, 0.027, 0.103]))

    def test_probabilities_sum_to_one(self, figure1_doc):
        worlds = enumerate_possible_worlds(figure1_doc)
        assert world_probability_total(worlds) == pytest.approx(1.0)

    def test_identical_worlds_merged(self):
        # Two MUX children with the same label still yield distinct
        # worlds (different source nodes), but absence branches merge.
        builder = DocumentBuilder("a")
        with builder.mux():
            builder.leaf("x", prob=0.4)
        with builder.mux():
            builder.leaf("y", prob=0.5)
        worlds = enumerate_possible_worlds(builder.build())
        assert len(worlds) == 4
        assert count_possible_worlds(builder.build()) == 4

    def test_distributional_chains_splice_to_ordinary_ancestor(self):
        builder = DocumentBuilder("a")
        with builder.mux():
            with builder.ind(prob=0.5):
                builder.leaf("x", prob=1.0)
        worlds = enumerate_possible_worlds(builder.build())
        has_x = [w for w in worlds if len(w.node_ids) == 2]
        assert len(has_x) == 1
        world = has_x[0]
        assert world.root.children[0].label == "x"
        assert world.probability == pytest.approx(0.5)

    def test_max_worlds_guard(self):
        builder = DocumentBuilder("a")
        with builder.ind():
            for index in range(30):
                builder.leaf(f"x{index}", prob=0.5)
        with pytest.raises(ModelError, match="max_worlds"):
            enumerate_possible_worlds(builder.build(), max_worlds=1000)

    def test_contains_maps_back_to_source_nodes(self, fragment_doc):
        worlds = enumerate_possible_worlds(fragment_doc)
        c1 = fragment_doc.find_by_label("C1")[0]
        total = sum(w.probability for w in worlds if w.contains(c1))
        assert total == pytest.approx(0.15)


class TestSampling:
    def test_sampling_frequency_approximates_probability(self,
                                                         fragment_doc):
        rng = random.Random(42)
        c1 = fragment_doc.find_by_label("C1")[0]
        hits = sum(
            sample_possible_world(fragment_doc, rng).contains(c1)
            for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.15, abs=0.02)

    def test_sampled_world_respects_mux(self):
        builder = DocumentBuilder("a")
        with builder.mux():
            builder.leaf("x", prob=0.5)
            builder.leaf("y", prob=0.5)
        doc = builder.build()
        rng = random.Random(1)
        for _ in range(200):
            world = sample_possible_world(doc, rng)
            labels = [n.label for n in world.root.iter_subtree()]
            assert not ("x" in labels and "y" in labels)
