"""The shared bottom-up stack engine.

Both algorithms compute SLCA probabilities the same way (Section III-B):
walk keyword-matching items in document order with a stack of path
frames; when a frame pops, finalise its node's keyword distribution
table (MUX residue, self mask, ordinary-node harvesting) and promote it
into the parent frame with the rule matching the parent's type.

PrStack feeds *every* match entry and runs the stack to the root
(:meth:`StackEngine.finish`).  EagerTopK runs one engine per candidate
over just that candidate's subtree items — unconsumed match entries plus
the precomputed ("preset") tables of already-processed descendant
regions — and stops at the candidate itself
(:meth:`StackEngine.finish_candidate`), which is exactly the paper's
``ComputeSLCAProbability``.

Items are preorder node ids of the :class:`EncodedDocument`, whose
columns supply everything a frame needs: the subtree end column decides
which frames an item pops, the parent column which it pushes, and the
kind, edge and path columns what each frame holds.  This loop is where
both algorithms spend their time, so frames are not objects: each open
frame is one slot, indexed by the frame's depth, across parallel lists
(node id, kind, self mask, mask dict, lost mass, merged MUX mass).  A
frame's mask dict is ``None`` until its first child merges — the
"contains nothing" unit for IND/ordinary frames, the empty sum for MUX
frames — and a pop promotes and merges directly on the dicts, with the
same additions and multiplications in the same order as the
:class:`DistTable` methods (DESIGN.md, "Stack engine frame layout").
Tables leave the engine as :class:`DistTable` objects: candidate
tables, EXP child tables, the sanitizer's view and the ordinary-node
hook.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.analysis.numeric import PROB_ATOL
from repro.analysis.sanitizer import NULL_SANITIZER, SanitizerLike
from repro.core.distribution import (DistTable, add_mux_residue,
                                     check_edge_probability, or_convolve,
                                     or_mask)
from repro.encoding.encoder import EncodedDocument
from repro.exceptions import ReproError
from repro.obs.metrics import Collector, NULL_COLLECTOR
from repro.prxml.model import NodeType

#: Callback invoked for every harvested SLCA result:
#: ``(node_id, global_probability)``.
ResultSink = Callable[[int, float], None]

#: The ordinary-node step hook: ``(table, self_mask) -> local``.  It gets
#: an ordinary node's table aggregated over its children and the node's
#: own mask, rewrites the table in place, and returns the node's local
#: answer probability (0.0 for none), which the engine scales by the
#: node's path probability and delivers to the sink.  The default step
#: is keyword semantics: OR the self mask in, then harvest (SLCA) or
#: consume (ELCA) the full mask.
OrdinaryStep = Callable[[DistTable, int], float]

#: Engine-local histogram samples are folded into the collector at the
#: end of every run and, within a run, as soon as a buffer reaches this
#: size after an item, so a whole-document run buffers at most this many
#: samples plus one stack depth's worth per histogram.
SAMPLE_BUFFER = 4096

_ORDINARY = NodeType.ORDINARY
_MUX = NodeType.MUX
_EXP = NodeType.EXP
_UNIT = {0: 1.0}  # compared against, never mutated


class StackEngine:
    """Document-order stack evaluator for keyword distribution tables."""

    def __init__(self, full_mask: int, sink: ResultSink,
                 encoded: EncodedDocument, context_length: int = 0,
                 elca: bool = False,
                 collector: Collector = NULL_COLLECTOR,
                 sanitizer: SanitizerLike = NULL_SANITIZER,
                 ordinary_step: Optional[OrdinaryStep] = None):
        """
        Args:
            full_mask: ``2**n - 1`` for an ``n``-keyword query.
            sink: receives every harvested ``(node_id, Pr^G_slca)``
                result.
            encoded: the document the fed node ids belong to; its
                columns give every frame's structure and probabilities,
                and its EXP subset distributions are combined at EXP
                frames.
            context_length: depth of the frames outside this engine's
                responsibility — 0 for a whole-document run (PrStack),
                the candidate's depth minus one when evaluating one
                candidate's subtree (EagerTopK pops stop above it).
            elca: evaluate Exclusive-LCA semantics instead of SLCA —
                full-mask mass at an answer node is consumed (keywords
                used up, ancestors may still answer from other
                occurrences) rather than excluded from the whole path.
            collector: metrics collector receiving the ``engine.*``
                counters and histograms (docs/OBSERVABILITY.md), folded
                in once per run; the default no-op records nothing.
            sanitizer: runtime invariant checker (sanitize mode);
                asserts the feed order, edge probabilities, finalised
                tables, MUX mass and emitted results live
                (docs/ANALYSIS.md).  The default no-op checks nothing.
            ordinary_step: replaces the keyword semantics at ordinary
                nodes (see :data:`OrdinaryStep`); the twig engine's
                pattern-state transform is the one user.
        """
        if full_mask <= 0:
            raise ReproError("full_mask must cover at least one keyword")
        self.full_mask = full_mask
        self.sink = sink
        self.encoded = encoded
        self.context_length = context_length
        self.elca = elca
        self.collector = collector
        self.sanitizer = sanitizer
        self._step = ordinary_step
        self._observed = collector.enabled
        # Frame slots, indexed by depth; the open frames are depths
        # context_length + 1 .. _top, the root path of the last item.
        # A kind of None marks a preset frame, whose dict aliases the
        # region's table and is therefore never mutated.
        self._top = context_length
        self._nodes: List[int] = []
        self._kinds: List[Optional[NodeType]] = []
        self._own: List[int] = []
        self._tables: List[Optional[Dict[int, float]]] = []
        self._lost: List[float] = []
        self._lambdas: List[float] = []
        # Finalised child tables of open EXP frames, by EXP depth.
        self._exp_children: Dict[int, Dict[int, DistTable]] = {}
        self._bottom: Optional[DistTable] = None
        self._current: Optional[int] = None
        self.items_fed = 0
        self.frames_pushed = 0
        self.frames_popped = 0
        self.results_emitted = 0
        # Metrics accumulate here and reach the collector in one
        # observe_many per run (plus one per full sample buffer).
        self._presets_fed = 0
        self._mux_residues = 0
        self._exp_combinations = 0
        self._depth_samples: List[int] = []
        self._size_samples: List[int] = []

    # -- feeding ---------------------------------------------------------------

    def feed(self, node: int, mask: int = 0,
             table: Optional[DistTable] = None) -> None:
        """Process the next item; items must arrive in document order.

        An item is a match entry — a node id and its keyword ``mask``
        — or, with ``table``, a preset descendant region whose finished
        table is used verbatim (it cannot also carry a self mask).
        Under a live sanitizer the order is asserted before the
        engine's own check.
        """
        if self.sanitizer.enabled:
            self.sanitizer.check_order(self._current, node)
        encoded = self.encoded
        length = encoded.depths[node]
        context = self.context_length
        if length <= context:
            raise ReproError(
                f"item {encoded.code(node)} is outside the engine "
                f"context (length {context})")
        current = self._current
        start = self._top
        if current is not None:
            if node <= current:
                raise ReproError(
                    f"items out of document order: {encoded.code(node)} "
                    f"after {encoded.code(current)}")
            # Open frames are the last item's root path: pop those whose
            # subtree ends at or before the new item.
            ends, nodes = encoded.ends, self._nodes
            while start > context and ends[nodes[start]] <= node:
                start -= 1
            if self._top > start:
                self._pop_to(start)
        self._current = node
        self._push(node, start, length)
        self.items_fed += 1
        if table is None:
            self._own[length] |= mask
        else:
            if mask:
                raise ReproError(
                    "a preset item cannot also carry a self mask")
            live = self._tables[length]
            if self._own[length] or self._lambdas[length] or (
                    live is not None and live not in ({}, _UNIT)):
                raise ReproError(
                    f"preset table for {encoded.code(node)} collides "
                    "with live state")
            self._kinds[length] = None
            self._tables[length] = table.masks
            self._lost[length] = table.lost
            self._presets_fed += 1
        if len(self._size_samples) >= SAMPLE_BUFFER \
                or len(self._depth_samples) >= SAMPLE_BUFFER:
            self._fold_samples()

    def _push(self, node: int, start: int, length: int) -> None:
        """Open frames for depths ``start + 1 .. length``: the node and
        its ancestors below depth ``start``, walking the parent column
        up from the node."""
        kinds = self._kinds
        if length >= len(kinds):
            self._grow(length + 1)
        encoded = self.encoded
        parents, node_kinds = encoded.parents, encoded.kinds
        nodes, own, tables = self._nodes, self._own, self._tables
        lost, lambdas = self._lost, self._lambdas
        sanitizer = self.sanitizer
        sanitized = sanitizer.enabled
        for depth in range(length, start, -1):
            if sanitized:
                sanitizer.check_probability(
                    encoded.edges[node],
                    f"edge probability onto {encoded.code(node)}")
                sanitizer.check_probability(
                    encoded.paths[node],
                    f"path probability of {encoded.code(node)}")
            nodes[depth] = node
            kinds[depth] = node_kinds[node]
            own[depth] = 0
            tables[depth] = None
            lost[depth] = 0.0
            lambdas[depth] = 0.0
            node = parents[node]
        self._top = length
        self.frames_pushed += length - start
        if self._observed:
            self._depth_samples.append(length - self.context_length)

    def _grow(self, size: int) -> None:
        extra = size - len(self._kinds)
        self._kinds.extend([None] * extra)
        for slots in (self._lost, self._lambdas):
            slots.extend([0.0] * extra)
        for slots in (self._nodes, self._own):
            slots.extend([0] * extra)
        self._tables.extend([None] * extra)

    # -- popping ---------------------------------------------------------------

    def _pop_to(self, keep: int) -> None:
        """Finalise the frames deeper than ``keep``, deepest first, and
        promote each into its parent; the table of a frame without a
        parent in this run (depth ``context_length + 1``) is kept for
        :meth:`finish_candidate`."""
        top = self._top
        context = self.context_length
        encoded = self.encoded
        node_edges, node_paths = encoded.edges, encoded.paths
        nodes, kinds = self._nodes, self._kinds
        tables, lost_slots, lambdas = self._tables, self._lost, self._lambdas
        full_mask, elca, step = self.full_mask, self.elca, self._step
        sanitizer = self.sanitizer
        sanitized = sanitizer.enabled
        sizes = self._size_samples if self._observed else None
        self.frames_popped += top - keep
        while top > keep:
            node = nodes[top]
            kind = kinds[top]
            masks = tables[top]
            lost = lost_slots[top]
            # A preset region's table (kind None) is used verbatim; it
            # aliases the region, so it is copied before any mutation.
            owned = kind is not None
            if owned:
                if kind is _ORDINARY:
                    if step is not None:
                        table = DistTable(_UNIT.copy() if masks is None
                                          else masks, lost)
                        local = step(table, self._own[top])
                        masks, lost = table.masks, table.lost
                    else:
                        own = self._own[top]
                        if masks is None:
                            masks = {own: 1.0}
                        elif own and masks:
                            masks = or_mask(masks, own)
                        local = masks.pop(full_mask, 0.0)
                        if not elca:
                            lost += local
                        elif local:
                            masks[0] = masks.get(0, 0.0) + local
                    if local > 0.0:
                        path = node_paths[node]
                        probability = path * local
                        if sanitized:
                            sanitizer.check_emission(
                                encoded.code(node), probability, path)
                        self.sink(node, probability)
                        self.results_emitted += 1
                elif kind is _MUX:
                    if sanitized:
                        sanitizer.check_mux_mass(
                            lambdas[top], f"MUX node at depth {top}")
                    if masks is None:
                        masks = {}
                    add_mux_residue(masks, lambdas[top])
                    self._mux_residues += 1
                elif kind is _EXP:
                    combined = self._combine_exp(top)
                    masks, lost = combined.masks, combined.lost
                    self._exp_combinations += 1
                elif masks is None:
                    masks = _UNIT.copy()
                if sanitized:
                    sanitizer.check_table(
                        DistTable(masks, lost),
                        f"finalised table at depth {top} "
                        f"({kind.name} frame)")
                if sizes is not None:
                    sizes.append(len(masks))
            edge = node_edges[node]
            top -= 1
            if top <= context:
                self._bottom = DistTable(masks, lost)
                break
            parent_kind = kinds[top]
            if parent_kind is _EXP:
                # EXP parents combine children per explicit subset at
                # their own finalisation; keep the child unpromoted.
                self._exp_children.setdefault(top, {})[
                    encoded.positions[node]] = DistTable(masks, lost)
                continue
            if not -PROB_ATOL <= edge - 1.0 <= PROB_ATOL:
                # Promotion (Equations 4 and 6) into a fresh dict; a
                # certain edge is the identity and keeps the dict.
                if not 0.0 < edge <= 1.0:
                    check_edge_probability(edge)
                masks = {mask: prob * edge for mask, prob in masks.items()}
                if parent_kind is not _MUX:
                    masks[0] = masks.get(0, 0.0) + (1.0 - edge)
                lost = lost * edge
                owned = True
            parent = tables[top]
            if parent_kind is _MUX:
                # Equation 7: mutually exclusive children's mass adds.
                lambdas[top] += edge
                if parent is None:
                    tables[top] = masks if owned else dict(masks)
                else:
                    for mask, prob in masks.items():
                        parent[mask] = parent.get(mask, 0.0) + prob
                lost_slots[top] += lost
                continue
            # Equation 5: OR-convolution; into the unit table it is a
            # plain assignment, as the paper notes.
            parent_lost = lost_slots[top]
            if parent is None or (
                    -PROB_ATOL <= parent_lost <= PROB_ATOL
                    and (not parent or parent == _UNIT)):
                tables[top] = masks if owned else dict(masks)
                lost_slots[top] = lost
            else:
                tables[top] = or_convolve(parent, masks)
                lost_slots[top] = parent_lost + lost - parent_lost * lost
        self._top = keep

    def _combine_exp(self, depth: int) -> DistTable:
        """Combine an EXP frame's child tables per its explicit subset
        distribution: ``tab = sum_S q_S * conv(tab_c for c in S)`` plus
        the no-subset residue on mask 0.  Children without keyword
        matches have the unit table and drop out of the convolution."""
        children = self._exp_children.pop(depth, {})
        combined = DistTable()
        total = 0.0
        for positions, probability in self.encoded.exp_subsets_at(
                self._nodes[depth]):
            convolution = DistTable.unit()
            for position in positions:
                child_table = children.get(position)
                if child_table is not None:
                    convolution.merge_ind(child_table)
            combined.merge_mux(convolution.promoted_mux(probability))
            total += probability
        combined.add_mux_residue(total)
        return combined

    # -- termination ------------------------------------------------------------

    def finish(self) -> None:
        """Pop every frame (whole-document mode); results flow to the sink."""
        self._pop_to(self.context_length)
        self._fold_metrics()

    def finish_candidate(self) -> DistTable:
        """Pop down to the candidate frame, finalise it *without*
        promotion, and return its table (EagerTopK mode).

        The candidate sits at depth ``context_length + 1``; its harvested
        result (if any) has already been delivered to the sink.  Returns
        the unit table when the engine was fed nothing (an empty subtree
        contains no keywords).
        """
        self._pop_to(self.context_length)
        self._fold_metrics()
        if self._bottom is None:
            return DistTable.unit()
        return self._bottom

    def cut(self) -> None:
        """End the run early (a deadline cut): the open frames are left
        unfinalised — finalising them would fabricate probabilities
        that ignore the unscanned part of their subtrees — and the
        run's metrics are folded into the collector."""
        self._fold_metrics()

    def _fold_metrics(self) -> None:
        """Fold this run's counters and buffered samples into the
        collector under a single lock acquisition."""
        if not self._observed:
            return
        counts = {"engine.frames_pushed": self.frames_pushed,
                  "engine.frames_popped": self.frames_popped,
                  "engine.results_emitted": self.results_emitted}
        for name, value in (
                ("engine.items_fed", self.items_fed),
                ("engine.preset_tables_fed", self._presets_fed),
                ("engine.mux_residues", self._mux_residues),
                ("engine.exp_combinations", self._exp_combinations)):
            if value:
                counts[name] = value
        self._fold_samples(counts)

    def _fold_samples(self, counts: Optional[Dict[str, int]] = None
                      ) -> None:
        self.collector.observe_many(
            {"engine.stack_depth": self._depth_samples,
             "engine.dist_table_size": self._size_samples}, counts)
        self._depth_samples.clear()
        self._size_samples.clear()
