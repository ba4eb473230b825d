"""The shared bottom-up stack engine.

Both algorithms compute SLCA probabilities the same way (Section III-B):
walk keyword-matching items in document order with a stack of path
frames; when a frame pops, finalise its node's keyword distribution
table (MUX residue, self mask, ordinary-node harvesting) and promote it
into the parent frame with the rule matching the parent's type.

Every caller drives one loop, :meth:`StackEngine.scan`, over a run of
items.  PrStack scans *every* match entry and runs the stack to the
root (:meth:`StackEngine.finish`).  EagerTopK runs one engine per
candidate over just that candidate's subtree items — unconsumed match
entries merged with the precomputed ("preset") tables of
already-processed descendant regions — and stops at the candidate
itself (:meth:`StackEngine.finish_candidate`), which is exactly the
paper's ``ComputeSLCAProbability``.  Finishing is the same loop fed an
end-of-document sentinel, so the frame pop/promote code exists once.

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

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.numeric import PROB_ATOL
from repro.analysis.sanitizer import NULL_SANITIZER, SanitizerLike
from repro.core.distribution import (DistTable, add_mux_residue,
                                     check_edge_probability, or_convolve,
                                     or_mask)
from repro.encoding.encoder import EncodedDocument
from repro.exceptions import ReproError
from repro.obs.metrics import EngineMetrics, NULL_COLLECTOR, SAMPLE_BUFFER
from repro.prxml.model import NodeType
from repro.resilience.deadline import DeadlineLike, NULL_DEADLINE

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

_ORDINARY = NodeType.ORDINARY
_MUX = NodeType.MUX
_EXP = NodeType.EXP
_UNIT = {0: 1.0}  # compared against, never mutated
_SLOTS = 24


class StackEngine:
    """Document-order stack evaluator for keyword distribution tables."""

    def __init__(self, full_mask: int, sink: ResultSink,
                 encoded: EncodedDocument, context_length: int = 0,
                 elca: bool = False,
                 collector: EngineMetrics = NULL_COLLECTOR,
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
        # region's table and is therefore never mutated.  The slots
        # start _SLOTS deep below the context and grow on demand.
        self._top = context_length
        size = context_length + _SLOTS
        self._nodes: List[int] = [0] * size
        self._kinds: List[Optional[NodeType]] = [None] * size
        self._own: List[int] = [0] * size
        self._tables: List[Optional[Dict[int, float]]] = [None] * size
        self._lost: List[float] = [0.0] * size
        self._lambdas: List[float] = [0.0] * size
        # Finalised child tables of open EXP frames, by EXP depth.
        self._exp_children: Dict[int, Dict[int, DistTable]] = {}
        self._bottom: Optional[DistTable] = None
        self._current = -1
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

    # -- scanning --------------------------------------------------------------

    def scan(self, nodes: Sequence[int], masks: Sequence[int],
             presets: Optional[Mapping[int, DistTable]] = None,
             deadline: DeadlineLike = NULL_DEADLINE) -> int:
        """Feed a run of items; items must arrive in document order,
        within a run and across runs.

        An item is a match entry — a node id and its keyword mask — or,
        when ``presets`` maps its node id to a finished table, a preset
        descendant region whose table is used verbatim (its mask must
        be 0).  Each item first pops the open frames whose subtree ends
        at or before it, then opens frames down to itself; the node id
        ``len(encoded)``, past every subtree end, is the end-of-document
        sentinel that pops every frame and stops the run.  A live
        ``deadline`` is polled before every item; on expiry the run is
        cut — the open frames are left unfinalised, since finalising
        them would fabricate probabilities that ignore the unscanned
        part of their subtrees — and the run's metrics are folded.

        Returns how many items were fed: ``len(nodes)`` unless cut.
        """
        encoded = self.encoded
        ends, depths, parents = encoded.ends, encoded.depths, encoded.parents
        node_kinds, edges, paths = encoded.kinds, encoded.edges, encoded.paths
        frames, kinds, own = self._nodes, self._kinds, self._own
        tables, lost_slots, lambdas = self._tables, self._lost, self._lambdas
        context, end = self.context_length, len(encoded)
        full_mask, elca, step, sink = (self.full_mask, self.elca,
                                       self._step, self.sink)
        sanitizer = self.sanitizer
        sanitized = sanitizer.enabled
        observed = self._observed
        depth_samples, sizes = self._depth_samples, self._size_samples
        polled = deadline.enabled
        top, current = self._top, self._current
        fed = pushed = popped = emitted = 0
        presets_fed = mux_residues = exp_combinations = 0
        cut = False
        try:
            for node, mask in zip(nodes, masks):
                if polled and deadline.expired():
                    cut = True
                    break
                if sanitized and node < end:
                    sanitizer.check_order(current, node)
                if node <= current:
                    raise ReproError(
                        "items out of document order: "
                        f"{encoded.code(node)} after "
                        f"{encoded.code(current)}")
                # The open frames are the last item's root path: pop
                # those whose subtree ends at or before this item.
                while top > context and ends[frames[top]] <= node:
                    frame = frames[top]
                    kind = kinds[top]
                    table = tables[top]
                    lost = lost_slots[top]
                    # A preset region's table (kind None) is used
                    # verbatim; it aliases the region, so it is copied
                    # before any mutation.
                    owned = kind is not None
                    if owned:
                        if kind is _ORDINARY:
                            if step is not None:
                                wrapped = DistTable(
                                    _UNIT.copy() if table is None
                                    else table, lost)
                                local = step(wrapped, own[top])
                                table, lost = wrapped.masks, wrapped.lost
                            else:
                                mine = own[top]
                                if table is None:
                                    table = {mine: 1.0}
                                elif mine and table:
                                    table = or_mask(table, mine)
                                local = table.pop(full_mask, 0.0)
                                if not elca:
                                    lost += local
                                elif local:
                                    table[0] = table.get(0, 0.0) + local
                            if local > 0.0:
                                path = paths[frame]
                                probability = path * local
                                if sanitized:
                                    sanitizer.check_emission(
                                        encoded.code(frame), probability,
                                        path)
                                sink(frame, probability)
                                emitted += 1
                        elif kind is _MUX:
                            if sanitized:
                                sanitizer.check_mux_mass(
                                    lambdas[top],
                                    f"MUX node at depth {top}")
                            if table is None:
                                table = {}
                            add_mux_residue(table, lambdas[top])
                            mux_residues += 1
                        elif kind is _EXP:
                            combined = self._combine_exp(top)
                            table, lost = combined.masks, combined.lost
                            exp_combinations += 1
                        elif table is None:
                            table = _UNIT.copy()
                        if sanitized:
                            sanitizer.check_table(
                                DistTable(table, lost),
                                f"finalised table at depth {top} "
                                f"({kind.name} frame)")
                        if observed:
                            sizes.append(len(table))
                    edge = edges[frame]
                    top -= 1
                    popped += 1
                    if top == context:
                        # The run's bottom frame has no parent here.
                        self._bottom = DistTable(table, lost)
                        break
                    parent_kind = kinds[top]
                    if parent_kind is _EXP:
                        # EXP parents combine children per explicit
                        # subset at their own finalisation; keep the
                        # child unpromoted.
                        self._exp_children.setdefault(top, {})[
                            encoded.positions[frame]] = DistTable(table,
                                                                  lost)
                        continue
                    if not -PROB_ATOL <= edge - 1.0 <= PROB_ATOL:
                        # Promotion (Equations 4 and 6) into a fresh
                        # dict; a certain edge is the identity and keeps
                        # the dict.
                        if not 0.0 < edge <= 1.0:
                            check_edge_probability(edge)
                        table = {mask_: prob * edge
                                 for mask_, prob in table.items()}
                        if parent_kind is not _MUX:
                            table[0] = table.get(0, 0.0) + (1.0 - edge)
                        lost = lost * edge
                        owned = True
                    parent = tables[top]
                    if parent_kind is _MUX:
                        # Equation 7: mutually exclusive children's
                        # mass adds.
                        lambdas[top] += edge
                        if parent is None:
                            tables[top] = table if owned else dict(table)
                        else:
                            for mask_, prob in table.items():
                                parent[mask_] = parent.get(mask_, 0.0) \
                                    + prob
                        lost_slots[top] += lost
                        continue
                    # Equation 5: OR-convolution; into the unit table it
                    # is a plain assignment, as the paper notes.
                    parent_lost = lost_slots[top]
                    if parent is None or (
                            -PROB_ATOL <= parent_lost <= PROB_ATOL
                            and (not parent or parent == _UNIT)):
                        tables[top] = table if owned else dict(table)
                        lost_slots[top] = lost
                    else:
                        tables[top] = or_convolve(parent, table)
                        lost_slots[top] = parent_lost + lost \
                            - parent_lost * lost
                if node >= end:
                    break
                length = depths[node]
                if length <= context:
                    raise ReproError(
                        f"item {encoded.code(node)} is outside the "
                        f"engine context (length {context})")
                if length >= len(kinds):
                    self._grow(length + 1)
                # Open frames for depths top + 1 .. length: the item
                # and its ancestors below the kept frames.
                pushed += length - top
                opened = node
                for depth in range(length, top, -1):
                    if sanitized:
                        sanitizer.check_probability(
                            edges[opened], "edge probability onto "
                            f"{encoded.code(opened)}")
                        sanitizer.check_probability(
                            paths[opened], "path probability of "
                            f"{encoded.code(opened)}")
                    frames[depth] = opened
                    kinds[depth] = node_kinds[opened]
                    own[depth] = 0
                    tables[depth] = None
                    lost_slots[depth] = 0.0
                    lambdas[depth] = 0.0
                    opened = parents[opened]
                top, current = length, node
                fed += 1
                preset = presets.get(node) if presets is not None \
                    else None
                if preset is None:
                    own[length] = mask
                else:
                    if mask:
                        raise ReproError(
                            "a preset item cannot also carry a self mask")
                    kinds[length] = None
                    tables[length] = preset.masks
                    lost_slots[length] = preset.lost
                    presets_fed += 1
                if observed:
                    depth_samples.append(length - context)
                    if len(depth_samples) >= SAMPLE_BUFFER \
                            or len(sizes) >= SAMPLE_BUFFER:
                        self._fold_samples()
        finally:
            self._top, self._current = top, current
            self.items_fed += fed
            self.frames_pushed += pushed
            self.frames_popped += popped
            self.results_emitted += emitted
            self._presets_fed += presets_fed
            self._mux_residues += mux_residues
            self._exp_combinations += exp_combinations
        if cut:
            self._fold_metrics()
        return fed

    def feed(self, node: int, mask: int = 0,
             table: Optional[DistTable] = None) -> None:
        """Feed one item: a match entry, or with ``table`` a preset
        region (see :meth:`scan`)."""
        self.scan((node,), (mask,), None if table is None else {node: table})

    def _grow(self, size: int) -> None:
        extra = size - len(self._kinds)
        self._kinds.extend([None] * extra)
        for slots in (self._lost, self._lambdas):
            slots.extend([0.0] * extra)
        for slots in (self._nodes, self._own):
            slots.extend([0] * extra)
        self._tables.extend([None] * extra)

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
        self.scan((len(self.encoded),), (0,))
        self._fold_metrics()

    def finish_candidate(self) -> DistTable:
        """Pop down to the candidate frame, finalise it *without*
        promotion, and return its table (EagerTopK mode).

        The candidate sits at depth ``context_length + 1``; its harvested
        result (if any) has already been delivered to the sink.  Returns
        the unit table when the engine was fed nothing (an empty subtree
        contains no keywords).
        """
        self.finish()
        if self._bottom is None:
            return DistTable.unit()
        return self._bottom

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
