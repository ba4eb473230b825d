"""Keyword distribution tables (Section III-B of the paper).

For a query of ``n`` keywords and a node ``v``, the table ``tab_v`` maps
each keyword bitmask ``x`` (``0 .. 2**n - 1``) to the probability that,
in a random local possible world of ``T_sub(v)`` conditioned on ``v``
existing, the subtree contains exactly the keywords in ``x`` *and* no
descendant ordinary node already accounted for an SLCA.

Mass removed when an ordinary descendant harvests the full mask is
tracked in :attr:`DistTable.lost`: those worlds contain all keywords
below, so neither ``v`` nor any ancestor can be an SLCA in them, but
they still matter for the ``Pr_all`` upper bounds of Section IV-B —
``P(T_sub(v) contains all | v exists) = tab_v[full] + lost_v``.

Entry + lost mass always sums to 1 (the tables are genuine probability
distributions over local worlds); zero-probability masks are simply
absent, as the paper's implementation note prescribes.

The promotion/merge rules implement Equations 4-8:

========  =======================================================
Eq 4      promote under an IND/ordinary parent (absence adds to 0)
Eq 5      independent merge: bitwise-OR convolution
Eq 6      promote under a MUX parent (no per-child absence term)
Eq 7      mutually exclusive merge: pointwise addition
Eq 8      MUX residue: no-child-chosen probability joins mask 0
========  =======================================================
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.analysis.numeric import clamp01, is_one, is_zero
from repro.exceptions import ModelError


class DistTable:
    """A sparse keyword-mask distribution with excluded-mass tracking."""

    __slots__ = ("masks", "lost")

    def __init__(self, masks: Optional[Dict[int, float]] = None,
                 lost: float = 0.0) -> None:
        self.masks: Dict[int, float] = masks if masks is not None else {}
        self.lost: float = lost

    # -- constructors ---------------------------------------------------------

    @classmethod
    def unit(cls) -> "DistTable":
        """The empty-subtree distribution: contains nothing, surely."""
        return cls({0: 1.0})

    @classmethod
    def for_match(cls, mask: int) -> "DistTable":
        """Distribution of a leaf that matches exactly ``mask``'s keywords."""
        return cls({mask: 1.0})

    # -- inspection --------------------------------------------------------------

    def probability(self, mask: int) -> float:
        """Probability of containing exactly ``mask``'s keywords."""
        return self.masks.get(mask, 0.0)

    def total(self) -> float:
        """Retained + lost mass; 1.0 for any correctly maintained table.

        Deliberately *not* clamped: this is the diagnostic the tests and
        the runtime sanitizer use to detect mass drift, so hiding the
        drift here would defeat its purpose.
        """
        return sum(self.masks.values()) + self.lost  # repro: ignore[R003]

    def all_probability(self, full_mask: int) -> float:
        """Local probability that the subtree contains every keyword
        (including worlds already harvested below): feeds Pr_all."""
        return clamp01(self.masks.get(full_mask, 0.0) + self.lost)

    def items(self) -> Iterable[Tuple[int, float]]:
        """(mask, probability) pairs of the retained distribution."""
        return self.masks.items()

    def copy(self) -> "DistTable":
        """An independent copy."""
        return DistTable(dict(self.masks), self.lost)

    def __eq__(self, other: object) -> bool:
        # Structural identity for tests and caching — bitwise equality
        # of the stored floats is the contract here, not numeric
        # closeness (use total()/sanitizer checks for that).
        return (isinstance(other, DistTable) and self.masks == other.masks
                and self.lost == other.lost)  # repro: ignore[R001]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{mask:b}->{prob:.4g}"
                         for mask, prob in sorted(self.masks.items()))
        return f"DistTable({{{body}}}, lost={self.lost:.4g})"

    # -- promotion (child -> edge into parent) -------------------------------

    def promoted_ind(self, edge_prob: float) -> "DistTable":
        """Equation 4: promotion under an IND or ordinary parent.

        With probability ``1 - edge_prob`` the child is absent and the
        subtree contributes no keywords, so that mass joins mask 0.
        A certain edge is the identity, so the table is returned as-is
        (callers never mutate promoted tables).
        """
        if is_one(edge_prob):
            return self
        check_edge_probability(edge_prob)
        masks = {mask: prob * edge_prob for mask, prob in self.masks.items()}
        masks[0] = masks.get(0, 0.0) + (1.0 - edge_prob)
        return DistTable(masks, self.lost * edge_prob)

    def promoted_mux(self, edge_prob: float) -> "DistTable":
        """Equation 6: promotion under a MUX parent.

        Absence mass is *not* added per child; the parent folds the
        whole no-child-chosen residue into mask 0 once (Equation 8).
        """
        if is_one(edge_prob):
            return self
        check_edge_probability(edge_prob)
        masks = {mask: prob * edge_prob for mask, prob in self.masks.items()}
        return DistTable(masks, self.lost * edge_prob)

    # -- merging (within a parent's accumulating table) ------------------------

    def merge_ind(self, other: "DistTable") -> None:
        """Equation 5 in place: independent children combine by bitwise-OR
        convolution; excluded mass excludes the world regardless of the
        sibling, so retained fractions multiply."""
        if is_zero(self.lost) and (not self.masks
                                   or self.masks == {0: 1.0}):
            # Fresh or unit table: direct assignment, as the paper notes
            # (convolving with "contains nothing, surely" is identity).
            self.masks = dict(other.masks)
            self.lost = other.lost
            return
        self.masks = or_convolve(self.masks, other.masks)
        self.lost = self.lost + other.lost - self.lost * other.lost

    def merge_mux(self, other: "DistTable") -> None:
        """Equation 7 in place: mutually exclusive children's mass adds."""
        for mask, prob in other.masks.items():
            self.masks[mask] = self.masks.get(mask, 0.0) + prob
        self.lost += other.lost

    def add_mux_residue(self, merged_lambda_sum: float) -> None:
        """Equation 8: fold the probability that the MUX chose none of the
        merged children into mask 0.

        ``merged_lambda_sum`` is the sum of edge probabilities of the
        children actually merged (children without keyword matches were
        never materialised — their entire mass is keyword-free and lands
        in mask 0 through this same residue).
        """
        add_mux_residue(self.masks, merged_lambda_sum)

    # -- node-local operations ---------------------------------------------------

    def apply_self_mask(self, mask: int) -> None:
        """OR the node's own keyword mask into every entry (a node that
        matches keywords contributes them to its whole subtree)."""
        if mask == 0 or not self.masks:
            return
        self.masks = or_mask(self.masks, mask)

    def transform(self, function: Callable[[int], int]) -> None:
        """Remap every mask through ``function`` in place, merging
        collisions (used by the twig engine, whose per-node state is a
        deterministic function of the children's aggregated state —
        :func:`apply_self_mask` is the special case ``m -> m | mask``)."""
        updated: Dict[int, float] = {}
        for mask, probability in self.masks.items():
            key = function(mask)
            updated[key] = updated.get(key, 0.0) + probability
        self.masks = updated

    def harvest(self, full_mask: int) -> float:
        """Remove and return the full-mask probability (the node's local
        SLCA probability, Pr^L_slca).  The removed mass moves to ``lost``
        so ancestors can still see it through ``all_probability``."""
        probability = self.masks.pop(full_mask, 0.0)
        self.lost += probability
        return probability

    def consume(self, full_mask: int) -> float:
        """ELCA variant of :meth:`harvest`: remove and return the
        full-mask probability, folding it into mask 0.

        Under Exclusive-LCA semantics the keyword occurrences below an
        answer node are *consumed* rather than excluded — ancestors can
        still be answers from their remaining occurrences — so the mass
        re-enters the distribution as "contains nothing" instead of
        moving to ``lost``."""
        probability = self.masks.pop(full_mask, 0.0)
        if probability:
            self.masks[0] = self.masks.get(0, 0.0) + probability
        return probability


# -- mask-dict kernels ---------------------------------------------------------
#
# The arithmetic of Equations 5 and 8 and of the self-mask OR, on bare
# ``mask -> probability`` dicts.  :class:`DistTable` and the stack
# engine's inline pop path (repro.core.engine) share them, so both sum
# in the same order and agree bit for bit.

def or_convolve(left: Dict[int, float],
                right: Dict[int, float]) -> Dict[int, float]:
    """Bitwise-OR convolution of two mask distributions (Equation 5).

    Sums in dict insertion order, ``left`` outer and ``right`` inner:
    the answers are pinned bit for bit, so this order is part of the
    contract (tests/test_golden_answers.py).
    """
    combined: Dict[int, float] = {}
    get = combined.get
    for mask_a, prob_a in left.items():
        for mask_b, prob_b in right.items():
            key = mask_a | mask_b
            combined[key] = get(key, 0.0) + prob_a * prob_b
    return combined


def or_mask(masks: Dict[int, float], mask: int) -> Dict[int, float]:
    """A copy of ``masks`` with ``mask`` ORed into every entry, merging
    the entries that collide."""
    updated: Dict[int, float] = {}
    for entry_mask, prob in masks.items():
        key = entry_mask | mask
        updated[key] = updated.get(key, 0.0) + prob
    return updated


def add_mux_residue(masks: Dict[int, float],
                    merged_lambda_sum: float) -> None:
    """Equation 8 in place: the no-child-chosen probability
    ``1 - merged_lambda_sum`` joins mask 0."""
    residue = 1.0 - merged_lambda_sum
    if residue < -1e-9:
        raise ModelError(
            f"MUX children probabilities sum to {merged_lambda_sum:.6f} > 1")
    if residue > 0.0:
        masks[0] = masks.get(0, 0.0) + residue


def check_edge_probability(value: float) -> None:
    """Reject an edge probability outside ``(0, 1]``."""
    if not 0.0 < value <= 1.0:
        raise ModelError(f"edge probability {value!r} outside (0, 1]")
