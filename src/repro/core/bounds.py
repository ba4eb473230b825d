"""Pruning bounds (the sound form of Section IV-B's Properties 1-5).

EagerTopK prunes with upper bounds derived from already-evaluated
*regions*: pairwise-incomparable descendants ``d`` of a candidate ``v``
whose keyword distributions are known, giving each region's *local*
all-probability ``a_d = P(T_sub(d) contains every keyword | d exists)``.

**A soundness correction to the paper.**  Properties 1-3 as printed
multiply global factors ``(1 - Pr_all(d_i))``.  That product is only
valid when the events "``d_i``'s subtree covers all keywords" are
independent or negatively correlated — but regions *sharing path edges*
are positively correlated.  Counterexample: two sibling regions that
each cover all keywords exactly when their common ancestor edge (of
probability 0.42) is realised have ``Pr_all = 0.42`` each; the paper's
bound gives ``0.58^2 = 0.3364``, yet the document root is an SLCA with
probability ``0.58 > 0.3364``, so pruning with the printed bound loses
answers.  (This is observable in practice; the library's randomised
oracle tests caught it.)

The sound replacement used here conditions on the candidate and groups
regions by the child subtree of ``v`` they lie in:

* ``r_d = a_d * P(path v -> d)`` — probability ``d``'s subtree covers
  everything *given v exists*;
* regions in different child subtrees of ``v`` are independent given
  ``v`` (IND/ordinary) or mutually exclusive (MUX), so combining one
  representative per group is safe; within a group (shared edges below
  ``v``, correlation sign unknown) only the strongest region is used:
  ``P(no region covers | v) <= 1 - max r`` always holds.

With ``B(v) = prod over groups (1 - max r)`` (IND/ordinary) or
``B(v) = 1 - sum over groups (max r)`` (MUX):

* **node bound** (sound Properties 4/5):
  ``Pr_slca(v) <= Pr(path root->v) * B(v)`` for an ordinary ``v``, and
  exactly 0 for a distributional (IND/MUX/EXP) ``v``: only ordinary
  nodes are SLCA answers, so EagerTopK suspends such a candidate
  instead of sweeping it;
* **path bound** (sound Properties 1-3): SLCA events of distinct nodes
  on one root path are disjoint, and any of them excludes every region
  covering all keywords, so::

      sum over path root->v of Pr_slca
          <= (1 - Pr(path root->v)) + Pr(path root->v) * B(v)

  (the first term covers worlds where ``v`` itself is absent — exactly
  the mass the paper's formula mis-multiplies away).

When each group holds a single region — the common case once the climb
has collapsed siblings into their parent (the paper's Property 3
"tricky step") — the product form coincides with the paper's intent.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.prxml.model import NodeType


class RegionBound:
    """What a candidate needs to know about one evaluated region.

    Attributes:
        group: which child subtree of the candidate the region lies in
            (the node id of the candidate's child on the region's root
            path).
        cover_given_candidate: ``r_d`` — probability the region's subtree
            contains every keyword, conditioned on the candidate existing.
    """

    __slots__ = ("group", "cover_given_candidate")

    def __init__(self, group: int, cover_given_candidate: float):
        self.group = group
        self.cover_given_candidate = cover_given_candidate


def coverage_complement(node_type: NodeType,
                        regions: Iterable[RegionBound]) -> float:
    """``B(v)``: upper bound on ``P(no known region covers all | v exists)``.

    Takes the strongest region per group, then combines groups with the
    product (IND/ordinary: independent given ``v``) or complement-sum
    (MUX: mutually exclusive given ``v``) rule.
    """
    group_best: Dict[int, float] = {}
    for region in regions:
        cover = region.cover_given_candidate
        if cover > group_best.get(region.group, 0.0):
            group_best[region.group] = cover
    if node_type is NodeType.MUX:
        return max(0.0, 1.0 - sum(group_best.values()))
    if node_type is NodeType.EXP:
        # Explicit subsets correlate children arbitrarily, so even
        # cross-group products are unsafe: use the single strongest
        # region (always sound).
        best = max(group_best.values(), default=0.0)
        return max(0.0, 1.0 - best)
    complement = 1.0
    for cover in group_best.values():
        complement *= 1.0 - cover
    return max(0.0, complement)


def candidate_bounds(node_type: NodeType, path_probability: float,
                     regions: Iterable[RegionBound]) -> Tuple[float, float]:
    """Return ``(path_bound, node_bound)`` for one candidate.

    ``path_bound`` caps the summed SLCA probability of every node on the
    candidate's root path (prune the whole path below the k-th result);
    ``node_bound`` caps the candidate's own SLCA probability (suspend
    the candidate without sweeping its subtree); it is 0 for a
    distributional node, which is never an answer.  The path bound
    uses the coverage complement whatever the node type.
    """
    complement = coverage_complement(node_type, regions)
    covered = path_probability * complement
    path_bound = (1.0 - path_probability) + covered
    node_bound = covered if node_type is NodeType.ORDINARY else 0.0
    return path_bound, node_bound
