"""The scalable-and-sampling BDD (S²BDD).

This is the paper's central data structure (Section 4.3).  Unlike an
ordinary BDD, the S²BDD

* keeps only a single layer of nodes plus the two sinks (earlier layers are
  never needed again),
* classifies intermediate graphs as connected / disconnected as early as
  possible (Lemmas 4.1 and 4.2), accumulating the bound masses ``p_c`` and
  ``p_d`` on the sinks,
* caps the layer width at ``w``; when a layer would exceed the cap, the
  lowest-priority nodes (heuristic ``h(n)``, Eq. 10) are *deleted* and
  turned into **sampling strata**, and
* finally samples completions of the strata — i.e. possible worlds that are
  *not* already covered by the bounds — which is exactly the requirement of
  the stratified estimator.

The resulting estimate is ``R̂ = p_c + Σ_j p_j · R̂_j`` where ``j`` ranges
over strata and ``R̂_j`` estimates the conditional reliability of stratum
``j``.  When the width cap is never hit, there are no strata and the result
is the exact reliability (the paper's "our approach computes the exact
answer for small-scale graphs").

Construction (:meth:`S2BDD.construct`) assigns each distinct layer state a
dense integer id, keys the layer by one flat merge key per state, inlines
the transition over the precomputed per-layer index maps, and shares the
no-merge child between the two branches of a parent.  The merge key is a
``bytes`` string when every component label fits one byte and a ``tuple``
of ints on wider frontiers; both give the same merges.  The readable
dict-keyed loop this replaced lives on as a test reference
(``tests/reference/s2bdd_dict.py``), and the parity tests hold construction
to it bit for bit: same Kahan additions, same dedup accumulation, same
priority-sort trigger and stability.  It is the only frontier-diagram loop
in the library: the exact BDD baseline
(:class:`repro.baselines.exact_bdd.ExactBDD`) runs it with no deletions, no
priority sort and a node budget.

Construction also records a **replay** of the diagram — per layer, the
arc targets of every (parent, branch) pair — and keeps it whenever the
diagram is exact and probability-independent in structure (no deletions,
no priority sort, every edge probability strictly inside ``(0, 1)``).
:meth:`S2BDD.resweep` pushes new edge probabilities through that recording
without re-deriving any state, which is what lets probability-only graph
deltas reuse a cached diagram's structure.

The strata of one construction live in a :class:`StrataTable`: flat
``array`` columns (layer, probability, packed partition labels and
terminal counts with their row offsets) that construction appends to and
the sampler reads, so a width-capped diagram that deleted thousands of
nodes holds a handful of untracked buffers, not one object per stratum.
The table is a read-only sequence of :class:`Stratum` rows, built only
when a row is indexed or iterated.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress, repeat, starmap
from operator import index as as_index, lt
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.bounds import ReliabilityBounds
from repro.core.estimators import EstimatorKind
from repro.core.frontier import EdgeOrdering, FrontierPlan, build_frontier_plan
from repro.core.state import TransitionTable
from repro.core.stratified import reduced_sample_count
from repro.exceptions import BDDLimitExceededError, ConfigurationError
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.kahan import KahanSum
from repro.utils.rng import RandomLike, resolve_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["S2BDD", "S2BDDResult", "StrataTable", "Stratum"]

Vertex = Hashable

#: Unresolved probability mass below which the result is treated as exact.
_EXACT_MASS_TOLERANCE = 1e-12

#: Replay arc codes for non-live children (live arcs are state ids >= 0).
_ARC_CONNECTED = -1
_ARC_DISCONNECTED = -2
_ARC_PRUNED = -3

#: Sentinel outcome for transitions that reach the 1-sink.
_CONNECTED_OUTCOME = object()

#: Largest frontier whose merge keys can be ``bytes``: work arrays hold the
#: frontier plus at most two entering vertices, and ``bytes()`` needs every
#: component label to fit one byte.  Wider frontiers key by ``tuple``.
_MAX_BYTES_KEY_FRONTIER = 253


@dataclass(frozen=True)
class Stratum:
    """A deleted S²BDD node, i.e. one sampling subgroup.

    Constructions store strata as rows of a :class:`StrataTable`; a
    ``Stratum`` is the row built on demand when the table is indexed or
    iterated.

    Attributes
    ----------
    layer:
        Number of edges already decided; the state refers to the frontier
        after that many edges.
    partition / terminal_counts:
        The node's frontier state: the canonical component label of each
        frontier vertex, and the number of terminals each component has
        absorbed (see :mod:`repro.core.state`).
    probability:
        Probability mass of the intermediate graph (``p_n``).
    """

    layer: int
    partition: Tuple[int, ...]
    terminal_counts: Tuple[int, ...]
    probability: float


class StrataTable(Sequence[Stratum]):
    """The strata of one construction, one row per deleted node, in columns.

    ``layers`` and ``probabilities`` hold one value per row.  ``labels``
    and ``counts`` pack every row's partition labels and terminal counts
    back to back; row ``i`` spans ``labels[label_offsets[i]:label_offsets[i + 1]]``
    (likewise for counts).  The packed columns are one byte per value
    (``array('B')``) until a value needs more — a frontier wider than 256
    vertices, or more than 255 terminals — and are then widened to
    ``array('I')`` once.  None of the columns is a container the garbage
    collector tracks, however many strata a construction deletes.

    Rows are appended during construction and never change afterwards.
    As a sequence the table is read-only: indexing or iterating builds a
    :class:`Stratum` per row, and a slice returns a new table.
    """

    __slots__ = (
        "layers",
        "probabilities",
        "labels",
        "label_offsets",
        "counts",
        "count_offsets",
    )

    def __init__(self, strata: Iterable[Stratum] = ()) -> None:
        self.layers = array("I")
        self.probabilities = array("d")
        self.labels = array("B")
        self.label_offsets = array("I", [0])
        self.counts = array("B")
        self.count_offsets = array("I", [0])
        for stratum in strata:
            self.append(
                stratum.layer,
                stratum.partition,
                stratum.terminal_counts,
                stratum.probability,
            )

    def append(
        self,
        layer: int,
        partition: Sequence[int],
        terminal_counts: Sequence[int],
        probability: float,
    ) -> None:
        """Add one stratum as the last row."""
        self.layers.append(layer)
        self.probabilities.append(probability)
        self.labels = _extend_packed(self.labels, partition)
        self.label_offsets.append(len(self.labels))
        self.counts = _extend_packed(self.counts, terminal_counts)
        self.count_offsets.append(len(self.counts))

    def partition(self, row: int) -> array:
        """Row ``row``'s partition labels, as a fresh ``array``."""
        offsets = self.label_offsets
        return self.labels[offsets[row] : offsets[row + 1]]

    def terminal_counts(self, row: int) -> array:
        """Row ``row``'s per-component terminal counts, as a fresh ``array``."""
        offsets = self.count_offsets
        return self.counts[offsets[row] : offsets[row + 1]]

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return StrataTable(map(self._stratum, range(*item.indices(len(self)))))
        row = as_index(item)
        size = len(self.layers)
        if row < 0:
            row += size
        if not 0 <= row < size:
            raise IndexError("strata index out of range")
        return self._stratum(row)

    def __iter__(self) -> Iterator[Stratum]:
        return map(self._stratum, range(len(self.layers)))

    def _stratum(self, row: int) -> Stratum:
        return Stratum(
            self.layers[row],
            tuple(self.partition(row)),
            tuple(self.terminal_counts(row)),
            self.probabilities[row],
        )


def _extend_packed(column: array, values: Sequence[int]) -> array:
    """Append ``values`` to a packed column and return the column.

    A one-byte column that meets a value above 255 is replaced by an
    ``array('I')`` copy; ``array.extend`` keeps the values it appended
    before the overflow, so those are dropped before the copy.
    """
    size = len(column)
    try:
        column.extend(values)
    except OverflowError:
        del column[size:]
        column = array("I", column)
        column.extend(values)
    return column


@dataclass
class S2BDDResult:
    """Outcome of one S²BDD reliability estimation."""

    reliability: float
    bounds: ReliabilityBounds
    samples_requested: int
    samples_reduced: int
    samples_used: int
    num_strata: int
    exact: bool
    peak_width: int
    layers_processed: int
    deleted_probability_mass: float
    estimator: EstimatorKind

    @property
    def lower_bound(self) -> float:
        """Certified lower bound ``p_c``."""
        return self.bounds.lower

    @property
    def upper_bound(self) -> float:
        """Certified upper bound ``1 − p_d``."""
        return self.bounds.upper


class S2BDD:
    """Scalable-and-sampling BDD estimator for one graph and terminal set.

    Parameters
    ----------
    graph:
        The uncertain graph.
    terminals:
        The terminal vertices whose mutual connectivity is measured.
    max_width:
        Width cap ``w``: the maximum number of nodes kept per layer.
    edge_ordering:
        Strategy used to order edges for the frontier construction.
    stratum_mass_cutoff:
        Early-exit threshold in ``(0, 1]`` mirroring Algorithm 2's lines
        26–32: once the probability mass already delegated to sampling
        strata exceeds this fraction of the unresolved mass, further
        construction can barely tighten the bounds (most of the unresolved
        worlds will be sampled regardless), so the surviving layer is
        converted to strata and construction stops.  This keeps the
        approach competitive on dense graphs where the bounds do not
        tighten; set to 1.0 to disable.
    use_priority:
        Whether to order parent nodes by the heuristic ``h(n)`` before
        generating children, so that high-priority nodes survive the width
        cap (the paper's deleting procedure).  Disabling it keeps nodes in
        arrival order; used by the ablation benchmarks.
    rng:
        Seed / generator for the sampling procedure.

    Example
    -------
    >>> from repro.graph.generators import cycle_graph
    >>> bdd = S2BDD(cycle_graph(5, 0.9), terminals=[0, 2])
    >>> result = bdd.run(samples=1000)
    >>> result.exact  # a 5-cycle is far below any width cap
    True
    """

    def __init__(
        self,
        graph: UncertainGraph,
        terminals: Sequence[Vertex],
        *,
        max_width: int = 10_000,
        edge_ordering: EdgeOrdering = EdgeOrdering.BFS,
        stratum_mass_cutoff: float = 0.5,
        use_priority: bool = True,
        rng: RandomLike = None,
    ) -> None:
        check_positive_int(max_width, "max_width")
        if not 0.0 < stratum_mass_cutoff <= 1.0:
            raise ConfigurationError(
                f"stratum_mass_cutoff must lie in (0, 1], got {stratum_mass_cutoff}"
            )
        self._graph = graph
        self._terminals = graph.validate_terminals(terminals)
        self._k = len(self._terminals)
        self._max_width = max_width
        self._stratum_mass_cutoff = stratum_mass_cutoff
        self._use_priority = use_priority
        self._rng = resolve_rng(rng)
        self._plan: FrontierPlan = build_frontier_plan(
            graph,
            strategy=EdgeOrdering(edge_ordering),
            terminals=self._terminals,
            rng=self._rng,
        )
        self._transitions = TransitionTable(self._plan, self._terminals)
        # Flat-int tables for the stratum-completion sampler, built lazily
        # on the first sampling run (exact diagrams never need it).  They
        # are read-only, so two threads racing to build them both succeed.
        self._completions: Optional[_StratumCompletionKernel] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def plan(self) -> FrontierPlan:
        """The frontier plan (edge order and per-layer frontiers) in use."""
        return self._plan

    def run(
        self,
        samples: int,
        *,
        estimator: EstimatorKind = EstimatorKind.MONTE_CARLO,
        rng: RandomLike = None,
        construction: Optional["S2BDD._Construction"] = None,
    ) -> S2BDDResult:
        """Estimate the reliability with a budget of ``samples`` samples.

        The budget is first reduced to ``s'`` according to Theorem 1 / 2
        using the bounds found during construction; only ``s'`` completions
        are then sampled from the strata.

        ``construction`` lets callers reuse an already-built diagram (for
        example one answered from the constructed-diagram cache); ``rng``
        overrides the sampling stream per call so one cached diagram can
        serve many queries with independent seeds.  Both default to the
        historical behaviour (construct now, sample from the instance rng).
        """
        check_non_negative_int(samples, "samples")
        estimator = EstimatorKind.coerce(estimator)

        sampling_rng = self._rng if rng is None else resolve_rng(rng)
        if construction is None:
            construction = self.construct(samples)
        bounds = construction.bounds
        strata = construction.strata
        if not isinstance(strata, StrataTable):
            # A construction from the dict-keyed reference loop lists them.
            strata = StrataTable(strata)

        samples_reduced = reduced_sample_count(
            samples, bounds.connected_mass, bounds.disconnected_mass
        )

        unresolved = sum(strata.probabilities)
        if not strata or unresolved <= _EXACT_MASS_TOLERANCE:
            reliability = bounds.clamp(bounds.connected_mass)
            return S2BDDResult(
                reliability=reliability,
                bounds=bounds,
                samples_requested=samples,
                samples_reduced=samples_reduced,
                samples_used=0,
                num_strata=len(strata),
                exact=True,
                peak_width=construction.peak_width,
                layers_processed=construction.layers_processed,
                deleted_probability_mass=construction.deleted_mass,
                estimator=estimator,
            )

        samples_used = max(1, samples_reduced)
        reliability = self._sample_strata(
            strata, unresolved, bounds, samples_used, estimator, sampling_rng
        )
        return S2BDDResult(
            reliability=bounds.clamp(reliability),
            bounds=bounds,
            samples_requested=samples,
            samples_reduced=samples_reduced,
            samples_used=samples_used,
            num_strata=len(strata),
            exact=False,
            peak_width=construction.peak_width,
            layers_processed=construction.layers_processed,
            deleted_probability_mass=construction.deleted_mass,
            estimator=estimator,
        )

    def resweep(
        self,
        construction: "S2BDD._Construction",
        probabilities: Sequence[float],
    ) -> "S2BDD._Construction":
        """Re-evaluate a recorded diagram under new edge probabilities.

        ``probabilities`` lists the new existence probability of each plan
        edge (``self.plan.edges`` order) and must all lie strictly inside
        ``(0, 1)``.  The diagram *structure* — which child every (parent,
        branch) pair reaches — is probability-independent for a replayable
        construction, so the sweep only pushes masses along the recorded
        arcs, in exactly the float-operation order a fresh construction
        would use.  The result is therefore bit-identical to rebuilding
        from scratch, at a fraction of the cost.

        Raises :class:`ValueError` when the construction carries no replay
        recording (``replay_safe`` is ``False``).
        """
        replay = construction.replay
        if not construction.replay_safe or replay is None:
            raise ValueError(
                "construction is not replayable; rebuild the diagram instead"
            )
        if len(probabilities) < len(replay):
            raise ValueError(
                f"need {len(replay)} per-layer probabilities, "
                f"got {len(probabilities)}"
            )
        for probability in probabilities:
            if not 0.0 < probability < 1.0:
                raise ValueError(
                    f"re-sweep probabilities must lie strictly inside (0, 1), "
                    f"got {probability!r}; a boundary probability changes the "
                    f"diagram structure, so rebuild instead"
                )
        connected_mass = KahanSum()
        disconnected_mass = KahanSum()
        connected_add = connected_mass.add
        disconnected_add = disconnected_mass.add

        masses: List[float] = [1.0]
        for layer_index, (false_arcs, true_arcs, next_width) in enumerate(replay):
            probability_exist = probabilities[layer_index]
            probability_missing = 1.0 - probability_exist
            next_masses = [0.0] * next_width
            for sid, probability in enumerate(masses):
                arc = false_arcs[sid]
                child_probability = probability * probability_missing
                if arc >= 0:
                    next_masses[arc] += child_probability
                elif arc == _ARC_CONNECTED:
                    connected_add(child_probability)
                else:
                    disconnected_add(child_probability)
                arc = true_arcs[sid]
                child_probability = probability * probability_exist
                if arc >= 0:
                    next_masses[arc] += child_probability
                elif arc == _ARC_CONNECTED:
                    connected_add(child_probability)
                else:
                    disconnected_add(child_probability)
            masses = next_masses

        p_c = min(1.0, max(0.0, connected_mass.value))
        p_d = min(1.0, max(0.0, disconnected_mass.value))
        if p_c + p_d > 1.0:
            p_d = max(0.0, 1.0 - p_c)
        return S2BDD._Construction(
            bounds=ReliabilityBounds(p_c, p_d),
            strata=StrataTable(),
            peak_width=construction.peak_width,
            layers_processed=construction.layers_processed,
            deleted_mass=0.0,
            replay=replay,
            replay_safe=True,
            total_nodes=construction.total_nodes,
        )

    # ------------------------------------------------------------------
    # Construction (generating / merging / deleting procedures)
    # ------------------------------------------------------------------
    @dataclass
    class _Construction:
        bounds: ReliabilityBounds
        strata: StrataTable
        peak_width: int
        layers_processed: int
        deleted_mass: float
        # Per layer, the arc targets of every (parent, branch) pair plus the
        # next layer's live width; only kept when the structure is
        # probability-independent (exact, no priority sort, every edge
        # probability strictly inside (0, 1)).
        replay: Optional[List[Tuple[List[int], List[int], int]]] = None
        replay_safe: bool = False
        # Live nodes created: the root plus every processed layer's width.
        total_nodes: int = 0

    def construct(
        self, samples: int = 0, *, max_nodes: Optional[int] = None
    ) -> "S2BDD._Construction":
        """Build the diagram layer by layer and return the outcome.

        ``samples`` (the caller's budget ``s``) enables the early
        termination of Algorithm 2 (lines 26–32); pass 0 to disable it
        (bounds-only runs).  The returned object can be passed back to
        :meth:`run` any number of times, which is how one constructed
        diagram amortises over a whole query workload.

        ``max_nodes`` is the exact BDD baseline's node budget
        (:class:`repro.baselines.exact_bdd.ExactBDD`): construction counts
        the root plus each layer's live width and raises
        :class:`~repro.exceptions.BDDLimitExceededError` after the first
        layer whose running total exceeds the budget (the paper's DNF).
        The total only grows, so this per-layer check fails at the same
        layer as a check per created node.  ``None`` sets no budget.

        Layer states live in parallel lists indexed by a dense state id:
        ``parts[sid]`` / ``cnts[sid]`` are the partition and component
        counts as plain int lists, ``masses[sid]`` the accumulated
        probability, ``keys[sid]`` the flat merge key (partition labels
        followed by the per-component terminal flags; both ranges have a
        layer-fixed length, so no separator is needed).  The key is
        ``bytes`` when the plan's widest frontier lets every label fit one
        byte, and a ``tuple`` otherwise.  The transition is inlined over
        the precomputed per-layer index maps.  Two fused per-layer closures
        produce children in a single pass: ``finish`` for the no-merge
        child — shared between the False branch and a True branch that
        joins nothing, computed lazily once per parent — and
        ``finish_merge``, which reads the merge through a label
        indirection instead of materialising the rewritten partition and
        counts first.

        The result is bit-identical to the dict-keyed reference loop the
        tests keep, because every float operation happens in the same
        order: parents are visited in state-id (= dict insertion) order,
        the priority sort fires on the same trigger and is equally stable,
        each parent still emits the False branch before the True branch,
        duplicate children accumulate via the same ``+=`` sequence, and the
        Kahan sums see the same adds.
        """
        check_non_negative_int(samples, "samples")
        plan = self._plan
        transitions = self._transitions
        k = self._k
        max_width = self._max_width
        cutoff = self._stratum_mass_cutoff
        use_priority = self._use_priority
        make_key = (
            bytes if plan.max_frontier_size() <= _MAX_BYTES_KEY_FRONTIER else tuple
        )

        if k <= 1:
            return S2BDD._Construction(
                ReliabilityBounds(1.0, 0.0), StrataTable(), 0, 0, 0.0
            )
        if plan.num_edges == 0:
            # Two or more terminals but no edges: never connected.
            return S2BDD._Construction(
                ReliabilityBounds(0.0, 1.0), StrataTable(), 0, 0, 0.0
            )

        connected_mass = KahanSum()
        disconnected_mass = KahanSum()
        deleted_mass = KahanSum()
        connected_add = connected_mass.add
        disconnected_add = disconnected_mass.add
        deleted_add = deleted_mass.add
        strata = StrataTable()
        add_stratum = strata.append

        # Layer 0: the single root state (empty frontier, no components).
        parts: List[List[int]] = [[]]
        cnts: List[List[int]] = [[]]
        masses: List[float] = [1.0]
        keys: List[Hashable] = [make_key([])]
        peak_width = 1
        total_nodes = 1
        layers_processed = 0

        replay: List[Tuple[List[int], List[int], int]] = []
        replay_ok = True

        for layer_index in range(plan.num_edges):
            width = len(masses)
            if width == 0:
                break
            layers_processed = layer_index + 1
            edge = plan.edges[layer_index]
            probability_exist = edge.probability
            probability_missing = 1.0 - probability_exist
            next_layer = layer_index + 1

            context = transitions.layer(layer_index)
            u_position = context.u_position
            v_position = context.v_position
            merge_allowed = not context.is_loop
            entering_terminal = context.entering_terminal
            num_entering = len(entering_terminal)
            entering_counts = list(entering_terminal)
            after_positions = context.after_positions
            leaving_positions = context.leaving_positions
            identity = context.identity

            def finish(
                labels: List[int],
                lcounts: List[int],
                _after: Tuple[int, ...] = after_positions,
                _leaving: Tuple[int, ...] = leaving_positions,
                _key=make_key,
            ) -> Optional[Tuple[Hashable, List[int], List[int]]]:
                # 0-sink: only a component containing a retiring endpoint of
                # the processed edge can lose its last frontier vertex here.
                for position in _leaving:
                    label = labels[position]
                    if lcounts[label] <= 0:
                        continue
                    for after_position in _after:
                        if labels[after_position] == label:
                            break
                    else:
                        return None
                # Canonicalise over the next frontier.
                relabel = [-1] * len(lcounts)
                child_partition: List[int] = []
                child_counts: List[int] = []
                child_flags: List[int] = []
                next_label = 0
                for position in _after:
                    label = labels[position]
                    canonical = relabel[label]
                    if canonical < 0:
                        canonical = next_label
                        relabel[label] = canonical
                        next_label += 1
                        count = lcounts[label]
                        child_counts.append(count)
                        child_flags.append(1 if count else 0)
                    child_partition.append(canonical)
                return (
                    _key(child_partition + child_flags),
                    child_partition,
                    child_counts,
                )

            def finish_merge(
                labels: List[int],
                lcounts: List[int],
                label_u: int,
                label_v: int,
                merged: int,
                _after: Tuple[int, ...] = after_positions,
                _leaving: Tuple[int, ...] = leaving_positions,
                _key=make_key,
            ) -> Optional[Tuple[Hashable, List[int], List[int]]]:
                # Same as ``finish`` over the state with label_v rewritten to
                # label_u and the merged component count, but reading through
                # the indirection instead of copying the arrays first.
                for position in _leaving:
                    label = labels[position]
                    if label == label_v:
                        label = label_u
                    count = merged if label == label_u else lcounts[label]
                    if count <= 0:
                        continue
                    for after_position in _after:
                        after_label = labels[after_position]
                        if after_label == label_v:
                            after_label = label_u
                        if after_label == label:
                            break
                    else:
                        return None
                relabel = [-1] * len(lcounts)
                child_partition: List[int] = []
                child_counts: List[int] = []
                child_flags: List[int] = []
                next_label = 0
                for position in _after:
                    label = labels[position]
                    if label == label_v:
                        label = label_u
                    canonical = relabel[label]
                    if canonical < 0:
                        canonical = next_label
                        relabel[label] = canonical
                        next_label += 1
                        count = merged if label == label_u else lcounts[label]
                        child_counts.append(count)
                        child_flags.append(1 if count else 0)
                    child_partition.append(canonical)
                return (
                    _key(child_partition + child_flags),
                    child_partition,
                    child_counts,
                )

            order: Sequence[int] = range(width)
            # Deletion can only happen if this layer is able to overflow the
            # width cap; only then is the (comparatively expensive) priority
            # ordering of the parents worthwhile.
            if use_priority and 2 * width > max_width:
                priority = transitions.priority
                order = sorted(
                    range(width),
                    key=lambda sid: priority(
                        layer_index, parts[sid], cnts[sid], masses[sid]
                    ),
                    reverse=True,
                )
                replay_ok = False

            next_index: Dict[Hashable, int] = {}
            next_parts: List[List[int]] = []
            next_cnts: List[List[int]] = []
            next_masses: List[float] = []
            next_keys: List[Hashable] = []
            next_width = 0
            false_arcs: List[int] = []
            true_arcs: List[int] = []

            for sid in order:
                partition = parts[sid]
                counts = cnts[sid]
                probability = masses[sid]

                # Work state: frontier-before labels plus entering singletons.
                if num_entering == 0:
                    ext_partition = partition
                    ext_counts = counts
                else:
                    base = len(counts)
                    if num_entering == 1:
                        ext_partition = partition + [base]
                    else:
                        ext_partition = partition + [base, base + 1]
                    ext_counts = counts + entering_counts

                # The no-merge child is shared by the False branch and a
                # True branch that joins nothing; compute it lazily, once.
                shared_ready = False
                shared: object = None

                # --- False branch (edge absent) -----------------------
                if probability_missing > 0.0:
                    if identity:
                        shared = (keys[sid], partition, counts)
                    else:
                        shared = finish(ext_partition, ext_counts)
                    shared_ready = True
                    outcome = shared
                    child_probability = probability * probability_missing
                    if type(outcome) is tuple:
                        child_key = outcome[0]
                        child_id = next_index.get(child_key)
                        if child_id is not None:
                            next_masses[child_id] += child_probability
                            false_arcs.append(child_id)
                        elif next_width < max_width:
                            next_index[child_key] = next_width
                            next_parts.append(outcome[1])
                            next_cnts.append(outcome[2])
                            next_masses.append(child_probability)
                            next_keys.append(child_key)
                            false_arcs.append(next_width)
                            next_width += 1
                        else:
                            add_stratum(
                                next_layer, outcome[1], outcome[2], child_probability
                            )
                            deleted_add(child_probability)
                            replay_ok = False
                            false_arcs.append(_ARC_PRUNED)
                    elif outcome is None:
                        disconnected_add(child_probability)
                        false_arcs.append(_ARC_DISCONNECTED)
                    else:
                        connected_add(child_probability)
                        false_arcs.append(_ARC_CONNECTED)
                else:
                    replay_ok = False
                    false_arcs.append(_ARC_PRUNED)

                # --- True branch (edge present) -----------------------
                if probability_exist > 0.0:
                    child_probability = probability * probability_exist
                    if merge_allowed:
                        label_u = ext_partition[u_position]
                        label_v = ext_partition[v_position]
                    else:
                        label_u = label_v = 0
                    if label_u != label_v:
                        merged = ext_counts[label_u] + ext_counts[label_v]
                        if merged >= k:
                            # 1-sink: the merged component holds every
                            # terminal (the only count that changed).
                            outcome = _CONNECTED_OUTCOME
                        else:
                            outcome = finish_merge(
                                ext_partition,
                                ext_counts,
                                label_u,
                                label_v,
                                merged,
                            )
                    else:
                        if not shared_ready:
                            if identity:
                                shared = (keys[sid], partition, counts)
                            else:
                                shared = finish(ext_partition, ext_counts)
                            shared_ready = True
                        outcome = shared
                    if type(outcome) is tuple:
                        child_key = outcome[0]
                        child_id = next_index.get(child_key)
                        if child_id is not None:
                            next_masses[child_id] += child_probability
                            true_arcs.append(child_id)
                        elif next_width < max_width:
                            next_index[child_key] = next_width
                            next_parts.append(outcome[1])
                            next_cnts.append(outcome[2])
                            next_masses.append(child_probability)
                            next_keys.append(child_key)
                            true_arcs.append(next_width)
                            next_width += 1
                        else:
                            add_stratum(
                                next_layer, outcome[1], outcome[2], child_probability
                            )
                            deleted_add(child_probability)
                            replay_ok = False
                            true_arcs.append(_ARC_PRUNED)
                    elif outcome is None:
                        disconnected_add(child_probability)
                        true_arcs.append(_ARC_DISCONNECTED)
                    else:
                        connected_add(child_probability)
                        true_arcs.append(_ARC_CONNECTED)
                else:
                    replay_ok = False
                    true_arcs.append(_ARC_PRUNED)

            parts = next_parts
            cnts = next_cnts
            masses = next_masses
            keys = next_keys
            if next_width > peak_width:
                peak_width = next_width
            total_nodes += next_width
            if max_nodes is not None and total_nodes > max_nodes:
                raise BDDLimitExceededError(
                    f"exact BDD exceeded the node budget of {max_nodes} nodes "
                    f"at layer {next_layer} of {plan.num_edges} (paper outcome: DNF)"
                )
            replay.append((false_arcs, true_arcs, next_width))

            # Early termination (Algorithm 2, lines 26–32).  Two triggers:
            #
            # 1. the unresolved mass is so small that the stratified budget
            #    would not allocate a single sample to it — finishing the
            #    construction cannot change the estimate; or
            # 2. most of the unresolved mass has already been delegated to
            #    strata (dense graphs whose layer width blows past ``w``
            #    immediately): the bounds can improve by at most the mass
            #    still held by the surviving layer, so further layers cost
            #    construction time without reducing the sampling work.
            #
            # Both triggers require that at least one node has already been
            # deleted: as long as nothing was deleted the diagram is still
            # exact, and finishing it yields the exact reliability (the
            # paper's behaviour on small graphs).  So neither fires on a
            # replayable construction.
            if samples > 0 and next_width and strata:
                unresolved = 1.0 - connected_mass.value - disconnected_mass.value
                if unresolved * samples < 1.0:
                    break
                if cutoff < 1.0 and deleted_mass.value > cutoff * unresolved:
                    break

        # Nodes still alive after the loop (early termination, or the
        # defensive case of surviving the final layer) become strata so
        # their probability mass is still covered by sampling.
        for sid in range(len(masses)):
            probability = masses[sid]
            add_stratum(layers_processed, parts[sid], cnts[sid], probability)
            deleted_add(probability)

        p_c = min(1.0, max(0.0, connected_mass.value))
        p_d = min(1.0, max(0.0, disconnected_mass.value))
        if p_c + p_d > 1.0:
            # Numerical guard: renormalise the tiny overshoot.
            p_d = max(0.0, 1.0 - p_c)
        bounds = ReliabilityBounds(p_c, p_d)
        replay_safe = replay_ok and not strata
        return S2BDD._Construction(
            bounds=bounds,
            strata=strata,
            peak_width=peak_width,
            layers_processed=layers_processed,
            deleted_mass=deleted_mass.value,
            replay=replay if replay_safe else None,
            replay_safe=replay_safe,
            total_nodes=total_nodes,
        )

    # ------------------------------------------------------------------
    # Sampling procedure
    # ------------------------------------------------------------------
    def _sample_strata(
        self,
        strata: StrataTable,
        unresolved_mass: float,
        bounds: ReliabilityBounds,
        samples: int,
        estimator: EstimatorKind,
        rng,
    ) -> float:
        """Estimate the unresolved contribution by sampling completions.

        Strata are sampled proportionally to their probability mass
        (self-weighted stratified sampling): a draw first picks a stratum
        with probability ``p_j / p_u`` and then completes its intermediate
        graph edge by edge.  The Monte Carlo aggregate is then
        ``p_c + p_u · mean(indicator)``; the Horvitz–Thompson aggregate
        weights distinct completions by their inclusion probability within
        the unresolved population.
        """
        probabilities = strata.probabilities
        cumulative: List[float] = []
        running = 0.0
        for probability in probabilities:
            running += probability
            cumulative.append(running)
        total = cumulative[-1]

        positives = 0
        ht_contributions: Dict[Tuple, Tuple[float, bool]] = {}
        want_ht = estimator is EstimatorKind.HORVITZ_THOMPSON
        sample = self._completion_kernel().sample
        layers = strata.layers

        for _ in range(samples):
            pick = rng.random() * total
            index = _bisect(cumulative, pick)
            connected, log_conditional, chosen = sample(
                layers[index],
                strata.partition(index),
                strata.terminal_counts(index),
                rng,
                track_world=want_ht,
            )
            if connected:
                positives += 1
            if want_ht:
                key = (index, chosen)
                if key not in ht_contributions:
                    log_world = _safe_log(probabilities[index]) + log_conditional
                    ht_contributions[key] = (log_world, connected)

        if not want_ht:
            mean = positives / samples
            return bounds.connected_mass + unresolved_mass * mean

        # Horvitz–Thompson over the unresolved population: each distinct
        # world G was drawn with per-trial probability q = Pr[G] / p_u.
        estimate = 0.0
        log_unresolved = _safe_log(unresolved_mass)
        # Insertion order = sampling order of the seeded stream, identical
        # on every run; sorting here would *change* the historical float
        # summation order and break the pinned checksums.
        for log_world, connected in ht_contributions.values():  # reprolint: ok(ORD001)
            if not connected:
                continue
            log_q = log_world - log_unresolved
            ratio = _weight_over_inclusion(log_q, samples)
            # Contribution of world G is Pr[G] / π = p_u · q / π.
            estimate += unresolved_mass * ratio
        return bounds.connected_mass + min(unresolved_mass, max(0.0, estimate))

    def _sample_completion(
        self, stratum: Stratum, rng, *, track_world: bool = False
    ) -> Tuple[bool, float, Optional[frozenset]]:
        """Complete one possible world under ``stratum``.

        Returns ``(connected, log_conditional_probability, chosen_edges)``
        where ``chosen_edges`` is a frozenset of the remaining-edge ids that
        were sampled as existing (``None`` unless ``track_world`` is set;
        it is only needed by the Horvitz–Thompson estimator).

        Delegates to the flat-int completion kernel, which copies a flat
        parent list per sample instead of building a dict-backed
        union-find, while the uniform stream (one draw per remaining edge,
        in plan order) and therefore every result stay bit-identical.
        """
        return self._completion_kernel().sample(
            stratum.layer,
            stratum.partition,
            stratum.terminal_counts,
            rng,
            track_world=track_world,
        )

    def _completion_kernel(self) -> "_StratumCompletionKernel":
        kernel = self._completions
        if kernel is None:
            kernel = self._completions = _StratumCompletionKernel(
                self._graph, self._plan, self._terminals
            )
        return kernel


class _StratumCompletionKernel:
    """Per-diagram read-only tables for sampling stratum completions.

    Interns the graph's vertices to ``0..n-1`` once and mirrors the plan's
    edges into parallel lists of endpoint pairs, probabilities and ids.
    Each sample copies a template parent list — the ``n`` vertices, then
    one anchor slot ``n + label`` per frontier component, standing in for
    the ``("component", label)`` nodes of the dict-based sampler — so
    samples share no mutable state, and concurrent queries on one cached
    diagram cannot disturb each other.
    """

    __slots__ = (
        "_template",
        "_anchor_base",
        "_pairs",
        "_probabilities",
        "_edge_ids",
        "_plan",
        "_terminals",
        "_vertex_index",
        "_frontier_cache",
        "_unseen_cache",
    )

    def __init__(self, graph: UncertainGraph, plan: FrontierPlan, terminals) -> None:
        index = self._vertex_index = {
            vertex: position for position, vertex in enumerate(graph.vertices())
        }
        self._anchor_base = len(index)
        self._template = list(range(len(index) + plan.max_frontier_size()))
        self._pairs = [(index[edge.u], index[edge.v]) for edge in plan.edges]
        self._probabilities = [edge.probability for edge in plan.edges]
        self._edge_ids = [edge.id for edge in plan.edges]
        self._plan = plan
        self._terminals = terminals
        # layer -> interned frontier / still-unseen terminal indices.  Every
        # writer stores the same immutable value, so concurrent fills agree.
        self._frontier_cache: Dict[int, Tuple[int, ...]] = {}
        self._unseen_cache: Dict[int, Tuple[int, ...]] = {}

    def _frontier_indices(self, layer: int) -> Tuple[int, ...]:
        cached = self._frontier_cache.get(layer)
        if cached is None:
            index = self._vertex_index
            cached = tuple(index[vertex] for vertex in self._plan.frontier(layer))
            self._frontier_cache[layer] = cached
        return cached

    def _unseen_terminal_indices(self, layer: int) -> Tuple[int, ...]:
        """Terminals whose edges are all still undecided (singletons)."""
        cached = self._unseen_cache.get(layer)
        if cached is None:
            plan = self._plan
            index = self._vertex_index
            cached = tuple(
                index[terminal]
                for terminal in self._terminals
                if plan.first_occurrence.get(terminal, plan.num_edges) >= layer
            )
            self._unseen_cache[layer] = cached
        return cached

    def sample(
        self,
        layer: int,
        partition: Sequence[int],
        terminal_counts: Sequence[int],
        rng,
        *,
        track_world: bool = False,
    ) -> Tuple[bool, float, Optional[frozenset]]:
        """Draw one completion of the stratum at ``layer`` with frontier
        state ``partition`` / ``terminal_counts``; see
        ``S2BDD._sample_completion``."""
        base = self._anchor_base
        parent = self._template.copy()
        # Seed with the frontier partition: each frontier vertex points at
        # its component's anchor slot.
        for vertex, label in zip(self._frontier_indices(layer), partition):
            parent[vertex] = base + label

        # One uniform per remaining edge, in plan order.  The draws are lazy:
        # every consumer below runs them to the end, so the stream always
        # advances by exactly that many values.
        draws = starmap(rng.random, repeat((), len(self._pairs) - layer))
        probabilities = self._probabilities[layer:]
        log_conditional = 0.0
        chosen: Optional[frozenset] = None
        if track_world:
            flags = list(map(lt, draws, probabilities))
            edge_ids: List[int] = []
            for present, probability, edge_id in zip(
                flags, probabilities, self._edge_ids[layer:]
            ):
                if present:
                    log_conditional += _safe_log(probability)
                    edge_ids.append(edge_id)
                else:
                    log_conditional += _safe_log(1.0 - probability)
            chosen = frozenset(edge_ids)
            present_pairs = compress(self._pairs[layer:], flags)
        else:
            present_pairs = compress(self._pairs[layer:], map(lt, draws, probabilities))

        # Union the present edges with inline path-halving finds.
        for u, v in present_pairs:
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[u] = v

        # Connected iff every terminal-bearing component and every unseen
        # terminal share one root.
        anchors = [
            base + label
            for label, count in enumerate(terminal_counts)
            if count > 0
        ]
        roots = set()
        for element in chain(anchors, self._unseen_terminal_indices(layer)):
            while parent[element] != element:
                element = parent[element]
            roots.add(element)
        return len(roots) <= 1, log_conditional, chosen


def _bisect(cumulative: Sequence[float], value: float) -> int:
    """Return the first index whose cumulative weight exceeds ``value``."""
    low, high = 0, len(cumulative) - 1
    while low < high:
        middle = (low + high) // 2
        if cumulative[middle] <= value:
            low = middle + 1
        else:
            high = middle
    return low


def _safe_log(value: float) -> float:
    """``log`` that maps non-positive values to ``-inf`` instead of raising."""
    if value <= 0.0:
        return float("-inf")
    return math.log(value)


def _weight_over_inclusion(log_q: float, samples: int) -> float:
    """Return ``q / π`` for ``π = 1 − (1 − q)^samples``, stably.

    For very small per-trial probabilities ``q`` the inclusion probability
    is approximately ``samples · q`` and the ratio tends to ``1 / samples``;
    computing it through logs avoids underflow for worlds whose probability
    is far below the smallest positive float.
    """
    if log_q == float("-inf"):
        return 0.0
    if log_q >= 0.0:
        return 1.0
    q = math.exp(log_q)
    if q < 1e-12:
        # π ≈ samples·q − C(samples,2)q² ⇒ q/π ≈ 1/samples · 1/(1 − (samples−1)q/2)
        return 1.0 / (samples * (1.0 - (samples - 1) * q / 2.0))
    pi = -math.expm1(samples * math.log1p(-q))
    if pi <= 0.0:
        return 0.0
    return q / pi
