"""``olddefconfig``-style configuration resolution.

Given an option tree and a *requested* set of values (a config fragment), the
resolver computes a complete, dependency-consistent configuration, applying
the same rules the kernel's ``scripts/kconfig/conf`` applies:

1. options whose ``depends on`` evaluates to ``n`` are demoted to ``n``;
2. ``select`` forces its target to at least the selecting option's value,
   even against the target's own dependencies (recorded as a violation,
   exactly as kconfig warns);
3. unrequested visible options take their ``default`` (or ``n``);
4. tristate values are clamped to bool for bool options.

Resolution iterates to a fixpoint; Kconfig guarantees termination because
values only move monotonically once requests are pinned, and we additionally
cap the iteration count defensively.

Two engines implement the fixpoint:

``strategy="worklist"`` (the default)
    An incremental engine over the per-tree
    :class:`~repro.kconfig.index.ResolutionIndex`.  After the seed pass it
    only revisits options whose *inputs* changed — per-phase dirty sets
    driven by the reverse dependency indices — and evaluates compiled
    expression programs instead of re-walking ASTs.  It supports
    **warm-start derivation** (:meth:`Resolver.resolve_from`): seeding from
    an already-resolved base configuration and dirtying only the cone
    reachable from the request delta, which is how the per-application
    variants derive from the shared ``lupine-base`` fixpoint.  Worklist
    results are memoized process-wide in
    :data:`~repro.kconfig.rescache.RESOLUTION_CACHE`.

``strategy="sweep"``
    The original four full-tree passes per iteration, evaluating option
    ASTs directly.  It shares no acceleration structures with the worklist
    engine, which makes it the independent oracle for differential testing
    (``tests/kconfig/test_resolver_differential.py``); it never consults
    the resolution cache.

Both engines emit the same observable result and publish
``kconfig.resolve.visited_options`` (phase-loop bodies executed) and
``kconfig.expr.evals`` (top-level dependency/default evaluations), which is
what the ``bench-resolve`` benchmark and the ``regress`` gate compare.

**Worklist scheduling & sweep parity.**  A sweep pass walks positions in
tree order and *sees its own earlier mutations*: a change made while
processing position 5 is visible when the same pass reaches position 9,
but a change affecting position 3 waits for the next iteration.  The
worklist engine reproduces that trajectory exactly — each pass drains its
dirty set in ascending position order; a position dirtied mid-pass is
processed in the *same* pass if it lies ahead of the cursor and deferred
to the next iteration otherwise.  The select-forced set is likewise
snapshotted at iteration start (as ``_forced_targets`` does in the sweep)
by buffering enable/disable transitions and applying them as counted
deltas between iterations.  This makes the two engines agree not only on
the fixpoint but on the demotion *reasons*, which record which rule fired
last.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.kconfig.expr import Tristate
from repro.kconfig.index import ResolutionIndex
from repro.kconfig.model import (
    ConfigOption,
    KconfigTree,
    OptionType,
    UnknownOptionError,
)
from repro.kconfig.rescache import RESOLUTION_CACHE

_MAX_ITERATIONS = 64

#: Fixed buckets for the per-resolution iteration-count histogram.
_ITERATION_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

_STRATEGIES = ("worklist", "sweep")


class ResolutionError(RuntimeError):
    """Raised when resolution cannot reach a fixpoint (should not happen)."""


@dataclass(frozen=True)
class ResolvedConfig:
    """An immutable, fully resolved kernel configuration.

    ``values`` holds every symbolic option's tristate; ``enabled`` is the
    frozen set of option names with value > ``n`` (the paper's "selected
    options" unit of account).

    ``values`` is read-only (a ``MappingProxyType`` over a private copy),
    so ``enabled``, ``builtin`` and ``modules`` are computed once per
    instance and stored.  They stay plain properties: the stored value
    lives in a private attribute set through ``object.__setattr__``.
    """

    tree: KconfigTree
    values: Mapping[str, Tristate]
    requested: Mapping[str, Tristate]
    demoted: Mapping[str, str]
    select_violations: Tuple[Tuple[str, str], ...]
    name: str = ""
    #: Options whose value changed at least once after request seeding
    #: (demotions, select forcing, fired defaults, choice arbitration).
    #: Warm-start uses this to spot inputs whose *intermediate* values a
    #: replay would otherwise miss; empty on hand-built configs.
    churned: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        # Copy, then seal: a caller's dict must not be able to change the
        # stored sets below.  A proxy is taken as already sealed, which is
        # how with_name and _rebind share one config's values.
        if not isinstance(self.values, MappingProxyType):
            object.__setattr__(
                self, "values", MappingProxyType(dict(self.values))
            )
        object.__setattr__(self, "_enabled", None)
        object.__setattr__(self, "_builtin", None)
        object.__setattr__(self, "_modules", None)

    @property
    def enabled(self) -> FrozenSet[str]:
        enabled = self._enabled
        if enabled is None:
            enabled = frozenset(
                name for name, value in self.values.items()
                if value is not Tristate.NO
            )
            object.__setattr__(self, "_enabled", enabled)
        return enabled

    @property
    def builtin(self) -> FrozenSet[str]:
        builtin = self._builtin
        if builtin is None:
            builtin = frozenset(
                name for name, value in self.values.items()
                if value is Tristate.YES
            )
            object.__setattr__(self, "_builtin", builtin)
        return builtin

    @property
    def modules(self) -> FrozenSet[str]:
        modules = self._modules
        if modules is None:
            modules = frozenset(
                name for name, value in self.values.items()
                if value is Tristate.MODULE
            )
            object.__setattr__(self, "_modules", modules)
        return modules

    def __contains__(self, name: str) -> bool:
        return self.values.get(name, Tristate.NO) is not Tristate.NO

    def value(self, name: str) -> Tristate:
        return self.values.get(name, Tristate.NO)

    def __len__(self) -> int:
        return len(self.enabled)

    def options(self) -> List[ConfigOption]:
        """The enabled options, in tree order."""
        return [self.tree[name] for name in self.tree.names() if name in self]

    def with_name(self, name: str) -> "ResolvedConfig":
        return ResolvedConfig(
            tree=self.tree,
            values=self.values,
            requested=self.requested,
            demoted=self.demoted,
            select_violations=self.select_violations,
            name=name,
            churned=self.churned,
        )

    def diff(self, other: "ResolvedConfig") -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """Return ``(only_in_self, only_in_other)`` enabled-option sets."""
        return self.enabled - other.enabled, other.enabled - self.enabled


class _SweepEngine:
    """The original full-tree fixpoint: four sweeps per iteration.

    Kept verbatim (modulo instrumentation) as the differential-testing
    oracle; it deliberately evaluates option ASTs and walks the tree
    rather than using the resolution index, so an index bug cannot hide
    from the differential test.
    """

    def __init__(self, tree: KconfigTree, pinned: Mapping[str, Tristate]):
        self.tree = tree
        self.pinned = pinned
        self.values: Dict[str, Tristate] = {
            option.name: Tristate.NO
            for option in tree
            if option.option_type.is_symbolic
        }
        self.values.update(pinned)
        self.demoted: Dict[str, str] = {}
        self.violations: Set[Tuple[str, str]] = set()
        self.churned: Set[str] = set()
        self.visited = 0
        self.evals = 0

    def run(self) -> int:
        values, pinned = self.values, self.pinned
        demoted, violations = self.demoted, self.violations
        iterations = 0
        for _ in range(_MAX_ITERATIONS):
            iterations += 1
            changed = False
            # select overrides depends-on in kconfig, so compute the set
            # of select-forced targets first and exempt them from
            # demotion.
            forced = self._forced_targets(values)
            changed |= self._apply_dependencies(values, demoted, forced)
            changed |= self._apply_selects(values, demoted, violations)
            changed |= self._apply_defaults(values, pinned)
            changed |= self._apply_choices(values, pinned, demoted)
            if not changed:
                break
        else:
            raise ResolutionError("configuration did not converge")

        # Re-check select-forced options against their dependencies one last
        # time so violations caused by late demotions are recorded.
        for source_name, target_name in self._select_edges(values):
            target = self.tree[target_name]
            self.evals += 1
            if target.depends_on.evaluate(values) is Tristate.NO:
                violations.add((source_name, target_name))

        # A demotion record can go stale: selects pop their target's entry
        # when re-forcing it, but an option re-enabled by its *default*
        # (after the blocking dependency itself got enabled) kept its old
        # record.  Resolution rules only ever record reasons for options
        # that end up off, so drop records for enabled options.
        self.demoted = {
            name: reason
            for name, reason in demoted.items()
            if values[name] is Tristate.NO
        }
        return iterations

    def _forced_targets(self, values: Dict[str, Tristate]) -> Set[str]:
        """Names currently forced on by an enabled option's select."""
        return {target for _, target in self._select_edges(values)}

    def _select_edges(
        self, values: Dict[str, Tristate]
    ) -> Iterator[Tuple[str, str]]:
        """(source, target) select edges whose source is enabled."""
        for option in self.tree:
            if values.get(option.name, Tristate.NO) is Tristate.NO:
                continue
            for target_name in option.selects:
                target = self.tree.get(target_name)
                if target is not None and target.option_type.is_symbolic:
                    yield option.name, target_name

    def _apply_dependencies(
        self,
        values: Dict[str, Tristate],
        demoted: Dict[str, str],
        forced: Set[str],
    ) -> bool:
        changed = False
        for option in self.tree:
            if not option.option_type.is_symbolic:
                continue
            self.visited += 1
            current = values[option.name]
            if current is Tristate.NO:
                continue
            if option.name in forced:
                continue
            self.evals += 1
            visible = option.depends_on.evaluate(values)
            if visible is Tristate.NO:
                values[option.name] = Tristate.NO
                demoted[option.name] = str(option.depends_on)
                self.churned.add(option.name)
                changed = True
            elif visible is Tristate.MODULE and current is Tristate.YES:
                if option.option_type is OptionType.TRISTATE:
                    values[option.name] = Tristate.MODULE
                    self.churned.add(option.name)
                    changed = True
        return changed

    def _apply_selects(
        self,
        values: Dict[str, Tristate],
        demoted: Dict[str, str],
        select_violations: Set[Tuple[str, str]],
    ) -> bool:
        changed = False
        for option in self.tree:
            if not option.option_type.is_symbolic:
                continue
            self.visited += 1
            source_value = values.get(option.name, Tristate.NO)
            if source_value is Tristate.NO:
                continue
            for target_name in option.selects:
                target = self.tree.get(target_name)
                if target is None or not target.option_type.is_symbolic:
                    continue
                forced = source_value
                if target.option_type is OptionType.BOOL:
                    forced = Tristate.YES
                if values[target_name] < forced:
                    values[target_name] = forced
                    demoted.pop(target_name, None)
                    self.churned.add(target_name)
                    changed = True
                    self.evals += 1
                    if target.depends_on.evaluate(values) is Tristate.NO:
                        select_violations.add((option.name, target_name))
        return changed

    def _apply_defaults(
        self,
        values: Dict[str, Tristate],
        pinned: Mapping[str, Tristate],
    ) -> bool:
        changed = False
        for option in self.tree:
            if not option.option_type.is_symbolic or option.default is None:
                continue
            self.visited += 1
            if option.name in pinned or values[option.name] is not Tristate.NO:
                continue
            self.evals += 1
            if option.depends_on.evaluate(values) is Tristate.NO:
                continue
            self.evals += 1
            value = option.default.evaluate(values)
            if option.option_type is OptionType.BOOL and value is Tristate.MODULE:
                value = Tristate.YES
            if value is not Tristate.NO:
                values[option.name] = value
                self.churned.add(option.name)
                changed = True
        return changed

    def _apply_choices(
        self,
        values: Dict[str, Tristate],
        pinned: Mapping[str, Tristate],
        demoted: Dict[str, str],
    ) -> bool:
        """Enforce choice-group exclusivity and defaults.

        Among enabled members the winner is the first *requested* one —
        request mappings preserve insertion order, so ties between
        several requested members go to whichever the caller asked for
        first — else the first enabled member in declaration order;
        everyone else is demoted.  An all-off choice takes its default
        member.
        """
        changed = False
        for choice in self.tree.choices():
            self.visited += 1
            enabled_members = [
                m for m in choice.members
                if values.get(m, Tristate.NO) is not Tristate.NO
            ]
            if not enabled_members:
                default = choice.default_member
                if default is not None and default not in pinned:
                    option = self.tree[default]
                    self.evals += 1
                    if option.depends_on.evaluate(values) is not Tristate.NO:
                        values[default] = Tristate.YES
                        self.churned.add(default)
                        changed = True
                continue
            requested_members = [
                m for m in pinned
                if m in choice.members
                and pinned[m] is not Tristate.NO
                and values.get(m, Tristate.NO) is not Tristate.NO
            ]
            winner = (requested_members or enabled_members)[0]
            for member in enabled_members:
                if member != winner:
                    values[member] = Tristate.NO
                    demoted[member] = f"choice {choice.name}: {winner} wins"
                    self.churned.add(member)
                    changed = True
        return changed


class _Worklist:
    """One phase's dirty set with sweep-order draining.

    ``pending`` holds positions to process the next time the phase runs.
    While a pass is draining, a touch *ahead* of the cursor joins the
    current pass (the sweep would see the mutation later in the same
    walk); a touch at or behind the cursor is deferred to the next
    iteration (the sweep would not revisit it until the next full pass).
    """

    __slots__ = ("pending", "_heap", "_in_heap", "_active", "_cursor")

    def __init__(self) -> None:
        self.pending: Set[int] = set()
        self._heap: List[int] = []
        self._in_heap: Set[int] = set()
        self._active = False
        self._cursor = -1

    def touch(self, position: int) -> None:
        if (
            self._active
            and position > self._cursor
            and position not in self._in_heap
        ):
            heapq.heappush(self._heap, position)
            self._in_heap.add(position)
        else:
            self.pending.add(position)

    def drain(self) -> Iterator[int]:
        """Yield scheduled positions in ascending order (one pass)."""
        heap = self._heap
        heap.clear()
        heap.extend(self.pending)
        heapq.heapify(heap)
        self._in_heap.clear()
        self._in_heap.update(self.pending)
        self.pending.clear()
        self._active = True
        try:
            while heap:
                position = heapq.heappop(heap)
                self._in_heap.discard(position)
                self._cursor = position
                yield position
        finally:
            self._active = False
            self._cursor = -1


class _WorklistEngine:
    """Incremental fixpoint over the resolution index (see module doc)."""

    def __init__(self, tree: KconfigTree, pinned: Mapping[str, Tristate]):
        index: ResolutionIndex = tree.resolution_index()
        self.tree = tree
        self.index = index
        self.pinned = pinned
        self.visited = 0
        self.evals = 0
        count = len(index.names)
        self.deps = _Worklist()
        self.sel = _Worklist()
        self.defaults = _Worklist()
        self.choices = _Worklist()
        #: Select-forced snapshot: per-target count of enabled selecting
        #: sources as of the last iteration boundary.
        self.forced_count = [0] * count
        self._enabled_snap = [False] * count
        self._forced_pending: Set[int] = set()
        self.changed = False
        self.values: Dict[str, Tristate] = {}
        self.demoted: Dict[str, str] = {}
        self.violations: Set[Tuple[str, str]] = set()
        self.churned: Set[str] = set()
        self._member_sets = [frozenset(c.members) for c in index.choices]

    # -- seeding -----------------------------------------------------------

    def run_cold(self) -> int:
        """Resolve from scratch: everything with a non-trivial rule is dirty."""
        index = self.index
        values = {name: Tristate.NO for name in index.names}
        values.update(self.pinned)
        self.values = values
        names = index.names
        for position in range(len(names)):
            if values[names[position]] is not Tristate.NO:
                self.deps.pending.add(position)
            if index.def_fn[position] is not None:
                self.defaults.pending.add(position)
        for position in index.has_selects:
            if values[names[position]] is not Tristate.NO:
                self.sel.pending.add(position)
        self.choices.pending.update(range(len(index.choices)))
        self._snapshot_forced()
        return self._fixpoint()

    def run_warm(self, base: ResolvedConfig) -> int:
        """Resolve by reusing *base*'s fixpoint outside the pins' cone.

        The engine's full request set replaces ``base.requested``.
        Every option the changed pins can influence -- transitively
        through dependency reads, default reads, select forcing and
        choice groups -- is reset to its cold seed and replayed; options
        outside that cone see exactly the same inputs under either
        request set, so their base values, demotion records and
        violations are reused as-is.  Merely dirtying the delta would
        not be enough: derived facts are sticky (a default, once fired,
        never un-fires), so stale cone state has to be torn down, not
        just re-checked.

        Replay also has to respect *trajectories*, not just final
        values: phase order means an option can read another's value
        mid-run before a select or default flips it (and demotions are
        irreversible).  Any option that churned during the base run and
        feeds the cone is therefore pulled into the cone itself, so the
        replay recomputes its trajectory instead of reading its final
        value; flat options (value never moved off its seed) are safe to
        read directly.
        """
        index = self.index
        names = index.names
        self.values = dict(base.values)
        old, new = base.requested, self.pinned
        delta = {
            name for name in old
            if name not in new or new[name] is not old[name]
        }
        delta.update(name for name in new if name not in old)
        seeds = {
            index.pos_of[name] for name in delta if name in index.pos_of
        }
        # Request *order* is semantic for choices (the first requested
        # member wins ties), so a reordering of member pins dirties the
        # whole group even when no pin value changed.
        for choice_index, members in enumerate(self._member_sets):
            old_sig = tuple(
                (name, old[name]) for name in old if name in members
            )
            new_sig = tuple(
                (name, new[name]) for name in new if name in members
            )
            if old_sig != new_sig:
                seeds.update(index.choice_members[choice_index])
        cone = self._influence_cone(seeds)
        churned_positions = {
            index.pos_of[name]
            for name in base.churned if name in index.pos_of
        }
        while True:
            suspects = [
                position for position in churned_positions - cone
                if any(r in cone for r in self._forward_edges(position))
            ]
            if not suspects:
                break
            cone = self._influence_cone(suspects, cone)
        cone_names = {names[position] for position in cone}
        for position in sorted(cone):
            name = names[position]
            self.values[name] = new.get(name, Tristate.NO)
            if self.values[name] is not Tristate.NO:
                self.deps.pending.add(position)
                if index.selects_of[position]:
                    self.sel.pending.add(position)
            if index.def_fn[position] is not None:
                self.defaults.pending.add(position)
            # Sources outside the cone keep forcing reset targets inside
            # it; requeue them so the select phase re-asserts the force.
            for source in index.rev_sel[position]:
                if self.values[names[source]] is not Tristate.NO:
                    self.sel.pending.add(source)
            for choice_index in index.choice_readers[position]:
                self.choices.pending.add(choice_index)
        self.demoted = {
            name: reason for name, reason in base.demoted.items()
            if name not in cone_names
        }
        self.violations = {
            (source, target) for source, target in base.select_violations
            if source not in cone_names and target not in cone_names
        }
        self._snapshot_forced()
        iterations = self._fixpoint()
        # Churn outside the cone carries over (identical trajectories);
        # inside the cone the replay re-derived it from scratch.
        self.churned |= set(base.churned) - cone_names
        return iterations

    def _forward_edges(self, position: int) -> Iterator[int]:
        """Positions whose value *position* can influence directly."""
        index = self.index
        yield from index.rev_dep[position]
        yield from index.rev_def[position]
        yield from index.selects_of[position]
        for choice_index in index.choice_readers[position]:
            yield from index.choice_members[choice_index]

    def _influence_cone(
        self, seeds: Iterable[int], cone: Optional[Set[int]] = None
    ) -> Set[int]:
        """Forward closure of *seeds* over every influence edge: options
        whose dependency or default reads a cone member, targets a cone
        member selects, and all members of choice groups a cone member
        feeds.  Extends *cone* in place when given."""
        if cone is None:
            cone = set()
        stack = list(seeds)
        while stack:
            position = stack.pop()
            if position in cone:
                continue
            cone.add(position)
            stack.extend(self._forward_edges(position))
        return cone

    def _snapshot_forced(self) -> None:
        index, values, names = self.index, self.values, self.index.names
        for position in index.has_selects:
            enabled = values[names[position]] is not Tristate.NO
            self._enabled_snap[position] = enabled
            if enabled:
                for target in index.selects_of[position]:
                    self.forced_count[target] += 1
        self._forced_pending.clear()

    def _apply_forced_deltas(self) -> None:
        """Fold buffered source enable/disable flips into the snapshot.

        Runs only between iterations, mirroring the sweep's
        ``_forced_targets`` recomputation at the top of each loop.  A
        target whose forced status flips gets its dependency rule
        re-checked.
        """
        if not self._forced_pending:
            return
        index, values, names = self.index, self.values, self.index.names
        counts = self.forced_count
        for position in sorted(self._forced_pending):
            enabled = values[names[position]] is not Tristate.NO
            if enabled == self._enabled_snap[position]:
                continue
            self._enabled_snap[position] = enabled
            delta = 1 if enabled else -1
            for target in index.selects_of[position]:
                was_forced = counts[target] > 0
                counts[target] += delta
                if (counts[target] > 0) != was_forced:
                    self.deps.touch(target)
        self._forced_pending.clear()

    # -- dirty propagation -------------------------------------------------

    def _set_value(self, position: int, value: Tristate) -> None:
        index = self.index
        self.values[index.names[position]] = value
        self.churned.add(index.names[position])
        self.changed = True
        self.deps.touch(position)
        for reader in index.rev_dep[position]:
            self.deps.touch(reader)
        if index.selects_of[position]:
            self._forced_pending.add(position)
            self.sel.touch(position)
        for source in index.rev_sel[position]:
            self.sel.touch(source)
        if index.def_fn[position] is not None:
            self.defaults.touch(position)
        for reader in index.rev_def[position]:
            self.defaults.touch(reader)
        for choice_index in index.choice_readers[position]:
            self.choices.touch(choice_index)

    # -- phase actions (each mirrors one sweep body) -----------------------

    def _deps_action(self, position: int) -> None:
        index = self.index
        name = index.names[position]
        current = self.values[name]
        if current is Tristate.NO:
            return
        if self.forced_count[position] > 0:
            return
        dep = index.dep_fn[position]
        if dep is None:
            return
        self.evals += 1
        visible = dep(self.values)
        if visible is Tristate.NO:
            self._set_value(position, Tristate.NO)
            self.demoted[name] = index.dep_reason[position]
        elif (
            visible is Tristate.MODULE
            and current is Tristate.YES
            and index.is_tristate[position]
        ):
            self._set_value(position, Tristate.MODULE)

    def _sel_action(self, position: int) -> None:
        index, values = self.index, self.values
        source_value = values[index.names[position]]
        if source_value is Tristate.NO:
            return
        for target in index.selects_of[position]:
            forced = Tristate.YES if index.is_bool[target] else source_value
            target_name = index.names[target]
            if values[target_name] < forced:
                self._set_value(target, forced)
                self.demoted.pop(target_name, None)
                dep = index.dep_fn[target]
                if dep is not None:
                    self.evals += 1
                    if dep(values) is Tristate.NO:
                        self.violations.add(
                            (index.names[position], target_name)
                        )

    def _def_action(self, position: int) -> None:
        index = self.index
        default = index.def_fn[position]
        if default is None:
            return
        name = index.names[position]
        if name in self.pinned or self.values[name] is not Tristate.NO:
            return
        dep = index.dep_fn[position]
        if dep is not None:
            self.evals += 1
            if dep(self.values) is Tristate.NO:
                return
        self.evals += 1
        value = default(self.values)
        if index.is_bool[position] and value is Tristate.MODULE:
            value = Tristate.YES
        if value is not Tristate.NO:
            self._set_value(position, value)

    def _choice_action(self, choice_index: int) -> None:
        index, values, names = self.index, self.values, self.index.names
        enabled_members = [
            member for member in index.choice_members[choice_index]
            if values[names[member]] is not Tristate.NO
        ]
        if not enabled_members:
            default = index.choice_default[choice_index]
            if default is not None and names[default] not in self.pinned:
                dep = index.choice_default_dep[choice_index]
                visible = True
                if dep is not None:
                    self.evals += 1
                    visible = dep(values) is not Tristate.NO
                if visible:
                    self._set_value(default, Tristate.YES)
            return
        member_set = self._member_sets[choice_index]
        requested = [
            name for name in self.pinned
            if name in member_set
            and self.pinned[name] is not Tristate.NO
            and values.get(name, Tristate.NO) is not Tristate.NO
        ]
        winner = requested[0] if requested else names[enabled_members[0]]
        choice_name = index.choices[choice_index].name
        for member in enabled_members:
            name = names[member]
            if name != winner:
                self._set_value(member, Tristate.NO)
                self.demoted[name] = f"choice {choice_name}: {winner} wins"

    # -- the loop ----------------------------------------------------------

    def _fixpoint(self) -> int:
        iterations = 0
        passes = (
            (self.deps, self._deps_action),
            (self.sel, self._sel_action),
            (self.defaults, self._def_action),
            (self.choices, self._choice_action),
        )
        while True:
            if iterations >= _MAX_ITERATIONS:
                raise ResolutionError("configuration did not converge")
            self._apply_forced_deltas()
            if not any(worklist.pending for worklist, _ in passes):
                break
            iterations += 1
            self.changed = False
            for worklist, action in passes:
                for position in worklist.drain():
                    self.visited += 1
                    action(position)
            if not self.changed:
                break

        index, values, names = self.index, self.values, self.index.names
        for source, target in index.select_edges:
            if values[names[source]] is Tristate.NO:
                continue
            dep = index.dep_fn[target]
            if dep is not None:
                self.evals += 1
                if dep(values) is Tristate.NO:
                    self.violations.add((names[source], names[target]))

        # Same stale-record cleanup as the sweep engine.
        self.demoted = {
            name: reason
            for name, reason in self.demoted.items()
            if values[name] is Tristate.NO
        }
        return iterations


class Resolver:
    """Resolves requested option sets against a :class:`KconfigTree`.

    ``strategy`` selects the fixpoint engine: ``"worklist"`` (incremental,
    cached, warm-startable — the default) or ``"sweep"`` (the full-tree
    oracle).  Both produce identical :class:`ResolvedConfig` results.
    """

    def __init__(
        self,
        tree: KconfigTree,
        strict: bool = True,
        strategy: str = "worklist",
    ):
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown resolution strategy {strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )
        self.tree = tree
        self.strict = strict
        self.strategy = strategy

    def resolve(
        self,
        requested: Mapping[str, Tristate],
        name: str = "",
        use_cache: bool = True,
    ) -> ResolvedConfig:
        """Resolve *requested* into a complete configuration.

        In strict mode, requesting an option the tree does not define raises
        :class:`UnknownOptionError`; otherwise unknown requests are dropped.
        Worklist resolutions are memoized process-wide unless *use_cache*
        is false (callers probing many throwaway request sets, e.g. config
        minimization, should opt out).
        """
        from repro.observe import span

        with span("kconfig.resolve", category="kconfig",
                  config=name, requested=len(requested),
                  strategy=self.strategy) as record:
            pinned = self._validate_requests(requested)
            cache_key = None
            if self.strategy == "worklist" and use_cache:
                cache_key = self._cache_key(pinned, "cold")
                cached = RESOLUTION_CACHE.lookup(cache_key)
                if cached is not None:
                    record.set_attr("cache_hit", True)
                    return self._rebind(cached, name)
            if self.strategy == "worklist":
                engine = _WorklistEngine(self.tree, pinned)
                iterations = engine.run_cold()
            else:
                engine = _SweepEngine(self.tree, pinned)
                iterations = engine.run()
            config = self._finish(engine, pinned, iterations, name, record)
            if cache_key is not None:
                config = RESOLUTION_CACHE.store(cache_key, config)
        return config

    def resolve_names(
        self,
        names: Iterable[str],
        name: str = "",
        use_cache: bool = True,
    ) -> ResolvedConfig:
        """Convenience: resolve a plain iterable of option names, all ``y``."""
        return self.resolve(
            {n: Tristate.YES for n in names}, name=name, use_cache=use_cache
        )

    def resolve_from(
        self,
        base: ResolvedConfig,
        requested: Mapping[str, Tristate],
        name: str = "",
        use_cache: bool = True,
    ) -> ResolvedConfig:
        """Resolve *requested* warm-starting from the *base* fixpoint.

        *requested* is the complete request set for the derived
        configuration (it replaces ``base.requested``; it is not a
        delta on top of it).  Only the options in the cone reachable
        from the changed pins are revisited, which is what makes
        deriving the N-th per-application variant from ``lupine-base``
        cheap.  The result equals a cold resolution of the same
        requests; warm and cold results are cached under distinct keys.
        """
        from repro.observe import span

        if self.strategy != "worklist":
            raise ValueError(
                "warm-start resolution requires the worklist strategy"
            )
        # Content equality is what matters: a rebuilt tree with the same
        # fingerprint resolves identically, so a base carried across
        # (e.g.) an lru_cache clear of build_linux_tree stays usable.
        if base.tree is not self.tree and (
            base.tree.fingerprint() != self.tree.fingerprint()
        ):
            raise ValueError(
                "base configuration was resolved against a different tree"
            )
        with span("kconfig.resolve", category="kconfig",
                  config=name, requested=len(requested),
                  strategy=self.strategy, warm=True,
                  base=base.name) as record:
            pinned = self._validate_requests(requested)
            cache_key = None
            if use_cache:
                base_key = tuple(base.requested.items())
                cache_key = self._cache_key(pinned, ("warm", base_key))
                cached = RESOLUTION_CACHE.lookup(cache_key)
                if cached is not None:
                    record.set_attr("cache_hit", True)
                    return self._rebind(cached, name)
            engine = _WorklistEngine(self.tree, pinned)
            iterations = engine.run_warm(base)
            config = self._finish(engine, pinned, iterations, name, record)
            if cache_key is not None:
                config = RESOLUTION_CACHE.store(cache_key, config)
        return config

    def resolve_names_from(
        self,
        base: ResolvedConfig,
        names: Iterable[str],
        name: str = "",
        use_cache: bool = True,
    ) -> ResolvedConfig:
        """Warm-start convenience over plain option names, all ``y``."""
        return self.resolve_from(
            base, {n: Tristate.YES for n in names},
            name=name, use_cache=use_cache,
        )

    # -- internals ---------------------------------------------------------

    def _rebind(self, cached: ResolvedConfig, name: str) -> ResolvedConfig:
        """Adapt a cache hit to this resolver's tree instance and *name*.

        Cache keys are content fingerprints, so a hit may carry a
        different (but content-identical) tree object, e.g. after the
        tree builder's lru_cache was cleared.
        """
        if cached.tree is self.tree and cached.name == name:
            return cached
        return ResolvedConfig(
            tree=self.tree,
            values=cached.values,
            requested=cached.requested,
            demoted=cached.demoted,
            select_violations=cached.select_violations,
            name=name,
            churned=cached.churned,
        )

    def _cache_key(
        self, pinned: Mapping[str, Tristate], mode: Hashable
    ) -> Hashable:
        # Request *insertion order* is semantic: when several members of
        # a choice are requested, the first requested wins the tie-break.
        # Sorting the pins here would alias permutations that resolve to
        # different winners, so the key preserves the caller's order.
        return (
            self.tree.fingerprint(),
            tuple(pinned.items()),
            mode,
        )

    def _finish(self, engine, pinned, iterations, name, record) -> ResolvedConfig:
        from repro.observe import METRICS

        record.set_attr("iterations", iterations)
        record.set_attr("visited", engine.visited)
        METRICS.counter("kconfig.resolutions").inc()
        METRICS.counter("kconfig.resolve.visited_options").inc(engine.visited)
        METRICS.counter("kconfig.expr.evals").inc(engine.evals)
        METRICS.histogram(
            "kconfig.resolve.iterations", _ITERATION_BUCKETS
        ).observe(iterations)
        return ResolvedConfig(
            tree=self.tree,
            values=engine.values,
            requested=dict(pinned),
            demoted=dict(engine.demoted),
            select_violations=tuple(sorted(engine.violations)),
            name=name,
            churned=frozenset(engine.churned),
        )

    def _validate_requests(
        self, requested: Mapping[str, Tristate]
    ) -> Dict[str, Tristate]:
        pinned: Dict[str, Tristate] = {}
        for option_name, value in requested.items():
            option = self.tree.get(option_name)
            if option is None:
                if self.strict:
                    raise UnknownOptionError(option_name)
                continue
            if not option.option_type.is_symbolic:
                continue
            if option.option_type is OptionType.BOOL and value is Tristate.MODULE:
                value = Tristate.YES
            pinned[option_name] = value
        return pinned


def enabled_closure(tree: KconfigTree, names: Iterable[str]) -> FrozenSet[str]:
    """Transitive closure of *names* under ``select`` edges.

    Useful for quick what-if queries without running a full resolution.
    """
    closure: Set[str] = set()
    frontier = [name for name in names if name in tree]
    while frontier:
        current = frontier.pop()
        if current in closure:
            continue
        closure.add(current)
        frontier.extend(
            target for target in tree[current].selects if target not in closure
        )
    return frozenset(closure)
