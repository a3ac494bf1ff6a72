"""Managing many PMVs at once.

The paper: "Many PMVs can reside in the RDBMS simultaneously" and "the
RDBMS cannot keep a MV for each frequently used query template" — the
whole point is that PMVs are cheap enough to keep one per hot template.
:class:`PMVManager` is that registry: it creates a PMV (plus executor
and maintainer) per template, routes incoming queries to the right
PMV by their template, and accounts for the fleet's total memory so an
operator can check the "RDBMS can afford storing many PMVs" claim
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.discretize import Discretization
from repro.core.executor import DEFAULT_O1_CACHE_SIZE, PMVExecutor, PMVQueryResult
from repro.core.maintenance import MaintenanceStrategy, PMVMaintainer
from repro.core.replacement import ReplacementPolicy
from repro.core.view import PartialMaterializedView
from repro.engine.database import Database
from repro.engine.template import Query, QueryTemplate
from repro.engine.transactions import Transaction
from repro.errors import PMVError

__all__ = ["ManagedView", "PMVManager"]


@dataclass
class ManagedView:
    """One template's PMV with its executor and maintainer."""

    view: PartialMaterializedView
    executor: PMVExecutor
    maintainer: PMVMaintainer


class PMVManager:
    """A registry of PMVs, one per query template."""

    def __init__(
        self,
        database: Database,
        maintenance_strategy: MaintenanceStrategy = MaintenanceStrategy.DELTA_JOIN,
    ) -> None:
        self.database = database
        self.maintenance_strategy = maintenance_strategy
        self._views: dict[str, ManagedView] = {}
        self._specs: dict[str, dict] = {}

    # -- lifecycle ------------------------------------------------------------

    def create_view(
        self,
        template: QueryTemplate,
        discretization: Discretization | None = None,
        tuples_per_entry: int = 3,
        max_entries: int = 10_000,
        policy: ReplacementPolicy | str = "clock",
        aux_index_columns: Sequence[str] = (),
        upper_bound_bytes: int | None = None,
        maintenance_strategy: MaintenanceStrategy | None = None,
        o1_cache_size: int = DEFAULT_O1_CACHE_SIZE,
        executor_options: dict | None = None,
    ) -> PartialMaterializedView:
        """Create, register, and wire a PMV for ``template``.

        Registers the template in the catalog when it is not yet known,
        attaches a maintainer, and makes the manager route the
        template's queries to the new view.  ``o1_cache_size`` sizes
        the executor's decomposition memo (must be positive).
        ``executor_options`` are extra keyword arguments for
        :class:`PMVExecutor` — e.g. ``lock_timeout`` (see DESIGN.md §8).
        """
        if template.name in self._views:
            raise PMVError(f"template {template.name!r} already has a PMV")
        if not self.database.catalog.has_relation(template.relations[0]):
            raise PMVError(
                f"template {template.name!r} references unknown relations"
            )
        from repro.errors import CatalogError

        try:
            self.database.catalog.template(template.name)
        except CatalogError:
            self.database.register_template(template)
        if discretization is None:
            discretization = Discretization(template)
        view = PartialMaterializedView(
            template,
            discretization,
            tuples_per_entry=tuples_per_entry,
            max_entries=max_entries,
            policy=policy,
            aux_index_columns=aux_index_columns,
            upper_bound_bytes=upper_bound_bytes,
        )
        strategy = maintenance_strategy or self.maintenance_strategy
        maintainer = PMVMaintainer(self.database, view, strategy=strategy).attach()
        executor = PMVExecutor(
            self.database, view, o1_cache_size=o1_cache_size,
            **(executor_options or {}),
        )
        self._views[template.name] = ManagedView(view, executor, maintainer)
        if isinstance(policy, ReplacementPolicy):
            from repro.core.replacement import _POLICIES

            policy_name = next(
                (name for name, cls in _POLICIES.items() if type(policy) is cls),
                "clock",
            )
        else:
            policy_name = policy
        self._specs[template.name] = {
            "template": template,
            "discretization": discretization,
            "tuples_per_entry": tuples_per_entry,
            "max_entries": max_entries,
            "policy": policy_name,
            "aux_index_columns": tuple(aux_index_columns),
            "upper_bound_bytes": upper_bound_bytes,
            "maintenance_strategy": strategy,
            "o1_cache_size": o1_cache_size,
            "executor_options": dict(executor_options or {}),
        }
        return view

    def drop_view(self, template_name: str) -> None:
        """Detach and forget the PMV of ``template_name``."""
        managed = self._views.pop(template_name, None)
        if managed is None:
            raise PMVError(f"no PMV for template {template_name!r}")
        self._specs.pop(template_name, None)
        managed.maintainer.detach()

    def view_specs(self) -> dict[str, dict]:
        """The creation parameters of every managed view, keyed by
        template name (policy instances reduced to their registered
        names).  Replication standbys mirror the primary's fleet from
        this — same templates, budgets, and strategies — so a promoted
        replica serves the identical view configuration."""
        return {name: dict(spec) for name, spec in self._specs.items()}

    # -- routing --------------------------------------------------------------------

    def execute(
        self,
        query: Query,
        txn: Transaction | None = None,
        distinct: bool = False,
        on_o3=None,
        deadline=None,
    ) -> PMVQueryResult:
        """Run ``query`` through the PMV registered for its template.

        ``deadline`` is an optional :class:`~repro.qos.deadline.Deadline`
        budget: O2 always runs, but O3 is skipped or abandoned when the
        budget is spent and the answer comes back with
        ``result.complete`` False (DESIGN.md §10).
        """
        managed = self._views.get(query.template.name)
        if managed is None:
            raise PMVError(
                f"no PMV registered for template {query.template.name!r}"
            )
        return managed.executor.execute(
            query, txn=txn, distinct=distinct, on_o3=on_o3, deadline=deadline
        )

    # -- inspection --------------------------------------------------------------------

    def view(self, template_name: str) -> PartialMaterializedView:
        try:
            return self._views[template_name].view
        except KeyError:
            raise PMVError(f"no PMV for template {template_name!r}") from None

    def executor(self, template_name: str) -> PMVExecutor:
        try:
            return self._views[template_name].executor
        except KeyError:
            raise PMVError(f"no PMV for template {template_name!r}") from None

    def maintainer(self, template_name: str) -> PMVMaintainer:
        try:
            return self._views[template_name].maintainer
        except KeyError:
            raise PMVError(f"no PMV for template {template_name!r}") from None

    def managed(self) -> list[ManagedView]:
        """Every managed view with its executor and maintainer (the QoS
        governor iterates this to shrink/restore budgets fleet-wide)."""
        return list(self._views.values())

    def template_names(self) -> list[str]:
        return list(self._views)

    def __len__(self) -> int:
        return len(self._views)

    @property
    def total_bytes(self) -> int:
        """Combined accounted size of every managed PMV — the quantity
        behind the paper's "the memory can hold many PMVs"."""
        return sum(managed.view.current_bytes for managed in self._views.values())

    def summary(self) -> list[dict]:
        """Per-view status rows (for operator dashboards/tests)."""
        out = []
        for name, managed in self._views.items():
            view, metrics = managed.view, managed.view.metrics
            out.append(
                {
                    "template": name,
                    "entries": view.entry_count,
                    "tuples": view.stored_tuple_count,
                    "bytes": view.current_bytes,
                    "queries": metrics.queries,
                    "hit_probability": metrics.hit_probability,
                }
            )
        return out

    def check_invariants(self) -> None:
        for managed in self._views.values():
            managed.view.check_invariants()

    # -- failure handling ---------------------------------------------------------

    def verify_consistency(self) -> None:
        """Assert that no managed PMV could serve a tuple it shouldn't.

        Runs the invariant checker — every cached tuple of every view
        must be in the reference model's result of its template (and
        the structural/bound invariants must hold).  Raises
        :class:`~repro.check.invariants.InvariantViolation` on divergence.
        Used by tests and the crash-recovery torture harness.

        Async-maintained views are checked against the outbox
        high-watermark: while a view's applied LSN trails the current
        LSN it is *intentionally* stale (undrained feed records may
        leave bounded-stale extras cached), so only its structural
        invariants are enforced.  A view that claims convergence
        (watermark caught up) gets the full strict check — a lost or
        double-applied delta still surfaces as a phantom there.
        """
        from repro.check.invariants import check_view_against_database

        high = self.database.current_lsn()
        for managed in self._views.values():
            view = managed.view
            allow_stale = view.async_maintenance and view.applied_lsn < high
            check_view_against_database(
                self.database, view, allow_stale=allow_stale
            )

    # -- async (CDC) maintenance -----------------------------------------------

    def enable_async_maintenance(
        self,
        template_names: Sequence[str] | None = None,
        outbox=None,
        splitter=None,
        drain_batch: int = 1,
    ):
        """Switch managed views to CDC-driven async maintenance.

        Creates (or adopts) a change outbox on the database, registers
        the named views (all of them by default) with a fresh
        :class:`~repro.cdc.AsyncMaintainer`, and returns it — the
        caller owns the drain cadence (call ``drain()`` /
        ``drain_to_convergence()``).  ``splitter`` routes hot condition
        parts back to the eager path (DESIGN.md §13); ``drain_batch`` sets how many feed
        records one drain round applies per X-lock acquisition.
        """
        from repro.cdc import AsyncMaintainer

        async_maintainer = AsyncMaintainer(
            self.database, outbox=outbox, splitter=splitter, drain_batch=drain_batch
        )
        names = (
            list(template_names) if template_names is not None else list(self._views)
        )
        for name in names:
            if name not in self._views:
                raise PMVError(f"no PMV for template {name!r}")
            async_maintainer.register(self._views[name].maintainer)
        return async_maintainer
