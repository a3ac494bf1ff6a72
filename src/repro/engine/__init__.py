"""``repro.engine`` — the from-scratch RDBMS substrate.

Storage (pages, simulated disk, buffer pool, heap files), secondary
indexes, the ``qt``-form predicate/template model, a rule-based planner
with Volcano-style operators, and S/X locking.  The PMV layer in
:mod:`repro.core` builds on these interfaces only.
"""

from repro.engine.bufferpool import BufferPool, BufferPoolStats
from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.datatypes import (
    BIGINT,
    DATE,
    FLOAT,
    INTEGER,
    MINUS_INFINITY,
    PLUS_INFINITY,
    DataType,
    Infinity,
    TypeKind,
    TEXT,
)
from repro.engine.disk import DiskManager, IOStats, LatencyModel
from repro.engine.heap import HeapRelation
from repro.engine.index import HashIndex, OrderedIndex, build_index
from repro.engine.locks import LockManager, LockMode
from repro.engine.page import PAGE_SIZE, Page
from repro.engine.parser import parse_query, parse_template
from repro.engine.planner import Plan
from repro.engine.predicate import (
    EqualityDisjunction,
    Interval,
    IntervalDisjunction,
    JoinEquality,
    SelectionCondition,
    SelectionConjunction,
)
from repro.engine.row import Row, RowId
from repro.engine.schema import Column, Schema
from repro.engine.stats import ColumnStatistics, StatisticsCollector, TableStatistics
from repro.engine.template import Query, QueryTemplate, SelectionSlot, SlotForm
from repro.engine.transactions import Change, ChangeKind, Transaction, TxnStatus
from repro.engine.snapshot import (
    checkpoint,
    recover_from_snapshot,
    restore_snapshot,
    take_snapshot,
)
from repro.engine.wal import LogKind, LogRecord, WriteAheadLog, recover

__all__ = [
    "BIGINT",
    "BufferPool",
    "BufferPoolStats",
    "Catalog",
    "Change",
    "ChangeKind",
    "Column",
    "DATE",
    "DataType",
    "Database",
    "DiskManager",
    "EqualityDisjunction",
    "FLOAT",
    "HashIndex",
    "HeapRelation",
    "INTEGER",
    "IOStats",
    "Infinity",
    "Interval",
    "IntervalDisjunction",
    "JoinEquality",
    "LatencyModel",
    "LockManager",
    "LockMode",
    "LogKind",
    "LogRecord",
    "WriteAheadLog",
    "recover",
    "MINUS_INFINITY",
    "OrderedIndex",
    "PAGE_SIZE",
    "PLUS_INFINITY",
    "Page",
    "Plan",
    "Query",
    "QueryTemplate",
    "Row",
    "RowId",
    "Schema",
    "SelectionCondition",
    "SelectionConjunction",
    "SelectionSlot",
    "SlotForm",
    "StatisticsCollector",
    "TEXT",
    "TableStatistics",
    "ColumnStatistics",
    "Transaction",
    "TxnStatus",
    "TypeKind",
    "build_index",
    "checkpoint",
    "parse_query",
    "parse_template",
    "recover_from_snapshot",
    "restore_snapshot",
    "take_snapshot",
]
