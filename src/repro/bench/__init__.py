"""``repro.bench`` — experiment drivers and reporting for every table
and figure in the paper's evaluation (Section 4)."""

from repro.bench.figures import (
    ExperimentDatabase,
    OverheadMeasurement,
    build_experiment_database,
    engine_downscale,
    engine_runs,
    measure_overhead,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_table1,
    sim_scale,
)
from repro.bench.reporting import Series, format_series, format_table, scale_note

__all__ = [
    "ExperimentDatabase",
    "OverheadMeasurement",
    "Series",
    "build_experiment_database",
    "engine_downscale",
    "engine_runs",
    "format_series",
    "format_table",
    "measure_overhead",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_table1",
    "scale_note",
    "sim_scale",
]
