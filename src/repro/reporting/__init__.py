"""Rendering of paper-style tables and experiment summaries."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.reporting.tables": (
        "render_processor_table",
        "render_row_block_table",
        "render_schedule",
        "format_block",
    ),
    "repro.reporting.trace": (
        "activity_strip",
        "fault_summary",
        "phase_table",
        "round_table",
        "service_table",
        "utilization",
        "word_histogram",
    ),
})

__all__ = [
    "render_processor_table",
    "render_row_block_table",
    "render_schedule",
    "format_block",
    "activity_strip",
    "fault_summary",
    "phase_table",
    "round_table",
    "service_table",
    "utilization",
    "word_histogram",
]
