"""Plain-text and markdown rendering of experiment results.

The benchmark harness prints each reproduced table/figure as an aligned
text table — the same rows/series the paper reports — so `pytest
benchmarks/` output can be compared against the paper side by side.
The module also renders markdown (:func:`format_markdown_table`) and the
per-run metrics report behind ``python -m repro report``
(:func:`format_metrics_report`); see :mod:`repro.sim.telemetry` for the
document the report reads.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping],
    columns: Sequence[str],
    headers: Optional[Sequence[str]] = None,
    floatfmt: str = "{:.2f}",
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned text table."""
    headers = list(headers) if headers else list(columns)

    def cell(value: object) -> str:
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    body = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_speedup_figure(result: Mapping, title: str) -> str:
    """Render a {rows, geomean} speedup result (Figs. 10-15 shape)."""
    rows: List[Mapping] = list(result["rows"])
    schemes = [k for k in rows[0] if k != "benchmark"]
    table = format_table(
        rows, ["benchmark"] + schemes, title=title, floatfmt="{:.2f}"
    )
    means = result.get("geomean", {})
    if means:
        mean_row = {"benchmark": "geomean", **means}
        table += "\n" + format_table([mean_row], ["benchmark"] + schemes).splitlines()[-1]
    return table


def format_sweep(result: Mapping[str, Mapping], title: str, x_label: str) -> str:
    """Render a {scheme: {x: speedup}} sweep (Figs. 16, 18 shape)."""
    schemes = list(result)
    xs = sorted(next(iter(result.values())).keys())
    rows = []
    for x in xs:
        row = {x_label: x}
        for scheme in schemes:
            row[scheme] = result[scheme][x]
        rows.append(row)
    return format_table(rows, [x_label] + schemes, title=title)


def format_markdown_table(
    rows: Sequence[Mapping],
    columns: Sequence[str],
    headers: Optional[Sequence[str]] = None,
    floatfmt: str = "{:.2f}",
) -> str:
    """Render a list of dict rows as a GitHub-flavoured markdown table."""
    headers = list(headers) if headers else list(columns)

    def cell(value: object) -> str:
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(cell(row.get(col, "")) for col in columns) + " |"
        )
    return "\n".join(lines)


def _downsample(windows: Sequence[Mapping], max_rows: int) -> List[Mapping]:
    """Pick an evenly-strided subset of windows, always keeping the last."""
    if len(windows) <= max_rows:
        return list(windows)
    stride = -(-len(windows) // max_rows)  # ceil division
    picked = list(windows[::stride])
    if picked[-1] is not windows[-1]:
        picked.append(windows[-1])
    return picked


def format_metrics_report(doc: Mapping, max_rows: int = 48) -> str:
    """Render a telemetry metrics document as a markdown run report.

    Three sections: a header identifying the run (benchmark,
    fingerprint, cycle count, window cadence), a totals table with the
    derived run-level rates (IPC, DRAM row-hit rate, merge ratio,
    prefetch usefulness), and the window timeline — downsampled to at
    most ``max_rows`` evenly-strided rows, with a note naming the
    stride — followed by an ASCII DRAM-bandwidth timeline, the native
    way to read Fig. 12's early-bandwidth behaviour.
    """
    windows: List[Mapping] = list(doc["windows"])
    totals: Mapping = doc["totals"]
    cycles = doc["cycles"]
    num_cores = doc["num_cores"]
    lines = [f"# Run metrics: {doc['benchmark'] or '(unnamed run)'}", ""]
    fingerprint = str(doc.get("fingerprint") or "")
    if fingerprint:
        lines.append(f"- fingerprint: `{fingerprint[:12]}`")
    lines.append(f"- cycles: {cycles} ({num_cores} cores)")
    dropped = doc["windows_dropped"]
    lines.append(
        f"- windows: {len(windows)} retained of {doc['windows_emitted']} "
        f"emitted ({dropped} dropped), nominal interval {doc['interval']} cycles"
    )
    lines += ["", "## Totals", ""]
    total_rows = [
        {"metric": name, "value": totals[name]}
        for name in sorted(totals)
    ]
    instructions = totals.get("instructions", 0)
    hits, misses = totals.get("dram_row_hits", 0), totals.get("dram_row_misses", 0)
    merges, requests = totals.get("intra_core_merges", 0), totals.get("mrq_requests", 0)
    issued, useful = totals.get("prefetches_issued", 0), totals.get("prefetches_useful", 0)
    derived = [
        ("ipc (per core)", instructions / (cycles * num_cores) if cycles and num_cores else 0.0),
        ("dram row-hit rate", hits / (hits + misses) if hits + misses else 0.0),
        ("merge ratio (Eq. 6)", merges / requests if requests else 0.0),
        ("prefetch usefulness", useful / issued if issued else 0.0),
    ]
    total_rows += [{"metric": name, "value": value} for name, value in derived]
    lines.append(format_markdown_table(total_rows, ["metric", "value"], floatfmt="{:.4f}"))
    lines += ["", "## Timeline", ""]
    picked = _downsample(windows, max_rows)
    if len(picked) != len(windows):
        lines += [
            f"_{len(picked)} of {len(windows)} windows shown "
            f"(every {-(-len(windows) // max_rows)}th); the JSON document "
            "retains all of them._",
            "",
        ]
    timeline_columns = [
        "window", "cycles", "ipc", "instructions", "stall_cycles",
        "mrq_occupancy", "dram_lines", "row_hit_rate", "prefetches_issued",
        "prefetches_useful", "warps_blocked_on_memory", "throttle_degree_max",
    ]
    timeline_rows = []
    for window in picked:
        row_hits = window["dram_row_hits"]
        row_total = row_hits + window["dram_row_misses"]
        timeline_rows.append({
            "window": f"[{window['start']}, {window['end']})",
            "cycles": window["cycles"],
            "ipc": window["ipc"],
            "instructions": window["instructions"],
            "stall_cycles": window["stall_cycles"],
            "mrq_occupancy": window["mrq_occupancy"],
            "dram_lines": window["dram_lines"],
            "row_hit_rate": row_hits / row_total if row_total else 0.0,
            "prefetches_issued": window["prefetches_issued"],
            "prefetches_useful": window["prefetches_useful"],
            "warps_blocked_on_memory": window["warps_blocked_on_memory"],
            "throttle_degree_max": window["throttle_degree_max"],
        })
    lines.append(format_markdown_table(timeline_rows, timeline_columns))
    lines += ["", "## DRAM bandwidth timeline", ""]
    bandwidth = {
        f"[{w['start']}, {w['end']})": float(w["dram_lines"]) for w in picked
    }
    lines += [
        "```",
        format_bar_chart(bandwidth, "lines transferred per window", reference=0.0),
        "```",
        "",
    ]
    return "\n".join(lines)


def format_bar_chart(
    values: Mapping[str, float],
    title: str,
    width: int = 40,
    reference: float = 1.0,
) -> str:
    """Render a labelled horizontal ASCII bar chart.

    Used for speedup figures: a ``|`` marks the reference (1.0 = baseline),
    bars are scaled to the maximum value, and each row prints the numeric
    value after the bar.
    """
    if not values:
        return title + "\n(no data)"
    label_width = max(len(str(k)) for k in values)
    peak = max(max(values.values()), reference)
    lines = [title]
    ref_col = int(round(reference / peak * width))
    for label, value in values.items():
        filled = int(round(max(0.0, value) / peak * width))
        bar = ""
        for col in range(width + 1):
            if col == ref_col and col > filled:
                bar += "|"
            elif col < filled:
                bar += "#"
            elif col == filled and col == ref_col:
                bar += "|"
            else:
                bar += " "
        lines.append(f"{str(label).ljust(label_width)} {bar.rstrip()} {value:.2f}")
    return "\n".join(lines)
