"""Plain-text reporting for the figure benchmarks.

The paper's figures are line plots (runtime vs a swept parameter, one
line per algorithm).  :func:`format_series` prints the same content as an
aligned text block — x values as columns, one row per algorithm — which
is what each benchmark module emits and what EXPERIMENTS.md records.
:func:`format_records` is the flat per-cell table for appendix-style
detail.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import RunRecord


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != value:  # nan
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.4g}"
    return str(value)


def format_records(records: Sequence[RunRecord], columns: Sequence[str] | None = None) -> str:
    """Aligned table of per-cell records."""
    if not records:
        return "(no records)"
    rows = [r.as_row() for r in records]
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), *(len(cell[i]) for cell in cells)) for i, c in enumerate(columns)
    ]
    header = "  ".join(str(c).rjust(w) for c, w in zip(columns, widths))
    lines = [header, "  ".join("-" * w for w in widths)]
    lines += ["  ".join(cell[i].rjust(widths[i]) for i in range(len(columns))) for cell in cells]
    return "\n".join(lines)


#: Summable fields of a :meth:`repro.device.Device.profile` row, with
#: defaults tolerant of records saved before a field existed.
_PROFILE_INT_FIELDS = ("launches", "replayed", "threads", "steps")
_PROFILE_FLOAT_FIELDS = ("seconds", "self_seconds", "replayed_seconds")


def merge_kernel_profiles(records_or_profile) -> dict:
    """Sum per-kernel profile rows across records into one profile dict.

    Accepts either a single :meth:`repro.device.Device.profile` dict or a
    sequence of :class:`RunRecord`.  Rows loaded from old history files
    may lack the newer fields (``self_seconds``, ``replayed_seconds``,
    ``counters``) — they merge as zero/empty.
    """
    profile: dict[str, dict] = {}
    if isinstance(records_or_profile, dict):
        row_iter = [records_or_profile.items()]
    else:
        row_iter = [rec.kernels.items() for rec in records_or_profile]
    for rows in row_iter:
        for name, row in rows:
            agg = profile.setdefault(
                name,
                {
                    **{f: 0 for f in _PROFILE_INT_FIELDS},
                    **{f: 0.0 for f in _PROFILE_FLOAT_FIELDS},
                    "counters": {},
                },
            )
            for f in _PROFILE_INT_FIELDS:
                agg[f] += int(row.get(f, 0))
            for f in _PROFILE_FLOAT_FIELDS:
                agg[f] += float(row.get(f, 0.0))
            for key, value in (row.get("counters") or {}).items():
                if key == "frontier_peak":
                    agg["counters"][key] = max(agg["counters"].get(key, 0), value)
                else:
                    agg["counters"][key] = agg["counters"].get(key, 0) + value
    return profile


def format_kernel_profile(records_or_profile, title: str = "") -> str:
    """Per-kernel time breakdown table.

    Accepts either a :meth:`repro.device.Device.profile` dict or a
    sequence of :class:`RunRecord` (whose per-cell ``kernels`` profiles
    are summed).  One row per kernel name — launches, how many of those
    were replayed from a reused index, inclusive wall seconds, exclusive
    self seconds with the share of the total, and cumulative
    threads/steps — sorted by seconds, hottest first.  The share column
    uses *self* seconds (each wall second counted once even when kernels
    nest — see :meth:`repro.device.Device.profile` for the semantics),
    falling back to inclusive seconds for profiles saved before
    ``self_seconds`` existed.  This is the text analogue of an
    ``nvprof``/``nsys`` summary: it answers *where the time goes* (the
    paper's construction-vs-search split) rather than just how long the
    whole run took.
    """
    profile = merge_kernel_profiles(records_or_profile)
    if not profile:
        return f"{title}: (no kernel launches)" if title else "(no kernel launches)"
    self_total = sum(row["self_seconds"] for row in profile.values())
    share_field = "self_seconds" if self_total > 0 else "seconds"
    total = sum(row[share_field] for row in profile.values()) or 1.0
    columns = [
        "kernel", "launches", "replayed", "seconds", "self_s", "share",
        "threads", "steps",
    ]
    cells = [
        [
            name,
            _fmt(row["launches"]),
            _fmt(row["replayed"]),
            _fmt(row["seconds"]),
            _fmt(row["self_seconds"]),
            f"{100.0 * row[share_field] / total:.1f}%",
            _fmt(row["threads"]),
            _fmt(row["steps"]),
        ]
        for name, row in sorted(
            profile.items(), key=lambda item: item[1]["seconds"], reverse=True
        )
    ]
    widths = [max(len(c), *(len(cell[i]) for cell in cells)) for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.rjust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(cell[i].rjust(widths[i]) for i in range(len(columns))) for cell in cells]
    return "\n".join(lines)


def format_fault_summary(info: dict, title: str = "-- faults & recovery --") -> str:
    """Fault/retry/recovery digest of a distributed run's ``info`` dict.

    Shows the injected-fault breakdown, per-phase retry counts, rank
    deaths with their recovery reassignments, and the communicator's
    per-phase message/byte/retransmit table — the operational counterpart
    of the kernel profile: *what went wrong and what it cost to survive*.
    """
    lines = [title] if title else []
    faults = info.get("faults") or {}
    by_kind = faults.get("by_kind") or {}
    if by_kind:
        kinds = "  ".join(f"{kind}={count}" for kind, count in sorted(by_kind.items()))
        lines.append(f"injected faults : {faults.get('total', 0)}  ({kinds})")
    else:
        lines.append("injected faults : 0")
    retries = info.get("retries") or {}
    if retries:
        lines.append(
            "compute retries : "
            + "  ".join(f"{phase}={count}" for phase, count in sorted(retries.items()))
        )
    dead = info.get("dead_ranks") or []
    if dead:
        lines.append(f"dead ranks      : {dead}")
        for rec in info.get("recoveries") or []:
            lines.append(
                f"  recovery: partition {rec['partition']} "
                f"(rank {rec['dead_rank']} died at {rec['boundary']}) -> "
                f"rank {rec['reassigned_to']}, lost={rec['lost'] or ['nothing']}"
            )
    comm = info.get("comm") or {}
    if comm:
        lines.append(
            f"comm            : {comm.get('messages', 0)} msgs, "
            f"{comm.get('bytes_sent', 0):,} B, "
            f"{comm.get('retransmits', 0)} retransmits, "
            f"{comm.get('sim_wait_seconds', 0.0):.4g}s simulated wait"
        )
        by_phase = comm.get("by_phase") or {}
        for phase, entry in sorted(by_phase.items()):
            lines.append(
                f"  {phase:>24} : {entry['messages']:>5} msgs  "
                f"{entry['bytes']:>12,} B  {entry['retransmits']:>4} retx"
            )
    return "\n".join(lines)


#: Density ramp for :func:`ascii_density` (space = empty, @ = densest).
_DENSITY_RAMP = " .:-=+*#%@"


def ascii_density(
    points,
    width: int = 64,
    height: int = 24,
    title: str = "",
    axes: tuple[int, int] = (0, 1),
) -> str:
    """Character density map of a 2-D/3-D point set.

    The text analogue of the paper's dataset visualisations (Figures 3
    and 5): points are binned onto a character grid and shaded by log
    count.  For 3-D data, ``axes`` picks the projection plane.
    """
    import numpy as np

    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        return f"{title}: (no points)"
    x = points[:, axes[0]]
    y = points[:, axes[1] if points.shape[1] > 1 else 0]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    cols = np.minimum(((x - x_lo) / x_span * width).astype(int), width - 1)
    rows = np.minimum(((y - y_lo) / y_span * height).astype(int), height - 1)
    counts = np.zeros((height, width), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    log_counts = np.log1p(counts)
    top = log_counts.max() or 1.0
    levels = (log_counts / top * (len(_DENSITY_RAMP) - 1)).astype(int)
    lines = []
    if title:
        lines.append(title)
    # rows render top-down (max y first)
    for r in range(height - 1, -1, -1):
        lines.append("".join(_DENSITY_RAMP[v] for v in levels[r]))
    lines.append(
        f"x: [{x_lo:.4g}, {x_hi:.4g}]  y: [{y_lo:.4g}, {y_hi:.4g}]  "
        f"n={points.shape[0]:,}"
    )
    return "\n".join(lines)


def ascii_loglog(
    records: Sequence[RunRecord],
    x_key: str = "n",
    title: str = "",
    width: int = 64,
    height: int = 16,
) -> str:
    """Text log-log plot of seconds vs ``x_key`` — the shape view of the
    paper's Figure 4(g-i) scaling panels, one glyph per algorithm.

    Failed cells are simply absent (exactly how the paper's missing
    G-DBSCAN points appear).
    """
    ok = [r for r in records if r.status == "ok" and getattr(r, x_key) > 0 and r.seconds > 0]
    if not ok:
        return f"{title}: (no plottable records)"
    algorithms: list[str] = []
    for rec in ok:
        if rec.algorithm not in algorithms:
            algorithms.append(rec.algorithm)
    glyphs = "ox+*#@%&"
    import math

    xs = [math.log10(getattr(r, x_key)) for r in ok]
    ys = [math.log10(r.seconds) for r in ok]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    canvas = [[" "] * width for _ in range(height)]
    for rec, x, y in zip(ok, xs, ys):
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        canvas[row][col] = glyphs[algorithms.index(rec.algorithm) % len(glyphs)]
    lines = []
    if title:
        lines.append(title)
    lines.append(f"seconds (log) {10 ** y_hi:.3g} ┐")
    lines += ["".join(row) for row in canvas]
    lines.append(f"{10 ** y_lo:.3g} ┘  {x_key} (log): {10 ** x_lo:.3g} .. {10 ** x_hi:.3g}")
    lines.append(
        "legend: " + "  ".join(f"{glyphs[i % len(glyphs)]}={a}" for i, a in enumerate(algorithms))
    )
    return "\n".join(lines)


def format_series(
    records: Sequence[RunRecord],
    x_key: str,
    title: str = "",
    value: str = "seconds",
) -> str:
    """Paper-figure-style block: one row per algorithm, x values as columns.

    ``x_key`` is a :class:`RunRecord` attribute name (``"min_samples"``,
    ``"eps"``, ``"n"``).  Failed cells render as their status (``oom`` /
    ``skipped``) — the analogue of the paper's missing points.
    """
    xs: list = []
    for rec in records:
        x = getattr(rec, x_key)
        if x not in xs:
            xs.append(x)
    algorithms: list[str] = []
    for rec in records:
        if rec.algorithm not in algorithms:
            algorithms.append(rec.algorithm)
    table: dict[tuple[str, object], str] = {}
    for rec in records:
        key = (rec.algorithm, getattr(rec, x_key))
        table[key] = _fmt(getattr(rec, value)) if rec.status == "ok" else rec.status

    name_w = max(len(a) for a in algorithms)
    col_w = [max(len(_fmt(x)), *(len(table.get((a, x), "-")) for a in algorithms)) for x in xs]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        " " * name_w + "  " + "  ".join(_fmt(x).rjust(w) for x, w in zip(xs, col_w))
    )
    for a in algorithms:
        lines.append(
            a.rjust(name_w)
            + "  "
            + "  ".join(table.get((a, x), "-").rjust(w) for x, w in zip(xs, col_w))
        )
    return "\n".join(lines)
