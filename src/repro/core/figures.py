"""Text rendering of the paper's stacked-bar figures.

The paper presents the completion-time breakdown (Figure 3) and the
user-time breakdowns (Figures 5-9) as stacked bars per configuration
and task.  These functions render the same bars as horizontal ASCII
charts so a terminal user can see the shapes the tables encode.
"""

from __future__ import annotations

from repro.core.breakdown import ct_breakdown, user_breakdown
from repro.core.record import RunResult
from repro.xylem.categories import TimeCategory

__all__ = ["render_ct_bars", "render_user_bars", "stacked_bar"]

#: One glyph per CT-breakdown category (Figure 3).
CT_GLYPHS = {
    TimeCategory.USER: ".",
    TimeCategory.SYSTEM: "S",
    TimeCategory.INTERRUPT: "I",
    TimeCategory.KSPIN: "K",
}

#: Glyphs for the user-time components (Figure 4's legend), in the
#: paper's below-the-line (useful) then above-the-line (overhead) order.
USER_GLYPHS = (
    ("serial", "="),
    ("mc_loop", "m"),
    ("iter_sdoall", "s"),
    ("iter_xdoall", "x"),
    ("setup", "u"),
    ("pickup_sdoall", "p"),
    ("pickup_xdoall", "P"),
    ("barrier_wait", "B"),
    ("helper_wait", "W"),
)


def stacked_bar(fractions: list[tuple[str, float]], width: int = 60) -> str:
    """Render one stacked bar from (glyph, fraction) pairs.

    Fractions are clipped to [0, 1]; rounding keeps the bar at most
    *width* characters, padding the remainder (unattributed time) with
    spaces.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    text = ""
    for glyph, fraction in fractions:
        cells = round(max(0.0, min(1.0, fraction)) * width)
        cells = min(cells, width - len(text))
        text += glyph * cells
        if len(text) >= width:
            break
    return text.ljust(width)


def render_ct_bars(
    results: dict[int, RunResult], cluster_id: int = 0, width: int = 60
) -> str:
    """Figure 3 as ASCII: one bar per configuration.

    Legend: ``.`` user, ``S`` system, ``I`` interrupt, ``K`` kernel spin.
    """
    lines = ["CT breakdown (. user | S system | I interrupt | K kspin)"]
    for n_proc in sorted(results):
        result = results[n_proc]
        breakdown = ct_breakdown(result, cluster_id)
        fractions = [
            (CT_GLYPHS[category], breakdown[category] / result.ct_ns)
            for category in (
                TimeCategory.USER,
                TimeCategory.SYSTEM,
                TimeCategory.INTERRUPT,
                TimeCategory.KSPIN,
            )
        ]
        lines.append(f"{n_proc:3d}p |{stacked_bar(fractions, width)}|")
    return "\n".join(lines)


def render_user_bars(result: RunResult, width: int = 60) -> str:
    """Figures 5-9 as ASCII: one bar per task of one run.

    Legend: ``=`` serial, ``m`` mc loops, ``s``/``x`` s(x)doall
    iterations, ``u`` setup, ``p``/``P`` pickups, ``B`` barrier wait,
    ``W`` helper wait; blank space is unattributed (intra-cluster idle
    and OS time).
    """
    lines = [
        "user-time breakdown (= serial | m mc | s/x iters | u setup | "
        "p/P pickup | B barrier | W wait)"
    ]
    for task_id in range(result.config.n_clusters):
        b = user_breakdown(result, task_id)
        components = b.as_dict()
        fractions = [
            (glyph, b.fraction(components[name])) for name, glyph in USER_GLYPHS
        ]
        name = "Main " if task_id == 0 else f"hlp{task_id} "
        lines.append(f"{name}|{stacked_bar(fractions, width)}|")
    return "\n".join(lines)
