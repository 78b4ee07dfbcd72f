"""Render every figure kind to SVG files.

Figures are deterministic: the same data and options always produce the
same bytes, so the files are safe to diff or cache. Each kind builds the
construction it draws with `figure_construction`. Output lands in
demos/output/.
"""

from pathlib import Path

from cuoco import FIGURE_KINDS, FigureSpec, figure_construction, render, triangle_from_sides

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

t = triangle_from_sides(2.0, 3.0, 4.0)  # obtuse: negative panels get hatching

for kind in FIGURE_KINDS:
    svg = render(figure_construction(kind, t), FigureSpec(kind=kind))
    path = out_dir / f"{kind}.svg"
    path.write_text(svg)
    print(f"wrote {path} ({len(svg)} bytes)")

# Variations: color the panels by pair instead of by host square, drop the
# labels, or trim coordinate precision for smaller files.
compact = FigureSpec(kind="cuoco_pairs", labels=False, precision=3)
svg = render(figure_construction(compact.kind, t), compact)
path = out_dir / "cuoco_pairs_compact.svg"
path.write_text(svg)
print(f"wrote {path} ({len(svg)} bytes)")
