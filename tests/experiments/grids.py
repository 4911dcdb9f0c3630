"""Run part of an experiment grid the way ``repro run`` runs a whole one.

A test that needs only some cells of a figure keeps them with
:func:`narrow` and hands their results to the figure's own view, so it
checks the same points, digests and validation as the CLI at a fraction
of the run time.
"""

from repro.experiments.runner import run_points


def narrow(grid, keep):
    """The cells of a ``specs()`` grid that ``keep`` accepts, and their specs.

    Every grid lays out the same number of specs for each cell, cell by
    cell.
    """
    cells, specs = grid
    per_cell = len(specs) // len(cells)
    kept = [i for i, cell in enumerate(cells) if keep(cell)]
    return (
        [cells[i] for i in kept],
        [spec for i in kept for spec in specs[i * per_cell : (i + 1) * per_cell]],
    )


def run_view(view, grid, keep=lambda cell: True, **runner):
    """``view``'s rows for the cells of ``grid`` that ``keep`` accepts.

    ``runner`` goes to :func:`run_points` (``jobs``, ``journal``, ...).
    """
    cells, specs = narrow(grid, keep)
    return view(cells, run_points(specs, **runner))
