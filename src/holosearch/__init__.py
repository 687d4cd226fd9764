"""Search-based computer-generated holography.

Direct search and simulated annealing over modulator pixel values, with an
O(N) single-pixel replay update, a sorted-pixel-selection policy that orders
candidate pixels by how much quantisation moved them, and a reproducible
experiment harness (CSV traces, PGM images, seeded random streams).

Import from the submodules: ``holosearch.field`` (transforms and the
single-pixel update), ``holosearch.slm`` (modulation schemes),
``holosearch.search`` (``run_search``, the one search entry point),
``holosearch.metrics``, ``holosearch.targets``, ``holosearch.pgm``,
``holosearch.rng``, ``holosearch.experiments`` (the experiment drivers) and
``holosearch.cli``.
"""

__version__ = "0.1.0"
