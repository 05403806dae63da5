"""Exact symbolic verification of mod-l cohomology computations.

The package verifies, in exact arithmetic and for every prime it is pointed
at: unitary generator-matrix identities over cyclotomic integers, Milnor
primitive expansions and modular (Dickson-Mui) invariant identities,
degreewise invariant subspaces under finite matrix-group actions, and
low-degree Leray-Serre spectral-sequence pages.  Each of these lives in its
own submodule (``cyclo``, ``milnor``, ``invariants``, ``specseq``, on the
``ffla`` and ``galg`` layers), which callers import directly.
"""

__version__ = "0.1.0"
