"""Exact symbolic verification of mod-l cohomology computations.

The package verifies, in exact arithmetic and for every prime it is pointed
at: unitary generator-matrix identities over cyclotomic integers, Milnor
primitive expansions and modular (Dickson-Mui) invariant identities,
degreewise invariant subspaces under finite matrix-group actions, and
low-degree Leray-Serre spectral-sequence pages.
"""

from .ffla import FieldMatrix, is_prime, nullspace, rref
from .galg import (
    AlgebraContext,
    AlgebraMap,
    Element,
    GeneratorSpec,
    TruncationOverflowError,
    elementary_abelian_context,
    linear_substitution,
    multiply,
    signed_leibniz,
)
from .cyclo import (
    CycInt,
    CycMatrix,
    GeneratorSet,
    lemma22_holds,
    root_power_sum,
    triangular,
)
from .milnor import Derivation, milnor_q
from .invariants import (
    ActionMatrix,
    WeylPresentation,
    induced_action,
    invariant_subspace,
    weyl_generators,
)
from .specseq import (
    DifferentialSpec,
    Scenario,
    SSPage,
    initial_page,
    run_scenario,
    scenario_bg1,
    scenario_bg1_two,
    scenario_bpu,
    turn_page,
)
from .report import CheckReport

__version__ = "0.1.0"
