"""Trace-set security properties and interleaving-function closures.

A workbench for possibilistic information-flow properties over
synchronous lasso traces (separability, the noninference family, NOS)
and asynchronous event traces (the insertion property), together with
the partial-function machinery that represents them: copy types,
finite SIF families, pinning functions, and generalized pair families.
"""

from .enumeration import (
    BitUniverse,
    enumerate_systems,
    enumerate_traces,
    refute_all_types_over_universe,
    represents_over_universe,
    standard_universe,
    uniform_alphabets,
)
from .errors import (
    AlphabetError,
    CapExceeded,
    DuplicateTraceError,
    FormatError,
    InjectivityError,
    ProtocolError,
    RunExplosion,
    SiflabError,
    UnknownResultError,
)
from .families import (
    ConjPairGenSif,
    ExtensionalSif,
    NosMemberSif,
    TypeConjFamily,
    ZigzagSif,
    closed_under_family,
    conj_family,
    family_union,
    load_sif_table,
    nos_family,
    verify_zigzag_collection,
    zigzag_sif,
)
from .properties import (
    PropertyKind,
    StrategySystem,
    check_injectivity,
    check_nos,
    check_property,
    load_strategy_system,
    save_strategy_system,
    strategy_system_from_mapping,
    union_system,
)
from .siftypes import (
    ALL_SYSTEMS_TYPES,
    GNI_TYPE,
    RGNI_TYPE,
    SEP_TYPE,
    Refutation,
    RefutationReport,
    SifType,
    closed_under_type,
    enumerate_types,
    format_type,
    parse_type,
    refute_all_types,
    represents,
    swap_type,
)
from .strategies import (
    GenerationMode,
    SystemProtocol,
    UserProtocol,
    build_strategy_system,
    generate_sigma_h,
    load_protocols,
)
from .traces import (
    Component,
    FULL_VIEW,
    H_VIEW,
    HI_VIEW,
    HO_VIEW,
    L_VIEW,
    LI_VIEW,
    LO_VIEW,
    LassoTrace,
    System,
    TraceSpace,
    binary_space,
    canonicalize,
    format_trace,
    load_system,
    prefix_of,
    project,
    save_system,
    view,
)
from .verify import RESULT_IDS, VerificationReport, VerifyContext, verify_paper
from .zl import (
    AsyncSystem,
    EventDecl,
    ExtensionalQ,
    InsertionSif,
    NosPredicate,
    closed_under_insertion,
    lles,
    load_async_system,
    load_collection,
    low_projection,
    nos_as_zl,
    psp_check,
    q_and,
    q_or,
    zl_check,
    zl_q_search,
)

__version__ = "0.1.0"
