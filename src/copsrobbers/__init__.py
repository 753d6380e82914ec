"""Pursuit-evasion games on reflexive graphs: exact game values and capture
times by retrograde analysis, constructive cop strategies with certified
bounds, robber counter-strategies, and a verification harness."""

__version__ = "0.1.0"

from .graphs import (
    MAXDIST,
    Graph,
    KCenterResult,
    Metrics,
    RetractMap,
    bfs_distances,
    domination_number,
    k_center,
    metrics,
    path_retract,
    verify_retract,
)
from .generators import (
    CubeCodec,
    GridCodec,
    box_retract,
    from_spec,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_grid_dims,
    gen_hypercube,
    gen_path,
    gen_tree,
    load_graph,
    save_graph,
    subcube_retract,
)
from .solver import (
    ValueTable,
    capture_time,
    cop_number,
    estimate_cost,
    extract_policies,
    solve,
)
from .play import CopPolicy, PlayTranscript, RobberPolicy, play, worst_case_capture_round
from .strategies import (
    GreedyRobber,
    PigeonholeGridRobber,
    RandomWalkRobber,
    RetractPartitionPolicy,
    StayFarRobber,
    TreePolicy,
    grid_cover_policy,
    subcube_partition_policy,
)
from .sphere_trap import (
    SphereTrapPolicy,
    net_radius,
    thresholds,
    trap_matching,
)
from .planar import (
    SeparatorResult,
    SeparatorSweepPolicy,
    ThreeCopPlanarPolicy,
    separator,
    verify_separator,
)
from .experiments import (
    REGIME_B,
    MCConfig,
    g_eval,
    mc_run,
    qn_regime,
    verify_suite,
)
