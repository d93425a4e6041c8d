"""Security-group inference and firewall rule synthesis from flow logs."""

from .clustering import (
    ClusterModel,
    GroupAssignment,
    GroupingParams,
    SecurityGroups,
    assign_endpoint,
    derive_groups,
    fit_groups,
    kmeans_fit,
    kmeans_pp_init,
)
from .features import (
    FeatureSchema,
    SampleMatrix,
    encode_windows,
    standardize,
)
from .flows import (
    ClassifiedFlow,
    DataError,
    FlowRecord,
    IngestReport,
    MemberScope,
    PeerClass,
    classify_peer,
    filter_flows,
    load_scope,
    parse_flow_log,
)
from .metrics import (
    ContingencyTable,
    EvalReport,
    completeness,
    contingency,
    evaluate,
    homogeneity,
    v_measure,
)
from .pca import PcaModel, explained_variance, fit_pca, project
from .rules import (
    EntityRef,
    FirewallRule,
    RuleSet,
    ServiceTuple,
    check_ruleset,
    extract_service_flows,
    generalize,
)
from .synth import GeneratedScenario, ScenarioSpec, ServiceTemplate, generate, random_scenario

__version__ = "0.1.0"
