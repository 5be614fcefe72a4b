"""Truthful single-item auctions on networks.

Mechanisms (exponential level auction, unit-exponent baseline, referral
auctions, the revenue-optimal transformed auction), executable incentive
checks, and a reproducible revenue-experiment harness.
"""

from .network import (
    SELLER,
    DiffusionNetwork,
    Instance,
    InstanceError,
    Outcome,
    ReferralTree,
    Report,
    ReportProfile,
    build_referral_tree,
    filter_subnetwork,
    load_instance,
    network_from_edges,
    random_tree_instance,
    save_instance,
    subtree_values,
    truthful_profile,
)
from .mechanisms import (
    ArgmaxRule,
    LblevAuction,
    LevelRule,
    LevelTrace,
    Mechanism,
    NonMonotoneRuleError,
    PowerRule,
    ReferralAuction,
    SecondPriceReserveRule,
    exponent_table,
    lblev_first_level_revenues,
    myerson_level_payment,
    rc_example_mechanism,
    run_lblev,
    run_referral_auction,
    transformed_auction_revenue,
)
from .bayes import (
    InterimEstimate,
    MaxVivaAuction,
    MaxVivaTA,
    PowerTA,
    SecondPriceTA,
    ValuationDistribution,
    check_mhr,
    estimate_interim,
    expected_revenue,
    exponential_distribution,
    max_of_iid,
    maxviva_level,
    paired_revenue_gap,
    truncated_normal,
    uniform_distribution,
)
from .verify import (
    DeviationGrid,
    VerificationReport,
    Witness,
    check_ta_equivalence,
    make_grid,
    replay_witness,
    verify_mechanism,
)
from .experiments import (
    ExperimentConfig,
    SweepRow,
    activate_edges,
    generate_base_tree,
    sweep_lambda,
)

__version__ = "0.1.0"
