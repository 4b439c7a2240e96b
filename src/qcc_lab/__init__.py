"""Exact oracles, classical two-party protocols, and certificate audits
for binary measurements on shared entangled states."""

from .errors import (DimensionMismatchError, InvariantError, NonHaltingError,
                     PartitionError, PromiseViolationError, ProtocolError,
                     QccLabError)
from .oracle import (OPERATOR_ATOL, TRACE_ATOL, BinaryObservable, DensityMatrix,
                     ExpectationTriple, JointProbs, Projector, RationalMatrix, SignVector,
                     bloch_observable, expectations_to_probs,
                     joint_plus_probability, maximally_entangled,
                     observable_to_projector, predict_expectations,
                     predict_joint_probs, probs_to_expectations,
                     projector_to_observable, sign_vector_observable,
                     sign_vector_projector, singlet)
from .harness import (ALICE, BOB, Action, BlqmsReport, CheckResult, CostLaw,
                      OutcomeTable, Party, Protocol, RandomnessSpace, RunRecord,
                      SampleStats, Scenario, ScenarioResult, Transcript,
                      check_exact_blqms, cost_law, output_distribution, pair_label,
                      run, sample_distribution, tail_mass)
from .protocols import (PROTOCOL_NAMES, ConstantProtocol, SendAllReplyProtocol,
                        TonerBaconProtocol, make_protocol)
from .dj import (RejectCertificate, auy_min_n1, check_promise, n0_certificate,
                 n0_upper_bound, n0_verify, n1_lower_bound, promise_pairs,
                 promise_scenarios)
from .reduction import (DerandomizationTable, DjCertificate, Partition,
                        PartitionCell, TailReport, build_certificate,
                        cell_index_width, check_tail_hypothesis,
                        contradiction_holds, contradiction_threshold,
                        m_of_n, moment_bound, moment_bound_forms,
                        partition_inputs, reduce, verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "ALICE", "BOB", "OPERATOR_ATOL", "PROTOCOL_NAMES", "TRACE_ATOL",
    "Action", "BinaryObservable", "BlqmsReport", "CheckResult",
    "ConstantProtocol", "CostLaw", "DensityMatrix", "DerandomizationTable",
    "DimensionMismatchError", "DjCertificate", "ExpectationTriple",
    "InvariantError", "JointProbs", "NonHaltingError", "OutcomeTable", "Partition",
    "PartitionCell", "PartitionError", "Party",
    "Projector", "PromiseViolationError", "Protocol", "ProtocolError",
    "QccLabError", "RandomnessSpace", "RationalMatrix", "RejectCertificate",
    "RunRecord", "SampleStats", "Scenario", "ScenarioResult",
    "SendAllReplyProtocol", "SignVector", "TailReport",
    "TonerBaconProtocol", "Transcript", "auy_min_n1",
    "bloch_observable", "build_certificate", "cell_index_width",
    "check_exact_blqms", "check_promise", "check_tail_hypothesis",
    "contradiction_holds", "contradiction_threshold", "cost_law",
    "expectations_to_probs", "joint_plus_probability", "m_of_n", "make_protocol",
    "maximally_entangled", "moment_bound", "moment_bound_forms",
    "n0_certificate", "n0_upper_bound",
    "n0_verify", "n1_lower_bound", "observable_to_projector",
    "output_distribution", "pair_label", "partition_inputs",
    "predict_expectations", "predict_joint_probs", "probs_to_expectations",
    "projector_to_observable", "promise_pairs", "promise_scenarios", "reduce", "run",
    "sample_distribution", "sign_vector_observable", "sign_vector_projector",
    "singlet", "tail_mass", "verify_certificate",
]
