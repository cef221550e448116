"""Privacy metric suite: quantify the eavesdropper's observed view.

The paper argues indistinguishability asymptotically (Equation 11) and
the attack modules (:mod:`repro.attacks`) demonstrate it per-attack;
this package turns both into *numbers* a configuration can be scored
and searched on:

* :mod:`repro.privacy.metrics` — a slice-count k-style guarantee per
  node (how many distinct links/keys an eavesdropper must break before
  any reconstruction way opens) and an empirical mutual-information
  estimate between true readings and the observed traffic, Monte-Carlo
  over seeded trials and cross-checked against the closed-form
  disclosure probability of :mod:`repro.analysis.privacy`;
* :mod:`repro.privacy.score` — an auditable composite privacy score:
  a weighted sum of normalized sub-scores (the LPS decomposition
  pattern), each component reported alongside the total;
* :mod:`repro.privacy.evaluate` — the ``privacy-suite`` cell
  experiment evaluating full configurations on the paper deployment;
* :mod:`repro.privacy.report` — the schema'd ``repro-privacy/1``
  document that the :mod:`repro.tune` autotuner emits (``repro
  report`` renders it).
"""

from .metrics import (
    MutualInformationEstimate,
    SliceGuarantee,
    closed_form_crosscheck,
    empirical_mutual_information,
    node_breaking_cost,
    slice_count_guarantee,
)
from .score import (
    DEFAULT_WEIGHTS,
    PrivacyScore,
    ScoreComponent,
    composite_privacy_score,
)
from .evaluate import (
    REFERENCE_PX,
    evaluate_privacy,
    make_key_scheme,
    SPEC,
)
from .report import (
    PRIVACY_SCHEMA,
    build_privacy_report,
    privacy_payload_problems,
    render_privacy_report,
)

__all__ = [
    "DEFAULT_WEIGHTS",
    "MutualInformationEstimate",
    "PRIVACY_SCHEMA",
    "PrivacyScore",
    "REFERENCE_PX",
    "SPEC",
    "ScoreComponent",
    "SliceGuarantee",
    "build_privacy_report",
    "closed_form_crosscheck",
    "composite_privacy_score",
    "empirical_mutual_information",
    "evaluate_privacy",
    "make_key_scheme",
    "node_breaking_cost",
    "privacy_payload_problems",
    "render_privacy_report",
    "slice_count_guarantee",
]
