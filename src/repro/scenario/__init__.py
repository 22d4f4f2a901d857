"""Event-driven scenario subsystem (experiments + training as data).

This package redesigns the scenario-facing API of the cyber range around
declarative **phases** armed by **triggers** and scored by **outcomes**:

* triggers — :func:`at`, :func:`when` (compiled to point-registry delta
  subscriptions: idle conditions cost zero polling and zero kernel
  events), :func:`after`, :func:`all_of` / :func:`any_of`;
* conditions — the :func:`point` expression DSL with edge/level and
  hysteresis semantics, plus a string syntax for declarative specs;
* actions — the attack primitives, HMI operator commands, point writes
  and observations behind one ``execute(cyber_range)`` interface;
* outcomes — named pass/fail checks producing structured per-phase
  records in the after-action report (:class:`ScenarioRun`).

Phases form an **outcome-conditioned graph**: ``on_pass`` / ``on_fail`` /
``on_timeout`` edges route to dormant branch-target phases (armed only
when routed to — untaken branches cost nothing), with ``timeout_s``
arming windows and ``max_visits``-bounded cycles.  The
:mod:`repro.scenario.catalog` families *generate* branched scenario specs
per model set, and :class:`Campaign` sweeps them (``sgml campaign``) into
one aggregate report.

Entry points: ``CyberRange.run_scenario(scenario, duration_s)``,
``Scenario.from_spec`` / ``to_spec`` (dict/YAML-shaped, wired to the
``sgml scenario`` CLI subcommand), and ``Campaign.from_catalog`` /
``from_spec_dir``.
"""

from repro.scenario.actions import (
    Action,
    ActionError,
    CallAction,
    InjectBreakerAction,
    MitmSpoofAction,
    OperateAction,
    Outcome,
    RecordAction,
    WritePointAction,
    action_from_spec,
    outcome_from_spec,
)
from repro.scenario.conditions import (
    AllConditions,
    AnyCondition,
    BoolCondition,
    Comparison,
    Condition,
    ConditionError,
    PointExpr,
    all_conditions,
    any_condition,
    is_false,
    is_true,
    parse_condition,
    point,
)
from repro.scenario.campaign import (
    Campaign,
    CampaignError,
    CampaignReport,
    CampaignScenario,
    MatrixReport,
    run_matrix,
)
from repro.scenario.engine import (
    ActionRecord,
    BranchRecord,
    OutcomeRecord,
    PhaseRecord,
    ScenarioRun,
    ScenarioRunError,
)
from repro.scenario.scenario import (
    Phase,
    Scenario,
    ScenarioError,
    find_back_edges,
    reachable_phases,
)
from repro.scenario.sharding import derive_seed, run_one
from repro.scenario.triggers import (
    AfterTrigger,
    AllOfTrigger,
    AnyOfTrigger,
    AtTrigger,
    Trigger,
    TriggerError,
    WhenTrigger,
    after,
    all_of,
    any_of,
    at,
    when,
)

__all__ = [
    "Action",
    "ActionError",
    "ActionRecord",
    "AfterTrigger",
    "AllConditions",
    "AllOfTrigger",
    "AnyCondition",
    "AnyOfTrigger",
    "AtTrigger",
    "BoolCondition",
    "BranchRecord",
    "CallAction",
    "Campaign",
    "CampaignError",
    "CampaignReport",
    "CampaignScenario",
    "Comparison",
    "Condition",
    "ConditionError",
    "InjectBreakerAction",
    "MatrixReport",
    "MitmSpoofAction",
    "OperateAction",
    "Outcome",
    "OutcomeRecord",
    "Phase",
    "PhaseRecord",
    "PointExpr",
    "RecordAction",
    "Scenario",
    "ScenarioError",
    "ScenarioRun",
    "ScenarioRunError",
    "Trigger",
    "TriggerError",
    "WhenTrigger",
    "WritePointAction",
    "action_from_spec",
    "after",
    "all_conditions",
    "all_of",
    "any_condition",
    "any_of",
    "at",
    "derive_seed",
    "find_back_edges",
    "is_false",
    "is_true",
    "outcome_from_spec",
    "parse_condition",
    "point",
    "reachable_phases",
    "run_matrix",
    "run_one",
    "when",
]
