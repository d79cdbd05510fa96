"""repro — a reproduction of "Efficient Computation of Diverse Query Results"
(Vee, Srivastava, Shanmugasundaram, Bhat, Amer-Yahia; ICDE 2008).

Diverse top-k query answering over structured listings: given a relation, a
domain-expert *diversity ordering* of its attributes and a (possibly scored)
selection query, return k answers that are maximally diverse — e.g. five
different Honda models rather than five identical Civics.

Public entry points::

    from repro import (
        Schema, Relation, DiversityOrdering, DiversityEngine, Query,
        parse_query,
    )

    engine = DiversityEngine.from_relation(cars, ["Make", "Model", "Color"])
    result = engine.search("Make = 'Honda'", k=5)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduction of the paper's figures.
"""

from .core.dewey import DeweyId, LEFT, MIDDLE, RIGHT
from .core.diversify import diverse_subset, scored_diverse_subset, waterfill
from .core.engine import ALGORITHMS, AUTO, DiversityEngine
from .core.incremental import DiverseView
from .core.pagination import DiversePaginator
from .core.onepass import one_pass_scored, one_pass_unscored
from .core.ordering import DiversityOrdering
from .core.probing import probe_scored, probe_unscored
from .core.relaxation import RelaxedResult, relax_query, relaxed_search
from .core.result import DiverseResult, ResultItem
from .core.similarity import balance_violations, is_diverse, is_scored_diverse
from .core.symmetric import SymmetricObjective, greedy_symmetric_select, symmetric_search
from .core.trace import TracingMergedList
from .core.weighted import WeightedDiversifier, weighted_waterfill
from .index.inverted import InvertedIndex
from .index.merged import MergedList
from .index.snapshot import load_index, save_index
from .index.wand import wand_topk
from .query.estimate import estimate_cardinality, estimate_selectivity, order_for_leapfrog
from .query.parser import parse_query
from .query.predicates import KeywordPredicate, ScalarPredicate
from .query.query import Query
from .query.rewrite import normalise, to_query_string
from .planner import (
    PlanDecision,
    PlanFeatures,
    choose as choose_algorithm,
    render_explain,
)
from .resilience import (
    CircuitBreaker,
    DeadlineExceededError,
    ResilienceError,
    ResiliencePolicy,
    ShardUnavailableError,
    TransientShardError,
)
from .durability import (
    DurabilityError,
    DurableIndex,
    RecoveryError,
    WALCorruptionError,
    WriteAheadLog,
    create_sharded_store,
    create_store,
    recover,
)
from .serving import CacheStats, ServingCache, ServingEngine
from .sharding import (
    HashRouter,
    ShardedEngine,
    ShardedIndex,
    diverse_merge,
    scored_diverse_merge,
)
from .storage.catalog import Catalog
from .storage.relation import Relation
from .storage.schema import Attribute, AttributeKind, Schema

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AUTO",
    "Attribute",
    "AttributeKind",
    "CacheStats",
    "Catalog",
    "CircuitBreaker",
    "DeadlineExceededError",
    "DeweyId",
    "DurabilityError",
    "DurableIndex",
    "RecoveryError",
    "WALCorruptionError",
    "WriteAheadLog",
    "DiverseResult",
    "DiversityEngine",
    "DiversityOrdering",
    "InvertedIndex",
    "KeywordPredicate",
    "LEFT",
    "MIDDLE",
    "MergedList",
    "PlanDecision",
    "PlanFeatures",
    "Query",
    "Relation",
    "ResultItem",
    "RIGHT",
    "ScalarPredicate",
    "Schema",
    "ResilienceError",
    "ResiliencePolicy",
    "ServingCache",
    "ServingEngine",
    "HashRouter",
    "ShardUnavailableError",
    "ShardedEngine",
    "ShardedIndex",
    "TransientShardError",
    "DiversePaginator",
    "DiverseView",
    "RelaxedResult",
    "SymmetricObjective",
    "TracingMergedList",
    "WeightedDiversifier",
    "balance_violations",
    "choose_algorithm",
    "create_sharded_store",
    "create_store",
    "diverse_merge",
    "diverse_subset",
    "estimate_cardinality",
    "estimate_selectivity",
    "greedy_symmetric_select",
    "load_index",
    "normalise",
    "is_diverse",
    "is_scored_diverse",
    "one_pass_scored",
    "order_for_leapfrog",
    "one_pass_unscored",
    "parse_query",
    "probe_scored",
    "recover",
    "relax_query",
    "relaxed_search",
    "render_explain",
    "save_index",
    "symmetric_search",
    "to_query_string",
    "probe_unscored",
    "scored_diverse_merge",
    "scored_diverse_subset",
    "wand_topk",
    "waterfill",
    "weighted_waterfill",
]
