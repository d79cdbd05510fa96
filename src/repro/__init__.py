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

Everything else is importable from its own module.  See DESIGN.md for the
system inventory and EXPERIMENTS.md for the reproduction of the paper's
figures.
"""

from .core.engine import ALGORITHMS, AUTO, DiversityEngine
from .core.ordering import DiversityOrdering
from .core.similarity import is_diverse, is_scored_diverse
from .index.snapshot import load_index, save_index
from .query.parser import parse_query
from .query.query import Query
from .query.rewrite import to_query_string
from .resilience import ResiliencePolicy
from .serving import ServingCache, ServingEngine
from .sharding import ShardedEngine
from .storage.catalog import Catalog
from .storage.relation import Relation
from .storage.schema import Schema

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AUTO",
    "Catalog",
    "DiversityEngine",
    "DiversityOrdering",
    "Query",
    "Relation",
    "ResiliencePolicy",
    "Schema",
    "ServingCache",
    "ServingEngine",
    "ShardedEngine",
    "is_diverse",
    "is_scored_diverse",
    "load_index",
    "parse_query",
    "save_index",
    "to_query_string",
]
