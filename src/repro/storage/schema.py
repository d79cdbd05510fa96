"""Typed schemas for the in-memory relations queried by the engine.

The paper's data model (Section II-A) is a single relation ``R`` whose
attributes are targeted by scalar (``att = value``) and keyword
(``att CONTAINS kw``) predicates.  A :class:`Schema` names the attributes and
assigns each a :class:`AttributeKind`, which determines how it is indexed:

* ``CATEGORICAL`` / ``NUMERIC`` attributes get one posting list per distinct
  value (scalar predicates).
* ``TEXT`` attributes are additionally tokenised into one posting list per
  (attribute, token) pair (keyword predicates).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence


class AttributeKind(enum.Enum):
    """How an attribute is stored and indexed."""

    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    TEXT = "text"


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation."""

    name: str
    kind: AttributeKind = AttributeKind.CATEGORICAL

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this attribute's storage type.

        Raises ``TypeError`` for values that cannot represent the kind.
        """
        if value is None:
            raise TypeError(f"attribute {self.name!r} does not allow NULLs")
        if self.kind is AttributeKind.NUMERIC:
            if isinstance(value, bool):
                raise TypeError(f"attribute {self.name!r} is numeric, got bool")
            if isinstance(value, (int, float)):
                return value
            try:
                return int(value)
            except (TypeError, ValueError):
                try:
                    return float(value)
                except (TypeError, ValueError):
                    raise TypeError(
                        f"attribute {self.name!r} is numeric, got {value!r}"
                    ) from None
        return str(value)


class SchemaError(ValueError):
    """Raised for schema construction or row validation failures."""


class Schema:
    """An ordered collection of :class:`Attribute` with fast name lookup."""

    def __init__(self, attributes: Iterable[Attribute]):
        self._attributes = tuple(attributes)
        if not self._attributes:
            raise SchemaError("a schema needs at least one attribute")
        self._index = {}
        for position, attribute in enumerate(self._attributes):
            if attribute.name in self._index:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            self._index[attribute.name] = position
        # Read once per materialised row (Relation.row_dict); a schema never
        # changes after construction, so the tuple is built here, once.
        self._names = tuple(attribute.name for attribute in self._attributes)

    @classmethod
    def of(cls, **kinds: str) -> "Schema":
        """Shorthand constructor: ``Schema.of(make='categorical', desc='text')``."""
        return cls(
            Attribute(name, AttributeKind(kind)) for name, kind in kinds.items()
        )

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self):
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{attribute.name}:{attribute.kind.value}"
            for attribute in self._attributes
        )
        return f"Schema({fields})"

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name, raising ``SchemaError`` if missing."""
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def position(self, name: str) -> int:
        """Column position of attribute ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def coerce_row(self, row: Sequence[Any] | Mapping[str, Any]) -> tuple:
        """Validate and coerce one row (sequence or mapping) to a tuple."""
        if isinstance(row, Mapping):
            missing = [name for name in self.names if name not in row]
            if missing:
                raise SchemaError(f"row missing attributes {missing}")
            extra = [name for name in row if name not in self._index]
            if extra:
                raise SchemaError(f"row has unknown attributes {extra}")
            values = [row[name] for name in self.names]
        else:
            values = list(row)
            if len(values) != len(self._attributes):
                raise SchemaError(
                    f"row has {len(values)} values, schema has "
                    f"{len(self._attributes)} attributes"
                )
        return tuple(
            attribute.coerce(value)
            for attribute, value in zip(self._attributes, values)
        )
