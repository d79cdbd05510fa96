#!/usr/bin/env python3
"""Electronics store: a second vertical on the same engine.

The paper notes that "other applications such as online auction sites and
electronic stores also have similar requirements (e.g., showing diverse
auction listings, cameras, etc.)".  This example builds a camera catalog
with its own diversity ordering (Brand < Type < Resolution < Price band),
exercises weighted diversity (Section VII's extension: boost popular
brands), and shows catalog management with several relations.

Run:  PYTHONPATH=src:benchmarks python examples/camera_store.py
"""

import random

from repro import Catalog, DiversityEngine, Relation, Schema
from paper.extensions.weighted import WeightedDiversifier
from repro.data.paper_example import figure1_ordering, figure1_relation

BRANDS = {
    "Canon": ["EOS-R5", "EOS-R8", "PowerShot", "Ixus"],
    "Nikon": ["Z6", "Z9", "Coolpix"],
    "Sony": ["A7IV", "A6700", "RX100", "ZV1"],
    "Fujifilm": ["XT5", "X100V"],
    "Leica": ["Q3"],
}
TYPES = ["mirrorless", "compact", "dslr"]
RESOLUTIONS = [12, 20, 24, 33, 45, 61]
FEATURES = [
    "weather sealed", "in body stabilisation", "4k video", "8k video",
    "flip screen", "dual card slots", "great autofocus", "compact body",
]


def build_camera_relation(rows: int = 4000, seed: int = 11) -> Relation:
    rng = random.Random(seed)
    schema = Schema.of(
        Brand="categorical",
        Model="categorical",
        Type="categorical",
        Megapixels="numeric",
        PriceBand="categorical",
        Notes="text",
    )
    relation = Relation(schema, name="Cameras")
    brands = list(BRANDS)
    weights = [5, 4, 4, 2, 1]
    for _ in range(rows):
        brand = rng.choices(brands, weights=weights)[0]
        model = rng.choice(BRANDS[brand])
        kind = rng.choice(TYPES)
        resolution = rng.choice(RESOLUTIONS)
        price = rng.choices(["budget", "mid", "premium"], weights=[5, 3, 2])[0]
        notes = ", ".join(rng.sample(FEATURES, 3))
        relation.insert((brand, model, kind, resolution, price, notes))
    return relation


def main() -> None:
    cameras = build_camera_relation()
    ordering = ["Brand", "Model", "Type", "PriceBand", "Megapixels", "Notes"]

    # A catalog can host many verticals, each with its own ordering.
    catalog = Catalog()
    catalog.register(cameras, ordering=ordering)
    catalog.register(figure1_relation(), ordering=figure1_ordering().attributes)
    print(f"Catalog hosts: {sorted(catalog)}\n")

    engine = DiversityEngine.from_relation(
        catalog.relation("Cameras"), catalog.default_ordering("Cameras")
    )

    print("Diverse top-5 cameras with '4k video':")
    result = engine.search("Notes CONTAINS '4k video'", k=5)
    print(result.to_table(["Brand", "Model", "Type", "PriceBand"]))
    brands = {item["Brand"] for item in result}
    print(f"-> {len(brands)} distinct brands\n")

    print("Premium mirrorless, scored by feature matches:")
    result = engine.search(
        "Type = 'mirrorless' [2] OR Notes CONTAINS 'weather sealed' [1] "
        "OR Notes CONTAINS 'dual card slots' [1]",
        k=6,
        scored=True,
    )
    print(result.to_table(["Brand", "Model", "Type", "Notes"]))
    print()

    # Weighted diversity (Section VII): merchandising wants popular brands
    # overrepresented 3:1 against boutique ones.
    print("Weighted diversity: Canon & Sony boosted 3x:")
    merged = engine.compile("Notes CONTAINS 'flip screen'")
    matches = []
    from repro.core.dewey import successor

    current = merged.first()
    while current is not None:
        matches.append(current)
        current = merged.next(successor(current))
    diversifier = WeightedDiversifier(
        engine.index.dewey,
        {("Brand", "Canon"): 3.0, ("Brand", "Sony"): 3.0},
    )
    chosen = diversifier.select(matches, 8)
    per_brand = {}
    for dewey in chosen:
        brand = engine.index.dewey.values_of(dewey)[0]
        per_brand[brand] = per_brand.get(brand, 0) + 1
    print(f"8 slots -> {per_brand}")
    print("(uniform diversity would give every brand at most 2)")


if __name__ == "__main__":
    main()
