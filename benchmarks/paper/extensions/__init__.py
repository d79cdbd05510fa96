"""The paper's sketched extensions, over the served engine: weighted
diversity and the symmetric score/diversity trade-off (Section VII),
query relaxation (Section I) and live diverse views.  No served path runs
them; tests and examples import them from here."""
