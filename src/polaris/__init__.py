"""Finite classical polar spaces: fields, forms, geometries, embeddings,
and exhaustive or seeded verification of their subspace properties."""
