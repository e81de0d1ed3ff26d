"""Sample-adaptive, frequency-aware acceleration for coarse-to-fine
multi-step image generators, verified against a deterministic toy generator
with an explicit compute-cost model."""
