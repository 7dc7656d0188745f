"""Bayesian duplicate detection over record partitions.

Records are compared field by field into ordinal disagreement levels;
a Gibbs sampler explores partitions of the file restricted to a
candidate-pair graph, with truncated-Beta priors steering the
coreferent disagreement rates. Posterior draws give pairwise link
probabilities and a duplicate-count distribution in one pass.

The package root exports only __version__; import the submodules
(comparison, candidates, gibbs, posterior, ...) for the library.
"""

__version__ = "0.1.0"
