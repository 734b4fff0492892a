"""filexlab: simulation and analysis lab for a self-reinforcing lexicon process.

An urn-style stochastic process over word weights, a desk-scale toy
emergent-language agent, a small statistics toolkit (entropy, Kendall
tau-b, exact sign tests, kernel smoothing), a reproducible log-sweep
engine, and a CLI that ties them together.
"""

__version__ = "0.1.0"
