"""Self-distillation for Gaussian process regression and classification."""

__version__ = "0.1.0"
