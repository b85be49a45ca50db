"""Utility-preserving de-identification of paired image/report corpora."""

__version__ = "0.1.0"
