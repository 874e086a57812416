"""Multilingual image caption engine with hand-written gradients."""

__version__ = "0.1.0"
