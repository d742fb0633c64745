"""Small-data image classification: dual pre-training, feature fusion, voting ensemble."""

__version__ = "0.3.0"
