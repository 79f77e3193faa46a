"""Comparison systems: Spark+MLlib, GPU nodes, and TABLA."""
