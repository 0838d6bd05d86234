"""Benchmark of catpop's simulation, importance-sampling and oracle paths; see README.md."""
