"""Repository benchmark for the Hobbit pipeline (see run.py)."""
