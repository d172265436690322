"""End-to-end benchmark of the Systolic Ring simulator; see run.py."""
