"""Helpers of the served-STTSV benchmark (``servebench/run.py``)."""
