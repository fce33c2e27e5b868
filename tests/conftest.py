"""Shared test settings.

Property tests draw their examples deterministically (derandomize) and have
no per-example deadline, so they give the same verdict on every run and on
slow or loaded machines.
"""
from hypothesis import settings

settings.register_profile("trispin", derandomize=True, deadline=None)
settings.load_profile("trispin")
