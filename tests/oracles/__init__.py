"""Test-only oracles: slow, structurally independent implementations.

The differential tests compare the production free-space structures in
:mod:`repro.alloc.freestore` against these, operation by operation.
"""
