"""Command-line interface (``repro-b3``).

The entry point and parser live in :mod:`repro.cli.main`.  This package does
not import that module itself, so ``python -m repro.cli.main`` runs it once,
as ``__main__``, without a second copy in ``sys.modules``.
"""
