"""End-to-end CLI benchmark: timed and traced runs of ``repro sweep``.

See README.md in this directory.  Importing the package imports nothing
else, so the traced shim (``python -m benchmarks.e2e.traced``) starts
as fast as the plain CLI.
"""
