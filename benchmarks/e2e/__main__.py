"""``python -m benchmarks.e2e``: see README.md in this directory."""

from .harness import main

raise SystemExit(main())
