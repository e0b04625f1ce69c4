"""The repo benchmark: four workloads, end-to-end metrics, outside-in tracing.

See ``bench/README.md``.  ``benchmarks/`` (the paper-figure regenerators
run by tier-1 pytest) is a different thing and does not import this.
"""
