"""The repository's benchmark: five workloads over both ThreatRaptor pipelines.

Run ``python3 -m bench --help`` from the repository root.  ``BENCHMARK.json``
(next to this directory) declares the workloads and every metric; this
package measures them through the public ``repro`` API only and never edits
``src/``.  See ``bench/README.md`` for the catalogue and how to make a claim.
"""
