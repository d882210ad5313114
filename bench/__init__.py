"""The repository's one benchmark (see ``bench/README.md``).

``python3 -m bench`` measures the four front ends of the generator —
serial, DAG-parallel, out-of-core sharded, and HTTP serving — plus the
paper's matching protocol, on seven named workloads.  End-to-end
numbers are taken with tracing off; a separate traced run times the
calls this package makes into each layer's public functions.  Nothing
under ``src/`` is instrumented.
"""
