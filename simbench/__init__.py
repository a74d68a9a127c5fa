"""Host-cost and simulated-latency benchmark for the memcached DES.

Run ``python3 simbench/run.py --help``; ``simbench/README.md`` explains
the workloads, metrics and bounds.
"""
