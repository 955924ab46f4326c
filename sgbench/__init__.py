"""Repository benchmark: fixed-input workloads over the certification pipeline.

Run one workload with ``python3 sgbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``sgbench/README.md`` for the workloads, metrics and findings.
"""
