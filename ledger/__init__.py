"""The latency ledger: the repository's benchmark (see ledger/README.md)."""
