"""The repository's performance benchmark; see ``perfbench/README.md``."""
