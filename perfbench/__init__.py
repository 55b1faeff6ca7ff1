"""Standing benchmark of the flooding simulator; see METRICS.md."""
