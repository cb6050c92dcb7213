"""DTaint benchmark: see README.md."""
