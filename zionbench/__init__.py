"""ZION simulator benchmark: see README.md."""
