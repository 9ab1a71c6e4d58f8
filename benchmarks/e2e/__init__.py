"""Whole-process end-to-end benchmark of the ``parulel`` CLI (see README.md)."""
