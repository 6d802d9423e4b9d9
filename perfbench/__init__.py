"""End-to-end and per-layer benchmark of the openset3cm trainer; see README.md."""
