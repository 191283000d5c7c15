"""Measurement, theory bounds, reporting, and the experiment registry."""
