"""Tracking-by-detection convoy toolkit.

Detection geometry, reference training objectives, a frequency-domain
periodic-motion tracker, a bounding-box visual-servoing controller, a
deterministic convoy simulator, and a detector evaluation harness.
"""
